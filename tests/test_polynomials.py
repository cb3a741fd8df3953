"""Polynomial ring, shifts, deflation, and the power-sum transforms.

Ring operations are checked against a naive Fraction convolution written
here, so the oracle shares no code with the implementation.  power_sums /
poly_from_power_sums are checked against explicit root sets.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_div, round_nearest

from bringform import polynomials
from bringform import (ReductionTrace, RootConfig, Scalar, UniPoly, coeff_scale, cx,
                       deflate, find_roots, poly_from_power_sums, power_sums, rat,
                       reduce_general_quintic, shift_substitute)
from bringform.polynomials import (_bareiss, _cut1, _dot, _enter, _leave, _on_grid,
                                  _ring_sums, coeff_mismatch, columns_mod, compose_mod,
                                  fixed_sum, gauss_mul_mod, int_monic, lies_on,
                                  monic_from_traces, newton_elementary, powers_mod,
                                  product_traces, relative_residual, solve_mod, table_sum,
                                  table_traces)
from bringform.scalars import (ONE, ZERO, add, as_tol, fixed_point, from_ratio, int_vector,
                               mul)
from helpers import (exact, gauss, max_coeff_diff, rand_fraction, rand_monic, rand_scalar,
                     reference_residual)


def _naive_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fracs(poly):
    return [c.fraction for c in poly.coeffs]


def test_ring_ops_match_naive_fraction_oracle():
    rng = random.Random(11)
    for _ in range(60):
        da, db = rng.randint(0, 5), rng.randint(0, 5)
        fa = [rand_fraction(rng) for _ in range(da + 1)]
        fb = [rand_fraction(rng) for _ in range(db + 1)]
        A = UniPoly([rat(f.numerator, f.denominator) for f in fa])
        B = UniPoly([rat(f.numerator, f.denominator) for f in fb])
        got = _fracs(A * B)
        want = _naive_mul(fa, fb)
        while want and want[-1] == 0:
            want.pop()
        assert got == want
        s = _fracs(A + B)
        t = [Fraction(0)] * max(len(fa), len(fb))
        for i, f in enumerate(fa):
            t[i] += f
        for i, f in enumerate(fb):
            t[i] += f
        while t and t[-1] == 0:
            t.pop()
        assert s == t


def test_eval_horner_matches_fraction_substitution():
    rng = random.Random(12)
    for _ in range(40):
        P = rand_monic(rng, rng.randint(1, 6))
        x = rand_fraction(rng)
        want = sum(c.fraction * x ** k for k, c in enumerate(P.coeffs))
        assert P.eval(rat(x.numerator, x.denominator)).fraction == want


def test_degree_and_normalization():
    assert UniPoly([rat(1), rat(0), rat(0)]).degree == 0  # trailing zeros drop
    assert UniPoly([]).degree == -1
    assert UniPoly([rat(0)]).degree == -1
    P = UniPoly([rat(2), rat(4)])
    m, lead = P.monic()
    assert lead == rat(4) and _fracs(m) == [Fraction(1, 2), Fraction(1)]


def test_shift_substitute_is_composition_with_translation():
    rng = random.Random(13)
    for _ in range(40):
        P = rand_monic(rng, rng.randint(1, 6))
        a = rand_scalar(rng)
        C = shift_substitute(P, a)
        x = rand_scalar(rng)
        # C(y) = P(y - a), exactly
        assert C.eval(x) == P.eval(x - a)
        back = shift_substitute(C, -a)
        assert back == P


def test_shift_substitute_kills_subleading_term():
    rng = random.Random(14)
    for _ in range(25):
        n = rng.randint(2, 6)
        P = rand_monic(rng, n)
        a = P.coeff(n - 1) / rat(n)
        C = shift_substitute(P, a)
        assert C.coeff(n - 1).is_exact_zero()


def test_deflate_inverts_root_multiplication():
    rng = random.Random(15)
    for _ in range(30):
        Q = rand_monic(rng, rng.randint(1, 5))
        r = rand_scalar(rng)
        P = Q * UniPoly([-r, rat(1)])
        assert deflate(P, r) == Q


def test_power_sums_against_explicit_roots():
    # (z-1)(z-2)(z-3): s_k = 1 + 2^k + 3^k
    P = UniPoly([rat(-6), rat(11), rat(-6), rat(1)])
    s = power_sums(P, 6)
    for k in range(1, 7):
        assert s[k].fraction == 1 + 2 ** k + 3 ** k
    assert s[0].fraction == 3 and len(s) == 7


def test_power_sum_roundtrip_recovers_polynomial():
    rng = random.Random(16)
    for _ in range(30):
        n = rng.randint(1, 6)
        P = rand_monic(rng, n)
        s = power_sums(P, n)
        back = poly_from_power_sums(s[1:], "z")
        assert back == P


def test_power_sums_with_irrational_roots():
    P = UniPoly([rat(-2), rat(0), rat(1)])  # roots +-sqrt(2)
    r = rat(2).sqrt()
    s = power_sums(P, 4)
    assert (s[3] - (r ** 3 + (-r) ** 3)).mag() == 0  # exact zero, rational tree
    assert s[4].fraction == 8


def test_json_roundtrip_and_mode():
    rng = random.Random(17)
    P = rand_monic(rng, 5)
    assert P.mode == "rational"
    Q = UniPoly.from_json(P.to_json())
    assert Q == P
    R = UniPoly([c + rat(2).sqrt() * rat(0) for c in P.coeffs], P.var)
    assert R.mode == "complex"


def test_unipoly_rejects_polynomial_coefficient():
    # free parameters live in power-sum forms, never in nested polynomials
    c = UniPoly([rat(0), rat(1)], "c")
    with pytest.raises(TypeError):
        UniPoly([c * c, rat(2)], "b")


def test_coeff_scale_floor_is_one():
    small = UniPoly([rat(1, 10 ** 9), rat(1, 10 ** 9)])
    assert coeff_scale(small) == mpmath.mpf(1)
    big = UniPoly([rat(10 ** 6), rat(1)])
    assert coeff_scale(big) == mpmath.mpf(10) ** 6
    assert coeff_scale(small, big) == mpmath.mpf(10) ** 6


def test_effective_degree_discards_negligible_lead():
    # a lead at the rounding noise of 256 bits, under 2^(24 - 256) times
    # the coefficient scale 3, is not a real degree
    lead = rat(3, 2 ** 233) * rat(2).sqrt()  # force complex mode
    P = UniPoly([rat(3), rat(2), lead])
    assert P.degree == 2
    assert P.effective_degree(256) == 1
    # one far above that noise counts, though below the acceptance tolerance
    assert UniPoly([rat(3), rat(2), rat(1, 10 ** 45) * rat(2).sqrt()]).effective_degree(256) == 2


def test_a_nan_coefficient_is_never_negligible():
    nan = Scalar.complex_(mpmath.nan, 0, 256)
    assert UniPoly([1, nan]).effective_degree(256) == 1
    # a lead at rounding noise goes; the nan under it stays
    assert UniPoly([rat(1), nan, cx(mpmath.ldexp(1, -240))]).effective_degree(256) == 1
    P = UniPoly([rat(1), rat(2), rat(1)])
    k, d = coeff_mismatch(P, UniPoly([rat(1), nan, rat(1)]), "1e-30")
    assert k == 1 and mpmath.isnan(d.mag())


def test_coeff_mismatch_asks_exactness_of_each_rational_pair():
    # a complex polynomial does not excuse a rational coefficient that differs
    P = UniPoly([cx(1), rat(2), rat(1)])
    assert coeff_mismatch(P, UniPoly([cx(1), rat(2), rat(1)]), "1e-30") is None
    k, d = coeff_mismatch(P, UniPoly([cx(1), rat(2) + rat(1, 10 ** 40), rat(1)]), "1e-30")
    assert k == 1 and d.is_rational and d.fraction == Fraction(-1, 10 ** 40)
    # a rational and a complex coefficient are judged on their exact
    # difference against tol * coeff_scale, either way
    assert coeff_mismatch(P, UniPoly([cx(1), cx(2) + cx("1e-40"), rat(1)]),
                          "1e-30") is None
    k, d = coeff_mismatch(UniPoly([rat(1), rat(2)]), UniPoly([cx(1), cx(2) + cx("1e-20")]),
                          "1e-30")
    assert k == 1 and not d.is_rational and d.mag() > mpmath.mpf("1e-21")


_STRADDLE = st.tuples(st.sampled_from([64, 256]), st.sampled_from([64, 256]),
                      st.sampled_from(["1e-30", "1e-12", 2.0 ** -40]),
                      st.sampled_from([1, 2 ** 20 + 1]),
                      st.sampled_from(["complex", "mixed", "mixed-swapped"]),
                      st.integers(0, 30), st.integers(-2 ** 30, 2 ** 30),
                      st.integers(-2 ** 30, 2 ** 30), st.sampled_from([3, 7, 10, 2 ** 20]),
                      st.sampled_from([(1, 0), (0, 1), (-1, 0), (Fraction(3, 5), Fraction(-4, 5))]),
                      st.integers(-1, 1), st.integers(1, 50))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=_STRADDLE)
def test_coeff_mismatch_judges_the_exact_difference(case):
    # complex pairs, and a complex value against a rational with a
    # denominator that is not a power of two, whose exact difference is
    # t (1 + sign 2^-k) in one of four directions, t = tol * coeff_scale:
    # the verdict is the Fraction comparison |p - q|^2 <= t^2, ties
    # included, and a mismatch names the coefficient and its difference
    pp, qp, tol, S, kind, j, a, b, den, (c, s), sign, k = case
    t = exact(as_tol(tol, mpmath.mpf(S)))
    size = t * 2 ** j / 2 ** 30  # |q| at most about t 2^j, well below S
    f = size * a / den
    q = cx(size * a, size * b, qp) if kind == "complex" else rat(f.numerator, f.denominator)
    gq = gauss(q)
    r = t * (1 + sign * Fraction(1, 2 ** k))
    p = cx(gq[0] + r * c, gq[1] + r * s, pp)
    if kind == "mixed-swapped":
        p, q = q, p
    P, Q = UniPoly([p, rat(S), rat(1)]), UniPoly([q, rat(S), rat(1)])
    bound = exact(as_tol(tol, coeff_scale(P, Q)))
    (pr, pi), (qr, qi) = gauss(p), gauss(q)
    want = (pr - qr) ** 2 + (pi - qi) ** 2 <= bound ** 2
    got = coeff_mismatch(P, Q, tol)
    assert (got is None) is want, (p, q, tol)
    if got is not None:
        assert got[0] == 0 and gauss(got[1]) == gauss(p - q)


def test_memo_slots_take_no_part_in_equality_or_output():
    # max_mag and the ring entry with its power sums are kept on the
    # polynomial once asked for; equality, repr and JSON must not see them
    P = UniPoly([cx(Fraction(1, 3), 2), rat(-4), rat(7, 2), rat(0), rat(0), rat(1)])
    fresh = UniPoly(P.coeffs, P.var)
    before = (repr(P), P.to_json())
    assert P.max_mag() == fresh.max_mag() == 4
    short, long = power_sums(P, 3), power_sums(P, 8)
    assert long[:4] == short and short[0].fraction == 5
    assert power_sums(P, 5) == long[:6]
    assert P == UniPoly(P.coeffs, P.var) and UniPoly(P.coeffs, P.var) == P
    assert (repr(P), P.to_json()) == before
    # a prefix grown in steps has the bits of one computed in one go
    once = power_sums(UniPoly(P.coeffs, P.var), 8)
    assert [s._c for s in once[1:]] == [s._c for s in long[1:]]


# -- multiplying by T modulo A on coefficient lists ---------------------------
#
# ``UniPoly.__mul__`` forms each coefficient by the Scalar kernels.  The
# old UniPoly path, kept here as the reference with the old Scalar
# reduction modulo A, must give the same bits: kind, precision and raw pair
# of every coefficient.  The power table
# (``powers_mod``) and the certificate's Horner (``compose_mod``) keep those
# bits where every coefficient is rational; otherwise they run on a
# fixed-point Gaussian-integer block (``gauss_mul_mod``) and must be no
# further from a reference at four times the precision, of the same
# inputs, than the UniPoly path is.

def _old_product(P, T):
    """UniPoly.__mul__ as it was before its loop moved into a list kernel
    and back."""
    if not P.coeffs or not T.coeffs:
        return UniPoly((), P.var)
    out = [None] * (len(P.coeffs) + len(T.coeffs) - 1)
    for i, a in enumerate(P.coeffs):
        if a.is_exact_zero():
            continue
        for j, b in T.terms():
            c = out[i + j]
            out[i + j] = mul(a, b) if c is None else add(c, mul(a, b))
    return UniPoly([ZERO if c is None else c for c in out], P.var)


def _old_rem_monic(P, A):
    """The n = deg A ascending coefficients of P (ascending Scalars) modulo
    the monic A, by the Scalar kernels, as the package reduced before every
    product modulo A ran on a fixed-point block."""
    n = A.degree
    rem = list(P)
    while rem and rem[-1].is_exact_zero():
        rem.pop()
    for k in range(len(rem) - 1, n - 1, -1):
        q = rem[k]
        if not q.is_exact_zero():
            for j, a in A.terms()[:-1]:
                rem[k - n + j] = add(rem[k - n + j], mul(-q, a))
    return rem[:n] + [ZERO] * (n - len(rem))


def _old_step(row, T, A):
    """_old_rem_monic(UniPoly(row) * T, A) on UniPolys: a step of the power
    table."""
    return _old_rem_monic(_old_product(UniPoly(row), T).coeffs, A)


def _bits(values):
    """The kind, precision and raw pair or (numerator, denominator) of each."""
    return [(v.is_rational, v.prec, (v._num, v._den) if v.is_rational else v._c)
            for v in values]


def _carried_at(P, prec):
    """P with each complex coefficient's raw pair carried at prec bits: the
    same inputs, for a reference at a higher precision."""
    return UniPoly([c if c.is_rational else Scalar(None, None, c._c, prec) for c in P.coeffs],
                   P.var)


def _row_error(row, ref):
    """max |row_i - ref_i| over max |ref_i| (over 1 for a zero ref row)."""
    worst = max([(a - b).mag() for a, b in zip(row, ref)] + [mpmath.mpf(0)])
    return worst / (max([c.mag() for c in ref] + [mpmath.mpf(0)]) or 1)


_KINDS = {"rational": ["rational"], "complex": ["complex"], "json": ["json"],
          "mixed": ["rational", "complex", "json"]}


@st.composite
def _mod_case(draw):
    """(row, T, A) in one of rational, complex, from_json (prec + 16 bits
    carried at prec) or mixed values, at 64 or 256 bits, with exact zeros
    (rational, and complex (0, 0) outside rational mode) anywhere in the
    row, trailing ones included."""
    mode = draw(st.sampled_from(sorted(_KINDS)))
    prec = draw(st.sampled_from([64, 128, 256]))
    zeros = ["zero"] if mode == "rational" else ["zero", "czero"]

    def scalar(kinds):
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return ZERO
        if kind == "czero":
            return cx(0, 0, prec)
        re, im = (draw(st.fractions(-50, 50, max_denominator=9)) for _ in "ri")
        if kind == "rational" or re == im == 0:
            return rat(re.numerator, re.denominator)
        z = cx(re, im, prec + 40).sqrt()
        if kind == "json":
            return Scalar.from_json(z.to_json(), prec)
        return Scalar.from_mpc(z.to_mpc(), prec)

    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n - 1))
    A = UniPoly([scalar(_KINDS[mode] + zeros) for _ in range(n)] + [ONE])
    T = UniPoly([scalar(_KINDS[mode] + zeros) for _ in range(k)] + [scalar(_KINDS[mode])])
    row = [scalar(_KINDS[mode] + zeros) for _ in range(n)]
    cut = draw(st.integers(0, n))
    row[n - cut:] = [scalar(zeros) for _ in range(cut)]
    return row, T, A


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(case=_mod_case())
def test_multiplying_modulo_a_on_lists_keeps_every_bit(case):
    row, T, A = case
    # the product
    assert _bits((UniPoly(row) * T).coeffs) == _bits(_old_product(UniPoly(row), T).coeffs)
    # the power table, row by row: every bit where T and A are rational,
    # otherwise each row no further from the rows at 4 prec than the
    # UniPoly path's, give or take one rounding at prec
    def steps(T, A):
        rows = [_old_rem_monic([ONE], A)]
        while len(rows) <= A.degree:
            rows.append(_old_step(rows[-1], T, A))
        return rows

    got, old = powers_mod(T, A).rows, steps(T, A)
    if T.is_rational_tree() and A.is_rational_tree():
        assert [_bits(r) for r in got] == [_bits(r) for r in old]
    else:
        prec = max(c.prec or 0 for c in T.coeffs + A.coeffs)
        wide = steps(_carried_at(T, 4 * prec), _carried_at(A, 4 * prec))
        for j, (g, o, w) in enumerate(zip(got, old, wide)):
            assert _row_error(g, w) <= max(_row_error(o, w), mpmath.ldexp(1, 1 - prec)), j


# -- the table kept in the ring -----------------------------------------------
#
# ``powers_mod`` keeps each row of the table as its vector in A's ring: the
# exact vector over T's own q, or the fixed-point vector of the row rounded
# at prec.  The readers that took the rounded Scalar rows and entered them
# in the ring again, and the certificate's C(T) sum on the Scalar kernels,
# are kept here as they ran, as the references: rational traces, U and
# C(T) are the same rationals, and complex ones read the same bits, the
# C(T) dot aside, which rounds once and lies no further from a sum at four
# times the precision than that rounding.

def _old_table_traces(rows, A):
    n = A.degree
    r, vs, q, prec = _enter(A, rows[1:], n - 1)
    S, bits, P = _on_grid(_ring_sums(r, n - 1)[:n], r[3]), r[3], []
    for j, v in enumerate(vs):
        re, im, e = _dot(v, S)
        P.append(_cut1(re * q ** j, im * q ** j, e, bits))
    return P, q, prec, bits


def _old_solve_mod(rows, A):
    n = A.degree
    r, vs, q, prec = _enter(A, rows, n - 1)
    scales = [(q // r[1], r[0] - e) for _, _, e in vs]
    im = [[v[1][i] for v in vs] + [0] for i in range(n)] if any(any(y) for _, y, _ in vs) else None
    got = _bareiss([[v[0][i] for v in vs] + [int(i == 1)] for i in range(n)], im)
    if got is None:
        return None
    xr, xi, dr, di = got
    if di:
        xr, xi, dr = ([x * dr + y * di for x, y in zip(xr, xi)],
                      [y * dr - x * di for x, y in zip(xr, xi)], dr * dr + di * di)
    return [from_ratio(x * f, y * f, dr, e, prec) for x, y, (f, e) in zip(xr, xi, scales)]


def _old_table_sum(rows, cs):
    CT = [ZERO] * len(rows[0])
    for c, P in zip(cs, rows):
        if not c.is_exact_zero():
            CT = [add(r, mul(c, p)) for r, p in zip(CT, P)]
    return CT


def _wide(c, prec):
    return c if c.is_rational else Scalar(None, None, c._c, prec)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=_mod_case())
def test_the_kept_table_reads_as_its_rows_did(case):
    row, T, A = case
    n, table = A.degree, powers_mod(T, A)
    rows, cs = table.rows, row + [ONE]
    got, old = table_traces(table), _old_table_traces(rows, A)
    U, old_U = solve_mod(table), _old_solve_mod(rows[:n], A)
    assert (U is None) == (old_U is None) and _bits(U or []) == _bits(old_U or [])
    if table.prec is None:
        (P, q, prec, bits), (old_P, old_q, _, _) = got, old
        k = max(T.degree, 0)  # T enters over its own q
        assert prec is bits is None and q == int_vector(T.coeffs)[1] * int_monic(A.coeffs)[1] ** k
        assert ([Fraction(x, q ** j) for j, (x, _, _) in enumerate(P, 1)]
                == [Fraction(x, old_q ** j) for j, (x, _, _) in enumerate(old_P, 1)])
    else:
        assert table.vectors == _enter(A, list(rows), n - 1)[1]
        assert got == old
    terms, d, prec = table_sum(table, cs)  # exact ints, each rounded here as it was
    CT = [from_ratio(x, y, d, e, prec) for x, y, e in terms]
    if table.prec is None and all(c.is_rational for c in cs):
        assert _bits(CT) == _bits(_old_table_sum(rows, cs))
        return
    prec = max(c.prec or 0 for c in cs + list(rows[-1]))
    wide = _old_table_sum([[_wide(c, 4 * prec) for c in r] for r in rows],
                          [_wide(c, 4 * prec) for c in cs])
    for i, (c, w) in enumerate(zip(CT, wide)):
        size = sum(x.mag() * r[i].mag() for x, r in zip(cs, rows))
        assert (c - w).mag() <= mpmath.ldexp(w.mag(), 1 - prec) + mpmath.ldexp(size, 4 - 4 * prec)


# Complex rows are rounded at prec on their ints (``_round_row``), with
# no Scalar made: the table must hold the vectors, and read as the rows,
# of the eager path that made each row's Scalars and entered them again.

def _eager_table(T, A):
    """(vectors, rows) of ``powers_mod`` as it ran when it kept the rounded
    Scalar rows: a complex row made at prec (``_leave``) and entered again
    (``fixed_point``); a rational row exact, made on read."""
    n = A.degree
    r, (t,), q, prec = _enter(A, [T.coeffs], max(T.degree, 0))
    vs = [([int(i == 0) for i in range(n)], [], 0)]
    for _ in range(n):
        vs.append(gauss_mul_mod(vs[-1], t, r[2], r[3]))
    if prec is None:
        return vs, [tuple(_leave(v, q ** j, None, r)) for j, v in enumerate(vs)]
    rows = [tuple(ONE if i == 0 else ZERO for i in range(n))] + [
        tuple(_leave(v, 1, prec, r)) for v in vs[1:]]
    return [fixed_point(row, prec, r[0]) for row in rows], rows


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(case=_mod_case())
def test_rows_rounded_on_their_ints_keep_the_eager_tables_bits(case):
    _, T, A = case
    table = powers_mod(T, A)
    vs, rows = _eager_table(T, A)
    assert table.vectors == vs
    assert [_bits(r) for r in table.rows] == [_bits(r) for r in rows]


def test_a_row_rounds_on_its_ints_as_normalize_rounds_it():
    # parts of every length, zeros, signs, and exact ties, which go to even
    rng = random.Random(23)
    for prec in (2, 3, 53, 64, 256):
        for _ in range(200):
            n, e, s = rng.randint(1, 6), rng.randint(-400, 400), rng.randint(-50, 50)

            def part():
                k = rng.choice([0, 1, rng.randint(2, prec + 80)])
                if k < 2 or rng.random() < 0.5:
                    return rng.choice([-1, 1]) * rng.getrandbits(k + prec)
                tie = (rng.getrandbits(prec) << 1 | 1) << k - 1  # exactly half an ulp
                return rng.choice([-1, 1]) * (tie + (rng.random() < 0.3))
            re = [rng.choice([0, part()]) for _ in range(n)]
            im = rng.choice([[], [rng.choice([0, part()]) for _ in range(n)]])
            v = (re, im, e)
            want = fixed_point(_leave(v, 1, prec, [s, 1]), prec, s)
            assert polynomials._round_row(v, prec) == want, (v, prec)


@pytest.mark.parametrize("mode", ["rational", "complex"])
@pytest.mark.parametrize("prec, tol", [(64, "1e-14"), (256, "1e-30")])
def test_a_table_built_on_first_use_from_json_keeps_the_eager_tables_bits(mode, prec, tol):
    quintics = [(3, -2, 1, 4, -1, 1), (-7, 2, 5, -1, 3, 1), (1, 9, -4, 0, 6, 1)]
    read = 0
    for q in quintics:
        P = UniPoly([rat(c) if mode == "rational" or c == 1 else cx(c, 0, prec) for c in q])
        trace = reduce_general_quintic(P, prec=prec, tol=tol)
        again = ReductionTrace.from_json(trace.to_json(), prec)
        for step in again.steps:
            assert "table" not in vars(step)
            vs, rows = _eager_table(step.subsidiary.map_in_z(), step.input)
            assert step.table.vectors == vs
            assert [_bits(r) for r in step.powers] == [_bits(r) for r in rows]
            read += step.table.prec is not None
    assert read >= 3


# ``lies_on`` and ``relative_residual`` read one exact residual on the
# values A and z hold.  The reference (``helpers.reference_residual``) is
# that residual squared over Fractions, which decides every case, ties
# included, and its square root by mpmath at 8 prec.  Two families:
# rational A of degree 1-8, and monic complex quintics with Gaussian-integer
# coefficients in [-9, 9] at 256 bits; each point is a root moved by 2^-j.

@st.composite
def _lies_on_case(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        n = rng.randint(1, 8)
        cs = [Fraction(rng.randint(-10 ** rng.randint(1, 12), 10 ** 6), rng.randint(1, 99))
              for _ in range(n)] + [Fraction(draw(st.sampled_from([1, 3, -2, 10 ** 9])))]
        A = UniPoly([rat(c.numerator, c.denominator) for c in cs])
        prec = draw(st.sampled_from([53, 64, 128, 256, 1024]))
        tols = ["1e-3", "1e-12", "1e-14", "1e-30", "1e-60", "1e-200"]
    else:
        A = UniPoly([cx(rng.randint(-9, 9), rng.randint(-9, 9), 256) for _ in range(5)]
                    + [rat(1)])
        prec = draw(st.sampled_from([64, 256]))
        tols = ["1e-12", "1e-30", "1e-60"]
    r = draw(st.sampled_from(find_roots(A.monic()[0], RootConfig(precision_bits=prec)).roots))
    j = draw(st.integers(0, prec + 8))
    z = r * (ONE + rat(draw(st.sampled_from([1, -3, 5])), 2 ** j))
    if z.is_rational:
        z = z + cx(0, 0, prec)
    return A, z, draw(st.sampled_from(tols))


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(case=_lies_on_case())
def test_an_exact_lies_on_agrees_with_the_residual_off_the_boundary(case):
    A, z, tol = case
    r2, ref = reference_residual(A, z)
    assert lies_on(A, z, tol) is (r2 <= exact(as_tol(tol)) ** 2), (A, z, tol, ref)
    res = relative_residual(A, z)  # the exact value rounded once at z's precision
    ulp = mpmath.ldexp(1, mpmath.mag(ref) - z.prec) if ref else 0
    assert abs(res - ref) <= ulp, (A, z, res, ref)


def test_a_residual_rounded_at_64_bits_is_not_its_own_rounding_error():
    # A = -5 + 3z + z^3/2^90 at 64 bits: a Horner rounded at 64 bits reads
    # 0 at the real root, whose exact residual is 4.6838e-21
    A = UniPoly([rat(-5), rat(3), rat(0), rat(1, 2 ** 90)])
    roots = find_roots(A, RootConfig(precision_bits=64)).roots
    assert len(roots) == 3
    for z in roots:
        res, (r2, ref) = relative_residual(A, z), reference_residual(A, z)
        assert res != 0 and abs(res - ref) <= mpmath.ldexp(1, mpmath.mag(ref) - 64), (z, res)
        for tol in ("1e-20", "1e-22"):
            assert lies_on(A, z, tol) is (r2 <= exact(as_tol(tol)) ** 2), (z, tol, ref)
    real = [z for z in roots if z.im() == 0]
    assert len(real) == 1 and mpmath.nstr(relative_residual(A, real[0]), 5) == "4.6838e-21"
    assert lies_on(A, real[0], "1e-20") and not lies_on(A, real[0], "1e-22")


def _dict_newton(sums, q, prec, bits, width=0):
    """newton_elementary's loop over dicts of forms, which it runs in any
    number of parameters and at any precision."""
    G, out, d = [{(0,) * width: (1, 0, 0)}], [], 1
    for k in range(1, len(sums) + 1):
        terms, f = {}, 1
        for i in range(1, k + 1):
            c = f if i % 2 else -f
            f *= k - i
            for ka, (ar, ai, ea) in G[k - i].items():
                for kb, (br, bi, eb) in sums[i - 1].items():
                    key = tuple(x + y for x, y in zip(ka, kb)) if kb else ka
                    terms.setdefault(key, []).append(
                        (c * (ar * br - ai * bi), c * (ar * bi + ai * br), ea + eb))
        d *= k * q
        Gk, ek = {}, {}
        for key, ts in terms.items():
            re, im, e = v = fixed_sum(ts, bits)
            if re or im:
                Gk[key], ek[key] = v, from_ratio(re, im, d, e, prec)
        G.append(Gk)
        out.append(ek)
    return out


_SUM = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10 ** 40, 10 ** 40))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(P=st.lists(_SUM, min_size=1, max_size=8), q=st.integers(1, 10 ** 12),
       pick=st.lists(st.booleans(), min_size=8, max_size=8))
def test_newtons_flat_loop_gives_the_dict_loops_e_k(P, q, pick):
    sums = [{(): (x, 0, 0)} if x else {} for x in P]
    got, want = newton_elementary(sums, q, None, None), _dict_newton(sums, q, None, None)
    assert [sorted(e) for e in got] == [sorted(e) for e in want]
    assert [_bits(e.values()) for e in got] == [_bits(e.values()) for e in want]
    # the e_k a caller reads are the same whatever else it reads
    read = [k for k in range(1, len(P) + 1) if pick[k - 1]]
    some = newton_elementary(sums, q, None, None, read=read)
    assert [_bits(e.values()) for e in some] == [_bits(want[k - 1].values()) for k in read]


def _old_certificate_residual(step, prec=None):
    """The U(T) = z residual of ``TransformStep.certify``, with U(T) by
    Horner on UniPolys, as it was before the fixed-point block; with prec,
    of the same U, T and A carried at prec bits."""
    A, T, U = step.input, step.subsidiary.map_in_z(), step.inverse
    if prec:
        A, T, U = (_carried_at(P, prec) for P in (A, T, U))
    UT = UniPoly([], "z")
    for u in reversed(U.coeffs):
        UT = UniPoly(_old_rem_monic((_old_product(UT, T) + UniPoly([u])).coeffs, A), "z")
    worst = (UT - UniPoly([rat(0), rat(1)], "z")).max_mag()
    return mpmath.mp.make_mpf(mpf_div(worst._mpf_, coeff_scale(A)._mpf_, 53, round_nearest))


@pytest.mark.parametrize("prec, tol", [(64, "1e-14"), (128, "1e-30"), (256, "1e-30")])
def test_certificate_horner_keeps_rational_bits_and_complex_accuracy(prec, tol):
    # in process and after a JSON re-read, whose values carry prec + 16
    # bits: a rational step's residual is the UniPoly Horner's to the bit;
    # over the complex ones, the worst distance from a Horner at 4 prec of
    # the same U, T and A is no larger than the UniPoly Horner's
    got_errors, old_errors = [], []
    for ascending in [(3, -2, 1, 4, -1, 1), (-7, 2, 9, -3, 5, 1), (1, 0, -6, 2, 8, 1)]:
        for lift in (rat, lambda c: cx(c, 0, prec)):
            trace = reduce_general_quintic(UniPoly([lift(c) for c in ascending]),
                                           prec=prec, tol=tol)
            reread = ReductionTrace.from_json(trace.to_json(), prec)
            for step in trace.steps + reread.steps:
                got, old = step.certify(tol)[0], _old_certificate_residual(step)
                maps = (step.input, step.subsidiary.map_in_z(), step.inverse)
                if all(P.is_rational_tree() for P in maps):
                    assert got == old
                    continue
                wide = _old_certificate_residual(step, 4 * prec)
                got_errors.append(abs(got - wide))
                old_errors.append(abs(old - wide))
    assert got_errors and max(got_errors) <= max(old_errors)


# -- the ring's one body against the old integer bodies ------------------------
#
# Rational input once ran on real ints of its own: ``int_mul_mod`` and
# ``int_rem_monic`` multiplied and reduced modulo the monic integer A(w / L)
# in w = L z (``int_monic``), and ``int_power_sums`` formed its power sums.
# They are kept here as references, with the rational bodies of the ring's
# routines built on them; the one body must give their bits on rational
# input, and on a rational A with complex forms, whose traces were exact.

def int_mul_mod(v, t, low, n, u=0):
    """(V T + u) modulo the monic integer polynomial w^n + sum c w^i over
    the pairs (i, c) of ``low``, exactly on real ints: V is the int list v,
    T the pairs (i, c) of its nonzero terms ``t`` and u an int."""
    prod = [0] * max(len(v) + (t[-1][0] if t else 0), n, 1)
    for i, x in enumerate(v):
        if x:
            for m, c in t:
                prod[i + m] += x * c
    prod[0] += u
    return int_rem_monic(prod, low, n)


def int_rem_monic(P, low, n):
    """The n ascending coefficients of the int list P modulo the monic
    integer polynomial w^n + sum c w^i over the pairs (i, c) of ``low``."""
    for m in range(len(P) - 1, n - 1, -1):
        r = P[m]
        if r:
            for i, c in low:
                P[m - n + i] -= r * c
    return P[:n]


def int_power_sums(a, k_max):
    """S_0..S_k_max of the roots of the monic integer polynomial of
    ascending ints a, by Newton's identities on ints."""
    n = len(a) - 1
    S = [n]
    for k in range(1, k_max + 1):
        acc = k * a[n - k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc += a[n - i] * S[k - i]
        S.append(-acc)
    return S


def _rats(nums, d):
    return [rat(x, d) for x in nums]


def _ring_ints(T, A):
    """T over its denominator and A monic on ints, in w = L z."""
    n, (tn, td), (a, L) = A.degree, int_vector(T), int_monic(A.coeffs)
    k = max(len(tn) - 1, 0)
    tw = [(i, c * L ** (k - i)) for i, c in enumerate(tn) if c]
    return n, tw, [(j, c) for j, c in enumerate(a[:n]) if c], L, td * L ** k


def _old_powers_mod(T, A):
    n, tw, low, L, q = _ring_ints(T.coeffs, A)
    row, out = [int(i == 0) for i in range(n)], [_rats([int(i == 0) for i in range(n)], 1)]
    for j in range(1, n + 1):
        row = int_mul_mod(row, tw, low, n)
        out.append(_rats([x * L ** i for i, x in enumerate(row)], q ** j))
    return out


def _old_compose_mod(U, T, A):
    n, kt = A.degree, len(T.coeffs)
    (tun, d), (an, L) = int_vector(T.coeffs + U.coeffs), int_monic(A.coeffs)
    tn, un = tun[:kt], tun[kt:]
    k, m = max(kt - 1, 0), len(un) - 1
    q = d * L ** k
    tw = [(i, c * L ** (k - i)) for i, c in enumerate(tn) if c]
    low = [(j, c) for j, c in enumerate(an[:n]) if c]
    v = [un[m] if un else 0] + [0] * (n - 1)
    for j in range(m - 1, -1, -1):
        v = int_mul_mod(v, tw, low, n, un[j] * q ** (m - j))
    return _rats([x * L ** i for i, x in enumerate(v)], d * q ** max(m, 0))


def _old_columns_mod(t, A):
    n = A.degree
    if len(t) < 2:  # a constant map: modulo w^n
        A = UniPoly([ZERO] * n + [ONE])
    _, tw, low, L, q = _ring_ints(t, A)
    cols = [int_rem_monic([0] * (n + len(t)) if not tw else
                          [dict(tw).get(i, 0) for i in range(n + len(t))], low, n)]
    while len(cols) < n:
        cols.append(int_rem_monic([0] + cols[-1], low, n))
    return cols, None, (0, q, None)  # real columns have no imaginary matrix


def _old_product_traces(A, X, m):
    """The rational A's traces: on ints for rational forms, otherwise exact
    on ``gauss_mul_mod`` with the forms over the rationals' denominator."""
    n, width = A.degree, len(X[0])
    flat = [c for x in X for c in x]
    K = max((i for x in X for i, c in enumerate(x) if not c.is_exact_zero()), default=0)
    a, L = int_monic(A.coeffs)
    S = int_power_sums(a, n - 1 + K)
    vx = int_vector(flat)
    if vx is not None:
        nums, D = vx
        low = [(j, c) for j, c in enumerate(a[:n]) if c]
        xs = [[(i, c * L ** (K - i)) for i, c in enumerate(nums[o:o + K + 1]) if c]
              for o in range(0, len(flat), width)]
        hs = [[sum(c * S[i + j] for i, c in x) for j in range(n)] for x in xs]

        def mul(v, p):
            return int_mul_mod(v, xs[p], low, n)

        def trace(v, p):
            return sum(x * h for x, h in zip(v, hs[p])), 0, 0
        one = [1] + [0] * (n - 1)
    else:
        prec = max(c.prec or 0 for c in flat)
        D = int_vector([c for c in flat if c.is_rational])[1]
        ga = (a[:n], [0] * n, 0)
        xr, xi, ex = fixed_point(flat, prec, 0, D)
        xs = [([x * L ** (K - i) for i, x in enumerate(xr[o:o + K + 1])],
               [y * L ** (K - i) for i, y in enumerate(xi[o:o + K + 1])], ex)
              for o in range(0, len(flat), width)]
        hs = []
        for xr, xi, ex in xs:
            hs.append(([sum(x * S[i + j] for i, x in enumerate(xr)) for j in range(n)],
                       [sum(y * S[i + j] for i, y in enumerate(xi)) for j in range(n)], ex))

        def mul(v, p):
            return gauss_mul_mod(v, xs[p], ga, None)

        def trace(v, p):
            (vr, vi, e), (hr, hi, eh) = v, hs[p]
            return (sum(x * c - y * d for x, y, c, d in zip(vr, vi, hr, hi)),
                    sum(x * d + y * c for x, y, c, d in zip(vr, vi, hr, hi)), e + eh)
        one = [1] + [0] * (n - 1), [0] * n, 0
    traces, prods = {}, {(): one}
    for k in range(1, m + 1):
        for combo in combinations_with_replacement(range(len(X)), k):
            v = prods[combo[:-1]]
            if k < m:
                prods[combo] = mul(v, combo[-1])
            traces[combo] = trace(v, combo[-1])
    return traces, D * L ** K


def _old_power_sums(P, k_max):
    a, L = int_monic(P.coeffs)
    return [rat(x, L ** k) for k, x in enumerate(int_power_sums(a, k_max))]


def _old_table_sums(powers, A):
    """The power sums s_j = sum_i (T^j mod A)_i s_i(A) of the rational rows."""
    n, (a, L) = A.degree, int_monic(A.coeffs)
    S = int_power_sums(a, n - 1)
    return [sum(Fraction(x, d * L ** i) * S[i] for i, x in enumerate(nums))
            for nums, d in (int_vector(r) for r in powers[1:])]


def _rand_rational(rng, n, zeros=True):
    return [ZERO if zeros and rng.random() < 0.25 else rand_scalar(rng, -9, 9, 7)
            for _ in range(n)]


@pytest.mark.parametrize("seed", range(4))
def test_the_one_body_keeps_the_integer_bodies_bits(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(1, 6)
        A = UniPoly(_rand_rational(rng, n) + [rand_scalar(rng, 1, 9, 7) if rng.random() < 0.2
                                             else ONE]).monic()[0]
        T = UniPoly(_rand_rational(rng, rng.randint(1, n)), "z")
        U = UniPoly(_rand_rational(rng, rng.randint(0, n + 1)), "y")
        table = powers_mod(T, A)
        assert [_bits(r) for r in table.rows] == [_bits(r) for r in _old_powers_mod(T, A)]
        assert _bits(compose_mod(U, T, A)) == _bits(_old_compose_mod(U, T, A))
        t = list(T.coeffs)
        assert columns_mod(t, A) == _old_columns_mod(t, A)
        k = rng.randint(1, n + 2)
        assert _bits(power_sums(UniPoly(A.coeffs), k)) == _bits(_old_power_sums(A, k))
        sums = _rand_rational(rng, n)
        assert (_bits(poly_from_power_sums(sums).coeffs)
                == _bits(monic_from_traces(*_old_newton_input(sums), "y").coeffs))
        if n >= 2 and 1 <= T.degree < n:
            P, q, prec, bits = table_traces(table)
            assert prec is bits is None and all(im == e == 0 for _, im, e in P)
            assert [Fraction(x, q ** j) for j, (x, _, _) in enumerate(P, 1)] == \
                _old_table_sums(table.rows, A)


def _old_newton_input(sums):
    nums, q = int_vector(sums)
    return [(x * q ** i, 0, 0) for i, x in enumerate(nums)], q, None, None


@pytest.mark.parametrize("seed", range(3))
def test_a_rational_a_keeps_its_exact_traces(seed):
    # rational forms on ints, and complex forms on the exact block
    rng = random.Random(100 + seed)
    for _ in range(40):
        n, width = rng.randint(1, 5), rng.randint(1, 4)
        A = UniPoly(_rand_rational(rng, n) + [ONE])
        X = [_rand_rational(rng, width) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            X[rng.randrange(len(X))][rng.randrange(width)] = cx(Fraction(rng.randint(-9, 9), 7),
                                                               rng.randint(-9, 9), 128)
        m = rng.randint(1, 3)
        traces, q, prec, bits = product_traces(A, X, m)
        assert bits is None and (traces, q) == _old_product_traces(A, X, m)


def test_a_constant_map_runs_exactly_whatever_a():
    A = UniPoly([cx(1, 2, 64), rat(-3, 2), cx(0, 0, 64), ONE])
    for t in ([], [rat(5, 3)], [rat(-2), ZERO]):
        assert columns_mod(t, A) == _old_columns_mod([c for c in t if c != 0][:1], A)
