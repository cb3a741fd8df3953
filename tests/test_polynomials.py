"""Polynomial ring, shifts, deflation, and the power-sum transforms.

Ring operations are checked against a naive Fraction convolution written
here, so the oracle shares no code with the implementation.  power_sums /
poly_from_power_sums are checked against explicit root sets.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_div, round_nearest

from bringform import (ReductionTrace, Scalar, UniPoly, coeff_scale, cx,
                       deflate, poly_from_power_sums, power_sums, rat,
                       reduce_general_quintic, shift_substitute)
from bringform.polynomials import coeff_mismatch, powers_mod
from bringform.scalars import ONE, ZERO, fma, fms, mul
from helpers import max_coeff_diff, rand_fraction, rand_monic, rand_scalar


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
    # a rational and a complex coefficient are judged by negligible, either way
    assert coeff_mismatch(P, UniPoly([cx(1), cx(2) + cx("1e-40"), rat(1)]),
                          "1e-30") is None
    k, d = coeff_mismatch(UniPoly([rat(1), rat(2)]), UniPoly([cx(1), cx(2) + cx("1e-20")]),
                          "1e-30")
    assert k == 1 and not d.is_rational and d.mag() > mpmath.mpf("1e-21")


def test_memo_slots_take_no_part_in_equality_or_output():
    # max_mag and the power-sum prefix are kept on the polynomial once
    # asked for; equality, repr and JSON must not see them
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
            out[i + j] = mul(a, b) if c is None else fma(c, a, b)
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
                rem[k - n + j] = fms(rem[k - n + j], q, a)
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

    got, old = powers_mod(T, A), steps(T, A)
    if T.is_rational_tree() and A.is_rational_tree():
        assert [_bits(r) for r in got] == [_bits(r) for r in old]
    else:
        prec = max(c.prec or 0 for c in T.coeffs + A.coeffs)
        wide = steps(_carried_at(T, 4 * prec), _carried_at(A, 4 * prec))
        for j, (g, o, w) in enumerate(zip(got, old, wide)):
            assert _row_error(g, w) <= max(_row_error(o, w), mpmath.ldexp(1, 1 - prec)), j


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
