"""Polynomial ring, shifts, deflation, and the power-sum transforms.

Ring operations are checked against a naive Fraction convolution written
here, so the oracle shares no code with the implementation.  power_sums /
poly_from_power_sums are checked against explicit root sets.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from bringform import (Scalar, UniPoly, coeff_scale, cx, deflate,
                       poly_from_power_sums, power_sums, rat, shift_substitute)
from bringform.polynomials import coeff_mismatch
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
    assert coeff_mismatch(P, UniPoly([cx(1), rat(2) + rat(1, 10 ** 40), rat(1)]),
                          "1e-30")[0] == 1
    assert coeff_mismatch(P, UniPoly([cx(1), cx(2) + cx("1e-40"), rat(1)]),
                          "1e-30") is None


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
