"""Resultant elimination against power-sum transport.

The two routes share nothing past the polynomial ring: one goes through the
characteristic polynomial of multiplication by T modulo A, the other through
Newton's identities.  On rational input they must agree coefficient for
coefficient, exactly.  That equality is the oracle for both, and sympy's
resultant, outside the package, is a third.
"""

import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from mpmath.libmp import to_rational

from bringform import (BiPoly, Subsidiary, UniPoly, cx, find_roots,
                       map_charpoly, match_roots, polynomial_resultant,
                       quartic_remove_2_4, rat, shift_substitute,
                       sylvester_resultant_with_factor,
                       transform_by_power_sums)
from helpers import rand_monic, rand_scalar


def _random_subsidiary(rng, k):
    return Subsidiary(k, tuple(rand_scalar(rng) for _ in range(k)))


def test_routes_agree_exactly_on_rational_input():
    rng = random.Random(31)
    for trial in range(50):
        n = rng.randint(2, 5)
        k = rng.randint(1, min(3, n - 1)) if n > 1 else 1
        A = rand_monic(rng, n)
        sub = _random_subsidiary(rng, k)
        B = BiPoly(sub.z_coeffs_in_y())
        C_res, lead = sylvester_resultant_with_factor(A, B)
        C_pow = transform_by_power_sums(A, sub.t_coeffs())
        assert C_res.is_rational_tree() and C_pow.is_rational_tree()
        assert C_res == C_pow, "trial %d: routes disagree" % trial
        assert C_res.degree == n
        assert C_res.is_monic()


def test_linear_subsidiary_reduces_to_translation():
    rng = random.Random(32)
    for _ in range(20):
        A = rand_monic(rng, rng.randint(2, 5))
        a = rand_scalar(rng)
        sub = Subsidiary(1, (a,))
        C = transform_by_power_sums(A, sub.t_coeffs())
        # y = z + a, so C(y) = A(y - a)
        assert C == shift_substitute(A, a)


def test_transform_transports_roots():
    rng = random.Random(33)
    for _ in range(12):
        n = rng.randint(2, 4)
        k = rng.randint(1, min(3, n - 1)) if n > 1 else 1
        A = rand_monic(rng, n)
        sub = _random_subsidiary(rng, k)
        C = transform_by_power_sums(A, sub.t_coeffs())
        T = sub.map_in_z()
        zs = find_roots(A).roots
        images = [T.eval(z) for z in zs]
        ys = find_roots(C).roots
        ok, dist = match_roots(images, ys, tol="1e-40")
        assert ok, "transported roots missing from image polynomial: %s" % dist


def test_resultant_matches_image_multiset():
    A = UniPoly([rat(0), rat(-1), rat(0), rat(1)])  # z(z-1)(z+1)
    sub = Subsidiary(2, (rat(0), rat(0)))  # y = -z^2
    C, lead = sylvester_resultant_with_factor(A, BiPoly(sub.z_coeffs_in_y()))
    # images of the roots are 0, -1, -1, so C = y(y+1)^2
    assert C == UniPoly([rat(0), rat(1), rat(2), rat(1)], "y")
    assert lead == rat(1)


def test_polynomial_resultant_known_values():
    P = UniPoly([rat(-1), rat(0), rat(1)])  # z^2 - 1
    Q = UniPoly([rat(-4), rat(0), rat(1)])  # z^2 - 4
    # product of Q over the roots of P
    assert polynomial_resultant(P, Q) == rat(9)
    # swapping arguments flips by (-1)^(deg P * deg Q); even here
    assert polynomial_resultant(Q, P) == rat(9)
    L1 = UniPoly([rat(-3), rat(1)])
    L2 = UniPoly([rat(5), rat(2)])
    assert polynomial_resultant(L1, L2) == L2.eval(rat(3))


def test_resultant_detects_shared_root():
    P = UniPoly([rat(-6), rat(11), rat(-6), rat(1)])  # roots 1,2,3
    Q = UniPoly([rat(-2), rat(1)])  # root 2
    assert polynomial_resultant(P, Q).is_exact_zero()


def _nonzero_poly(rng, deg, coeff):
    """A polynomial of exact degree deg with coefficients drawn by coeff(rng)."""
    cs = [coeff(rng) for _ in range(deg + 1)]
    while cs[-1].mag() == 0:
        cs[-1] = coeff(rng)
    return UniPoly(cs)


def _sympy_expr(P, z):
    def value(c):
        if c.is_rational:
            return sympy.Rational(c.fraction.numerator, c.fraction.denominator)
        # Gaussian integers here, so rounding to int is exact
        return int(c.re()) + sympy.I * int(c.im())
    return sum((value(c) * z ** k for k, c in enumerate(P.coeffs)), sympy.Integer(0))


def _sympy_resultant(X, Y, z):
    """Res(X, Y) from sympy.  sympy 1.14 returns Res(Y, X) when deg X < deg Y,
    which has the wrong sign when both degrees are odd: resultant(z - 1,
    z^5 + 1) gives -2, where the Sylvester determinant and Q(1) give 2.  So
    it is asked in the order it gets right."""
    x, y = _sympy_expr(X, z), _sympy_expr(Y, z)
    if X.degree >= Y.degree:
        return sympy.expand(sympy.resultant(x, y, z))
    return (-1) ** (X.degree * Y.degree) * sympy.expand(sympy.resultant(y, x, z))


def test_polynomial_resultant_matches_sympy_on_rational_pairs():
    z = sympy.Symbol("z")
    rng = random.Random(43)
    for _ in range(60):
        P, Q = (_nonzero_poly(rng, rng.randint(0, 5), rand_scalar) for _ in range(2))
        for X, Y in ((P, Q), (Q, P)):
            want = sympy.Rational(_sympy_resultant(X, Y, z))
            got = polynomial_resultant(X, Y)
            assert got.fraction == Fraction(int(want.p), int(want.q)), (X, Y)
        # swapping the arguments flips the sign when both degrees are odd
        sign = -1 if P.degree * Q.degree % 2 else 1
        assert polynomial_resultant(Q, P) == polynomial_resultant(P, Q) * sign


def test_polynomial_resultant_with_the_zero_polynomial_is_zero():
    zero = UniPoly([])
    for other in (UniPoly([rat(5)]), UniPoly([rat(1), rat(0), rat(1)]), zero):
        assert polynomial_resultant(zero, other).is_exact_zero()
        assert polynomial_resultant(other, zero).is_exact_zero()


def test_polynomial_resultant_matches_sympy_on_gaussian_integer_pairs():
    z = sympy.Symbol("z")
    rng = random.Random(44)

    def gaussian(rng):
        return cx(rng.randint(-5, 5), rng.randint(-5, 5))

    for _ in range(20):
        P, Q = (_nonzero_poly(rng, rng.randint(1, 5), gaussian) for _ in range(2))
        for X, Y in ((P, Q), (Q, P)):
            exact = _sympy_resultant(X, Y, z)
            w = mpmath.mpc(int(sympy.re(exact)), int(sympy.im(exact)))
            got = polynomial_resultant(X, Y).to_mpc()
            assert abs(got - w) <= mpmath.mpf("1e-60") * max(1, abs(w)), (X, Y)


def test_routes_agree_in_complex_mode():
    rng = random.Random(34)
    for _ in range(10):
        n = rng.randint(2, 4)
        lower = [rand_scalar(rng) + cx(0) for _ in range(n)]
        A = UniPoly(lower + [rat(1)])
        sub = _random_subsidiary(rng, rng.randint(1, min(3, n - 1)))
        B = BiPoly(sub.z_coeffs_in_y())
        C_res, _ = sylvester_resultant_with_factor(A, B)
        C_pow = transform_by_power_sums(A, sub.t_coeffs())
        scale = max(mpmath.mpf(1), C_res.max_mag())
        for k in range(max(C_res.degree, C_pow.degree) + 1):
            assert (C_res.coeff(k) - C_pow.coeff(k)).mag() <= mpmath.mpf("1e-70") * scale


_Z, _Y = sympy.symbols("z y")


def _to_sympy(x):
    """The exact value of a Scalar (a complex one through its binary parts)."""
    if x.is_rational:
        return sympy.Rational(x.fraction.numerator, x.fraction.denominator)
    re, im = (sympy.Rational(*to_rational(v._mpf_)) for v in (x.re(), x.im()))
    return re + sympy.I * im


def _from_sympy(v):
    re, im = (Fraction(int(t.p), int(t.q)) for t in (sympy.re(v), sympy.im(v)))
    out = rat(re.numerator, re.denominator)
    return out if im == 0 else out + cx(0, 1) * rat(im.numerator, im.denominator)


def _sylvester_oracle(A, sub):
    """Res_z(A, B) by sympy, split into its monic part and leading coefficient."""
    Az = sum(_to_sympy(c) * _Z ** i for i, c in enumerate(A.coeffs))
    Bz = sum(_to_sympy(c) * _Y ** j * _Z ** i
             for i, row in enumerate(sub.z_coeffs_in_y()) for j, c in enumerate(row.coeffs))
    res = sympy.Poly(sympy.resultant(Az, Bz, _Z), _Y)
    lead = res.LC()
    want = UniPoly([_from_sympy(sympy.expand(c / lead)) for c in reversed(res.all_coeffs())], "y")
    return want, _from_sympy(lead)


def test_map_charpoly_equals_sylvester_determinant_exactly():
    rng = random.Random(35)
    for n in range(2, 6):
        for k in range(1, n):
            for _ in range(3):
                A = rand_monic(rng, n)
                sub = _random_subsidiary(rng, k)
                want, want_lead = _sylvester_oracle(A, sub)
                C = map_charpoly(A, sub.t_coeffs())
                assert C.is_rational_tree() and C == want, (n, k)
                C2, lead = sylvester_resultant_with_factor(A, BiPoly(sub.z_coeffs_in_y()))
                assert C2 == want and lead == want_lead
                assert lead == (rat(-1) ** n if k == 1 else rat(1))


def test_map_charpoly_matches_sylvester_determinant_in_complex_mode():
    rng = random.Random(36)
    for _ in range(8):
        n = rng.randint(2, 5)
        A = UniPoly([rand_scalar(rng) + cx(0, rng.randint(-3, 3)) for _ in range(n)]
                    + [rat(1)])
        sub = _random_subsidiary(rng, rng.randint(1, n - 1))
        want, _ = _sylvester_oracle(A, sub)
        C = map_charpoly(A, sub.t_coeffs())
        scale = max(mpmath.mpf(1), want.max_mag())
        for j in range(n + 1):
            assert (C.coeff(j) - want.coeff(j)).mag() <= mpmath.mpf("1e-60") * scale


def test_map_charpoly_keeps_repeated_image_roots():
    # criterion 06's step: z^4 + z -> y^4 + 3y^2, two roots map to y = 0
    step = quartic_remove_2_4(rat(1), rat(0))
    C = map_charpoly(step.input, step.subsidiary.t_coeffs())
    assert C == UniPoly([rat(0), rat(0), rat(3), rat(0), rat(1)], "y")


def test_subsidiary_not_linear_in_y_is_refused():
    A = UniPoly([rat(1), rat(0), rat(2), rat(1)])
    y2 = UniPoly([rat(0), rat(0), rat(1)], "y")  # B = z^2 + z + y^2
    B = BiPoly([y2, UniPoly([rat(1)], "y"), UniPoly([rat(1)], "y")])
    with pytest.raises(ValueError):
        sylvester_resultant_with_factor(A, B)
    no_y = BiPoly([UniPoly([rat(2)], "y"), UniPoly([rat(1)], "y")])  # B = z + 2
    with pytest.raises(ValueError):
        sylvester_resultant_with_factor(A, no_y)
