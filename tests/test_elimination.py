"""Resultant elimination against power-sum transport.

The two routes share nothing past the polynomial ring: one goes through the
characteristic polynomial of multiplication by T modulo A, the other through
Newton's identities.  On rational input they must agree coefficient for
coefficient, exactly.  That equality is the oracle for both, and sympy's
resultant, outside the package, is a third.  Both routes run on Python
ints when their input is rational; a Fraction copy of the power-sum route
written here checks both pair for pair, on maps and moduli of every degree.
"""

import random
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

from bringform import (BiPoly, Subsidiary, UniPoly, coeff_scale, cx, dual_eliminate,
                       elimination, find_roots, map_charpoly, match_roots, pipeline,
                       poly_from_power_sums, polynomial_resultant, polynomials, power_sums,
                       quartic_remove_2_4, rat, reduce_general_quintic, scalars,
                       shift_substitute, sylvester_resultant_with_factor,
                       transform_by_power_sums)
from bringform.elimination import image_elementary
from bringform.polynomials import compose_mod, powers_mod
from helpers import rand_monic, rand_scalar


def test_the_routes_refuse_a_non_monic_input_and_a_map_of_the_wrong_degree():
    A = UniPoly([rat(1), rat(2), rat(0), rat(1)])  # z^3 + 2z + 1
    loose = UniPoly([rat(1), rat(2), rat(0), rat(3)])
    t = [rat(1), rat(1)]
    B = BiPoly(Subsidiary(1, (rat(1),)).z_coeffs_in_y())
    for refuse in (lambda: map_charpoly(loose, t),
                   lambda: sylvester_resultant_with_factor(loose, B),
                   lambda: transform_by_power_sums(loose, t),
                   lambda: image_elementary(loose, [(rat(0),), (rat(1),)], 2)):
        with pytest.raises(ValueError, match=r"A must be monic \(normalize first\)"):
            refuse()
    # degree 0, a constant map, and degree n or more
    for t in ([rat(2)], [rat(2), rat(0), rat(0), rat(0)], [rat(1), rat(0), rat(0), rat(1)],
              [rat(1), rat(0), rat(0), rat(0), rat(1)]):
        with pytest.raises(ValueError, match=r"map degree must satisfy 1 <= deg T < deg A"):
            transform_by_power_sums(A, t)
    for B in (BiPoly([UniPoly([rat(1), rat(-1)], "y")]),
              BiPoly(Subsidiary(3, (rat(1), rat(0), rat(2))).z_coeffs_in_y())):
        with pytest.raises(ValueError, match=r"subsidiary degree must satisfy 1 <= k < deg A"):
            sylvester_resultant_with_factor(A, B)


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
    pairs = [tuple(_nonzero_poly(rng, rng.randint(0, 5), rand_scalar) for _ in range(2))
             for _ in range(60)]
    # leading coefficients that are negative and large, before the monic
    # normalization and the integer scaling by int_monic's L
    big = rat(-10 ** 30 - 7, 11)
    pairs += [(UniPoly([rat(5, 3), rat(-2), rat(0), big]), UniPoly([rat(1, 2), big])),
              (UniPoly([rat(3), big]), UniPoly([rat(-7, 2), rat(1), rat(0), rat(0), big])),
              (UniPoly([big]), UniPoly([rat(2), rat(-1), rat(-3)]))]
    for P, Q in pairs:
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


# The edge shapes of the one determinant on ``map_charpoly`` itself.  Its
# value at y = 0 is (-1)^n prod T(z_i), so (-1)^n lc(P)^(deg Q) times it
# is Res(P, Q) for A = P / lc(P) and T = Q, which sympy gives.

def _charpoly_resultant(P, Q):
    A, lc = P.monic()
    value = lc ** Q.degree * map_charpoly(A, Q.coeffs).coeff(0)
    return -value if P.degree % 2 else value


def test_map_charpoly_of_degree_0_and_1():
    one = UniPoly([rat(1)], "y")
    for t in ([], [rat(3)], [rat(1, 2), rat(-2), rat(5)], [cx(1, 2), rat(3)]):
        assert map_charpoly(UniPoly([rat(1)]), t) == one
    # A = z - a: the one image is T(a)
    for a, t in ((rat(3), [rat(5), rat(2)]), (rat(-7, 3), [rat(1), rat(0), rat(4, 9)]),
                 (cx(2, -1), [cx(0, 1), rat(1), rat(1)])):
        C = map_charpoly(UniPoly([-a, rat(1)]), t)
        image = UniPoly(t).eval(a)
        assert C.degree == 1 and C.coeff(1) == rat(1)
        assert (C.coeff(0) + image).mag() <= mpmath.mpf("1e-70") * max(1, image.mag())
        if a.is_rational:
            assert C.coeff(0) == -image


def test_map_charpoly_of_the_zero_map_is_a_power_of_y():
    # every image is 0, so C = y^n, whatever A, rational or complex
    for A in (UniPoly([rat(5, 2), rat(-1), rat(0), rat(1)]),
              UniPoly([cx(1, 2), rat(-3, 2), cx(0, 0), rat(1)])):
        for t in ([], [rat(0)], [rat(0), cx(0, 0)]):
            assert map_charpoly(A, t) == UniPoly([rat(0)] * 3 + [rat(1)], "y")


def test_map_charpoly_matches_sympy_on_rational_pairs():
    z = sympy.Symbol("z")
    rng = random.Random(43)
    pairs = [tuple(_nonzero_poly(rng, rng.randint(0, 5), rand_scalar) for _ in range(2))
             for _ in range(60)]
    # leading coefficients that are negative and large, before the monic
    # normalization and the integer scaling by int_monic's L
    big = rat(-10 ** 30 - 7, 11)
    pairs += [(UniPoly([rat(5, 3), rat(-2), rat(0), big]), UniPoly([rat(1, 2), big])),
              (UniPoly([rat(3), big]), UniPoly([rat(-7, 2), rat(1), rat(0), rat(0), big])),
              (UniPoly([big]), UniPoly([rat(2), rat(-1), rat(-3)]))]
    for P, Q in pairs:
        for X, Y in ((P, Q), (Q, P)):
            want = sympy.Rational(_sympy_resultant(X, Y, z))
            assert _charpoly_resultant(X, Y).fraction == Fraction(int(want.p), int(want.q))


def test_map_charpoly_matches_sympy_on_gaussian_integer_pairs():
    z = sympy.Symbol("z")
    rng = random.Random(44)

    def gaussian(rng):
        return cx(rng.randint(-5, 5), rng.randint(-5, 5))

    for _ in range(20):
        P, Q = (_nonzero_poly(rng, rng.randint(1, 5), gaussian) for _ in range(2))
        for X, Y in ((P, Q), (Q, P)):
            exact = _sympy_resultant(X, Y, z)
            w = mpmath.mpc(int(sympy.re(exact)), int(sympy.im(exact)))
            got = _charpoly_resultant(X, Y).to_mpc()
            assert abs(got - w) <= mpmath.mpf("1e-60") * max(1, abs(w)), (X, Y)


def test_image_elementary_makes_only_the_forms_read_with_the_same_bits():
    # each e_k read is the e_k of the full list, bit for bit, rational and
    # complex; the ones not read are never rounded
    rng = random.Random(52)
    for _ in range(30):
        n, width = rng.randint(2, 5), rng.randint(1, 4)
        prec = rng.choice([64, 256])
        kind = rng.choice(["rational", "complex"])

        def scalar():
            f = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            return rat(f.numerator, f.denominator) if kind == "rational" else cx(f, 1, prec)
        A = UniPoly([scalar() for _ in range(n)] + [rat(1)])
        xs = [tuple(scalar() for _ in range(width)) for _ in range(rng.randint(1, n))]
        m = rng.randint(1, 3)
        full = image_elementary(A, xs, m)
        for read in ([m], [1, m], [2, 3][:m - 1] or [1]):
            read = sorted(set(read))
            got = image_elementary(A, xs, m, read)
            assert _form_bytes(got) == _form_bytes([full[k - 1] for k in read])


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


def test_map_charpoly_reads_complex_exact_zeros_as_rational_zeros():
    # deg A = 0: the empty product, whatever T
    assert map_charpoly(UniPoly([rat(1)]), [cx(1, 2)]).coeffs == (rat(1),)
    # A = z + 0i and T = 3 + 0i z: y - 3, exactly
    C = map_charpoly(UniPoly([cx(0), rat(1)]), [rat(3), cx(0)])
    assert C.coeffs == (rat(-3), rat(1)) and C.is_rational_tree()
    # A = z^2 + 0i z + 2 and T = 1 + z/3: the images 1 +- i sqrt(2)/3
    C = map_charpoly(UniPoly([rat(2), cx(0), rat(1)]), [rat(1), rat(1, 3)])
    assert C.coeffs == (rat(11, 9), rat(-2), rat(1)) and C.is_rational_tree()
    # the zero map, empty or a complex exact zero: y^n
    for t in ([], [cx(0)]):
        C = map_charpoly(UniPoly([cx(1, 1), rat(0), rat(1)]), t)
        assert C.coeffs == (rat(0), rat(0), rat(1)) and C.is_rational_tree()
    # a complex A whose columns are all rational: a constant map
    C = map_charpoly(UniPoly([cx(0, 1), rat(0), rat(1)]), [rat(1, 3)])
    assert C.coeffs == (rat(1, 9), rat(-2, 3), rat(1)) and C.is_rational_tree()


def test_map_charpoly_of_degree_one_is_the_image_of_the_root():
    # A = z - 2 and T = 1 + i + 3z: y - (7 + i), exact in the dyadic block
    C = map_charpoly(UniPoly([rat(-2), rat(1)]), [cx(1, 1), rat(3)])
    assert C.coeffs == (cx(-7, -1), rat(1))
    # A = z + 1 + i and T = 1/3 + 2z: the image 1/3 - 2 - 2i, its parts
    # rounded once, at the entries' 256 bits
    C = map_charpoly(UniPoly([cx(1, 1), rat(1)]), [rat(1, 3), rat(2)])
    assert C.leading == rat(1)
    got = C.coeff(0).to_mpc()
    assert abs(Fraction(*to_rational(got.real._mpf_)) - Fraction(5, 3)) <= Fraction(1, 2 ** 256)
    assert got.imag == 2


def test_map_charpoly_refuses_an_entry_that_is_not_finite():
    # the exact block has no place for an infinity or a nan, and reading
    # one as its zero mantissa would hide it
    nan = scalars.Scalar.complex_(mpmath.nan, 0, 256)
    with pytest.raises(ValueError, match="a block entry must be finite"):
        map_charpoly(UniPoly([nan, rat(2), rat(1)]), [rat(0), cx(1, 1)])


def test_map_charpoly_is_exact_on_gaussian_integer_input():
    # Gaussian-integer A and T give Gaussian-integer columns, read exactly,
    # and a determinant with no division: C equals sympy's Res_z(A, y - T)
    z, y = sympy.symbols("z y")
    rng = random.Random(44)

    def gaussian(rng):
        return cx(rng.randint(-5, 5), rng.randint(-5, 5))

    for _ in range(40):
        n = rng.randint(1, 5)
        A = UniPoly([gaussian(rng) for _ in range(n)] + [rat(1)])
        T = _nonzero_poly(rng, rng.randint(1, n), gaussian)
        want = sympy.Poly(sympy.resultant(_sympy_expr(A, z), y - _sympy_expr(T, z), z), y)
        got = map_charpoly(A, T.coeffs)
        assert got.degree == n, (A, T)
        for k, w in enumerate(reversed(want.all_coeffs())):
            c = got.coeff(k)
            assert c == cx(int(sympy.re(w)), int(sympy.im(w))), (A, T, k, c, w)


def _batch_quintic(index):
    """Quintic ``index`` of the acceptance batch (``random.Random(20260818)``,
    c0..c4 in [-10, 10])."""
    rng = random.Random(20260818)
    rows = [[rng.randint(-10, 10) for _ in range(5)] for _ in range(index + 1)]
    return UniPoly([rat(c) for c in rows[index]] + [rat(1)])


def _carried_at(c, prec):
    """c, a complex one with its raw pair carried at prec bits."""
    return c if c.is_rational else scalars.Scalar(None, None, c._c, prec)


@pytest.mark.parametrize("prec, tol", [(64, "1e-14"), (128, "1e-30"), (256, "1e-30")])
def test_a_complex_charpoly_lies_near_one_at_four_times_the_precision(prec, tol, monkeypatch):
    # every complex charpoly of two batch chains lies within 2^(4 - prec) of
    # coeff_scale of the charpoly of the same inputs at 4 prec; with the
    # columns built by the Scalar kernels, quintic 1 missed that by a
    # factor of 16 to 23 at each precision, and quintic 9 by 2.9 to 15
    calls = []

    def recorded(A, t):
        if not (A.is_rational_tree() and all(c.is_rational for c in t)):
            calls.append((A, t))
        return map_charpoly(A, t)

    monkeypatch.setattr(pipeline, "map_charpoly", recorded)
    for index in (1, 9):
        reduce_general_quintic(_batch_quintic(index), prec=prec, tol=tol)
    assert len(calls) == 4
    for A, t in calls:
        C = map_charpoly(A, t)
        wide = map_charpoly(UniPoly([_carried_at(c, 4 * prec) for c in A.coeffs]),
                            [_carried_at(c, 4 * prec) for c in t])
        worst = max((C.coeff(k) - wide.coeff(k)).mag() for k in range(A.degree + 1))
        assert worst <= mpmath.ldexp(coeff_scale(wide), 4 - prec), (A, t)


def test_a_complex_charpoly_hands_berkowitz_ints_of_a_bounded_length(monkeypatch):
    # coefficients 10^30000 and 10^-30000 side by side: an exact view of
    # the columns would hold ints as long as that span, about 300,000 bits;
    # each column is cut to prec + GUARD_BITS bits of its largest part, and
    # a column cut to zero is not shifted with the others
    seen, berkowitz = [], elimination._berkowitz

    def recorded(N, I=None):
        seen.extend(zip((x for row in N for x in row),
                        (y for row in I or [[0] * len(N)] * len(N) for y in row)))
        return berkowitz(N, I)

    monkeypatch.setattr(elimination, "_berkowitz", recorded)
    big, small = mpmath.mpf("1e30000"), mpmath.mpf("1e-30000")
    A = UniPoly([cx(big, small), cx(small, 1), cx(3, big), cx(small, small), cx(1, -2), rat(1)])
    assert map_charpoly(A, [cx(1, 1), rat(2), cx(small, big)]).degree == 5
    # z T = (1 - 10^-30000) z - 1 modulo B cancels below the cut of z T
    B = UniPoly([rat(1), cx(small), cx(big), rat(0), rat(0), rat(1)])
    assert map_charpoly(B, [rat(1), cx(big), rat(0), rat(0), rat(1)]).degree == 5
    parts = [p for x in seen for p in x]
    assert len(seen) == 50
    assert max(abs(p).bit_length() for p in parts) <= 256 + scalars.GUARD_BITS + 64


def test_subsidiary_not_linear_in_y_is_refused():
    A = UniPoly([rat(1), rat(0), rat(2), rat(1)])
    y2 = UniPoly([rat(0), rat(0), rat(1)], "y")  # B = z^2 + z + y^2
    B = BiPoly([y2, UniPoly([rat(1)], "y"), UniPoly([rat(1)], "y")])
    with pytest.raises(ValueError):
        sylvester_resultant_with_factor(A, B)
    no_y = BiPoly([UniPoly([rat(2)], "y"), UniPoly([rat(1)], "y")])  # B = z + 2
    with pytest.raises(ValueError):
        sylvester_resultant_with_factor(A, no_y)


# -- the power-sum route on ints, against Fraction arithmetic -----------------
#
# A rational elimination runs its power-sum route on Python ints, one common
# denominator per vector.  The references below are Newton's identities and
# the remainders T^j mod A written on Fractions, sharing no code with it.

def _ref_power_sums(cs, k_max):
    """s_0..s_k_max of the roots of the polynomial of ascending Fractions cs."""
    n = len(cs) - 1
    e = [(-1) ** k * cs[n - k] / cs[n] for k in range(n + 1)]
    s = [Fraction(n)]
    for k in range(1, k_max + 1):
        acc = sum((-1) ** (i - 1) * e[i] * s[k - i] for i in range(1, min(k - 1, n) + 1))
        if k <= n:
            acc += (-1) ** (k - 1) * k * e[k]
        s.append(acc)
    return s


def _ref_from_power_sums(sums):
    """The ascending Fractions of the monic polynomial with power sums s_1..s_n."""
    n = len(sums)
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1)) / k)
    return [(-1) ** (n - j) * e[n - j] for j in range(n + 1)]


def _ref_powers_mod(t, a):
    """Rows T^0..T^n mod the monic A, n ascending Fractions each."""
    n = len(a) - 1
    rows = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    while len(rows) <= n:
        prod = [Fraction(0)] * (n + len(t) - 1)
        for i, x in enumerate(rows[-1]):
            for j, y in enumerate(t):
                if x and y:
                    prod[i + j] += x * y
        for k in range(len(prod) - 1, n - 1, -1):
            q = prod[k]
            for j in range(n + 1):
                if q and a[j]:
                    prod[k - n + j] -= q * a[j]
        rows.append(prod[:n])
    return rows


def _ref_route(rows, a):
    """The monic C of the images of A's roots under T, by the power-sum
    route on Fractions, from the rows T^j mod A."""
    s = _ref_power_sums(a, len(a) - 2)
    return _ref_from_power_sums([sum(x * y for x, y in zip(row, s)) for row in rows[1:]])


def _pairs(values):
    return [(v.numerator, v.denominator) for v in values]


def _scalar_pairs(values):
    return [tuple(v.to_json()) for v in values]


def _lift(values):
    return [rat(v.numerator, v.denominator) for v in values]


_BIG = st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6))
_SMALL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
_COEFF = st.one_of(st.just(Fraction(0)), _SMALL, _BIG)


@st.composite
def _exact_case(draw):
    """(A, T, lead): a monic rational A of degree 2-7 with exact zeros, z^n
    among them; T of degree 1 to n - 1 whose leading coefficient is not a
    unit; a nonzero rational lead that makes A non-monic."""
    n = draw(st.integers(2, 7))
    a = [Fraction(0)] * n if draw(st.integers(0, 9)) == 0 else [draw(_COEFF) for _ in range(n)]
    k = draw(st.integers(1, n - 1))
    top = draw(st.one_of(_SMALL, _BIG).filter(lambda x: x not in (0, 1, -1)))
    t = [draw(_COEFF) for _ in range(k)] + [top]
    lead = draw(st.one_of(_SMALL, _BIG).filter(bool))
    return a + [Fraction(1)], t, lead


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(case=_exact_case())
def test_the_integer_power_sum_route_matches_fraction_arithmetic(case):
    a, t, lead = case
    n = len(a) - 1
    A, T = UniPoly(_lift(a)), _lift(t)
    # the route building its own rows and the route handed the table,
    # against the Fraction route and the resultant route
    rows = _ref_powers_mod(t, a)
    ref = _pairs(_ref_route(rows, a))
    table = powers_mod(UniPoly(T), A)
    assert [_scalar_pairs(r) for r in table.rows] == [_pairs(r) for r in rows]
    assert _scalar_pairs(transform_by_power_sums(A, T).coeffs) == ref
    assert _scalar_pairs(transform_by_power_sums(A, T, table).coeffs) == ref
    assert _scalar_pairs(map_charpoly(A, T).coeffs) == ref
    # the resultant route alone takes any map, a constant one and one of
    # degree n or more, and any monic A, of degree 0 and 1 too
    for b in ([Fraction(1)], [a[0], Fraction(1)], a):
        for u in (t[:1], t + a):
            assert (_scalar_pairs(map_charpoly(UniPoly(_lift(b)), _lift(u)).coeffs)
                    == _pairs(_ref_route(_ref_powers_mod(u, b), b)))
    # a subsidiary's T is monic up to sign: dual_eliminate's table is
    # powers_mod's, and its C the Fraction route's
    sub = Subsidiary(len(t) - 1, tuple(T[:-1]))
    C, kept = dual_eliminate(A, sub)
    assert kept.rows == powers_mod(UniPoly(sub.t_coeffs()), A).rows
    rows = _ref_powers_mod([c.fraction for c in sub.t_coeffs()], a)
    assert [_scalar_pairs(r) for r in kept.rows] == [_pairs(r) for r in rows]
    assert _scalar_pairs(C.coeffs) == _pairs(_ref_route(rows, a))
    # power sums of a non-monic input, past its degree too, an odd number
    # of them after s_0 so that a negative lead shows
    P = UniPoly(_lift([c * lead for c in a]))
    assert _scalar_pairs(power_sums(P, 2 * n + 1)) == _pairs(_ref_power_sums(a, 2 * n + 1))
    # back to a monic polynomial, from A's own sums and from sums that no
    # polynomial with integral roots has
    own = _lift(_ref_power_sums(a, n)[1:])
    assert _scalar_pairs(poly_from_power_sums(own).coeffs) == _pairs(a)
    sums = [c * lead for c in t] + [lead] * (n - len(t))
    assert (_scalar_pairs(poly_from_power_sums(_lift(sums)).coeffs)
            == _pairs(_ref_from_power_sums(sums)))


def _count_kernels(monkeypatch, names=("add", "mul")):
    """Rebind the names of scalars' kernels (add and mul by default), in
    every package module that holds them, to counters; returns the
    counts."""
    calls = dict.fromkeys(names, 0)
    modules = [m for name, m in sys.modules.items()
               if name == "bringform" or name.startswith("bringform.")]
    for name in calls:
        original = getattr(scalars, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        for m in modules:
            if vars(m).get(name) is original:
                monkeypatch.setattr(m, name, counted)
    return calls


def test_the_rational_integer_routes_run_no_scalar_kernel(monkeypatch):
    # rational: the table, both routes and Newton's identities both ways
    # run on ints; complex: the table, the certificate's Horner, the
    # determinant route's columns and determinant, the power-sum route's
    # traces, Newton's identities both ways, the forms of image_elementary
    # and the solve for a step's inverse map call none, running on
    # fixed-point Gaussian blocks and exact Gaussian integers
    A = UniPoly([rat(3, 4), rat(-2, 3), rat(0), rat(4), rat(-1, 2), rat(1)])
    P = UniPoly([rat(3, 2), rat(-4, 3), rat(0), rat(8), rat(-1), rat(2)])  # 2A
    t = (rat(1, 3), rat(-2, 5), rat(7, 2))
    calls = _count_kernels(monkeypatch)
    powers_mod(UniPoly(t), A)
    assert poly_from_power_sums(power_sums(P, 5)[1:], "z") == A
    assert transform_by_power_sums(A, t) == map_charpoly(A, t)
    assert calls == {"add": 0, "mul": 0}
    Z = UniPoly([cx(c.fraction, 1, 64) for c in A.coeffs[:-1]] + [rat(1)])
    powers_mod(UniPoly(t), Z)
    compose_mod(UniPoly([rat(2, 3), cx(1, -2, 64), rat(1, 5)], "y"), UniPoly(t), Z)
    C = map_charpoly(Z, t)
    assert pipeline.coeff_mismatch(transform_by_power_sums(Z, t), C, "1e-12") is None
    back = poly_from_power_sums(power_sums(Z, 5)[1:], "z")
    assert pipeline.coeff_mismatch(back, Z, "1e-15") is None
    assert calls == {"add": 0, "mul": 0}
    # the forms (one product modulo A at k = 2 and the traces at k = 3)
    # and the fraction-free solve divide nothing on Scalars either
    calls = _count_kernels(monkeypatch, ("add", "mul", "mpc_div"))
    xs = [(cx(1, 1, 64), rat(2)), (rat(1, 3), rat(0)), (rat(1), cx(2, -1, 64))]
    assert image_elementary(Z, xs, 3)[2]
    step = pipeline.TransformStep("test", Z, Subsidiary(2, (cx(1, 1, 64), rat(1, 3))), Z, ())
    assert step.powers and pipeline.step_inverse(step) is not None
    assert calls == {"add": 0, "mul": 0, "mpc_div": 0}


# -- the power-sum route against the Scalar code it replaced ------------------
#
# ``transform_by_power_sums`` dots the table's vectors, kept in the ring,
# with A's integer or block power sums and runs Newton's identities on
# ints.  The Scalar route it replaced is kept here as it ran, as the
# reference: rational C keeps its bytes, and complex C lies no further from
# a charpoly of the same inputs at four times the precision.

def _table_of(rows, A):
    """The table of complex Scalar rows modulo A, each entered in A's ring as
    ``powers_mod`` enters its rounded rows: a table of given inputs, for a
    reference."""
    r, vs, q, prec = polynomials._enter(A, rows, A.degree - 1)
    return polynomials.PowerTable(vs, q, prec, r)


def _scalar_route(A, t, powers):
    """transform_by_power_sums as the Scalar kernels ran it: A's power sums
    and Newton's identities back to C on Scalars (acc - x * y has the bits
    of the fused acc - x y), and each trace a sum of Scalar products."""
    n = A.degree
    e = [scalars.ONE] + [-A.coeff(n - k) if k % 2 else A.coeff(n - k) for k in range(1, n + 1)]
    s = [rat(n)]
    for k in range(1, n):
        acc = scalars.ZERO
        for i in range(1, k):
            acc = scalars.add(acc, scalars.mul(e[i], s[k - i])) if i % 2 else acc - e[i] * s[k - i]
        s.append(acc + e[k] * k if k % 2 else acc - e[k] * k)
    sums = []
    for rem in powers[1:]:
        acc = scalars.mul(rem[0], s[0])
        for j in range(1, n):
            acc = scalars.add(acc, scalars.mul(rem[j], s[j]))
        sums.append(acc)
    e = [scalars.ONE]
    for k in range(1, n + 1):
        acc = scalars.mul(e[k - 1], sums[0])
        for i in range(2, k + 1):
            x, y = e[k - i], sums[i - 1]
            acc = scalars.add(acc, scalars.mul(x, y)) if i % 2 else acc - x * y
        e.append(acc * rat(1, k))
    return UniPoly([-e[n - j] if (n - j) % 2 else e[n - j] for j in range(n + 1)], "y")


def test_the_rational_power_sum_route_keeps_the_bytes_of_the_scalar_code():
    rng = random.Random(20261017)

    def draw():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    for _ in range(60):
        n = rng.randint(3, 5)
        A = UniPoly([rat(draw()) for _ in range(n)] + [rat(1)])
        k = rng.randint(1, n - 1)
        sub = Subsidiary(k, tuple(rat(draw()) for _ in range(k)))
        t = sub.t_coeffs()
        powers = powers_mod(UniPoly(t), A)
        want = _scalar_pairs(_scalar_route(A, t, powers.rows).coeffs)
        assert _scalar_pairs(transform_by_power_sums(A, t, powers).coeffs) == want
        assert _scalar_pairs(dual_eliminate(A, sub)[0].coeffs) == want


@pytest.mark.parametrize("prec, tol", [(64, "1e-14"), (128, "1e-30"), (256, "1e-30")])
def test_the_complex_power_sum_route_is_no_further_from_four_times_the_precision(
        prec, tol, monkeypatch):
    # on the complex steps of two batch chains the route rounds once: it
    # lies within 2^-prec of coeff_scale of itself at 4 prec on the same
    # inputs, the table's rounded rows included (the Scalar route missed
    # that by up to 25 times).  Its worst distance from the charpoly at 4
    # prec, relative to that charpoly's coeff_scale, is no larger than the
    # Scalar route's, or than the rounded rows carry plus that one
    # rounding: at 256 bits they alone put quintic 0's principal step at
    # 4.5e-77, where the Scalar route's own roundings happen to land at
    # 2.4e-77
    calls, route = [], pipeline.transform_by_power_sums

    def recorded(A, t, table):
        if table.prec is not None:
            calls.append((A, t, table))
        return route(A, t, table)

    monkeypatch.setattr(pipeline, "transform_by_power_sums", recorded)
    for index in (0, 7):
        reduce_general_quintic(_batch_quintic(index), prec=prec, tol=tol)
    assert len(calls) == 4
    ulp = mpmath.ldexp(1, -prec)
    worst = dict.fromkeys(("ints", "scalar", "rows"), mpmath.mpf(0))
    for A, t, table in calls:
        wide_A = UniPoly([_carried_at(c, 4 * prec) for c in A.coeffs])
        wide_t = [_carried_at(c, 4 * prec) for c in t]
        wide = map_charpoly(wide_A, wide_t)
        own = route(wide_A, wide_t, _table_of([[_carried_at(c, 4 * prec) for c in row]
                                               for row in table.rows], wide_A))
        C = route(A, t, table)

        def dist(P, Q):
            return max((P.coeff(k) - Q.coeff(k)).mag() for k in range(A.degree + 1))

        assert dist(C, own) <= ulp * coeff_scale(own), (A, t)
        for name, P in (("ints", C), ("scalar", _scalar_route(A, t, table.rows)),
                        ("rows", own)):
            worst[name] = max(worst[name], dist(P, wide) / coeff_scale(wide))
    assert worst["ints"] <= max(worst["scalar"], worst["rows"] + ulp), worst


# -- the forms of image_elementary and the inverse map, on ints -----------------
#
# ``image_elementary`` traces the products of its parameters' polynomials
# modulo A and runs Newton's identities on ints; ``step_inverse`` solves on
# the table's rows by fraction-free elimination.  The Scalar Hankel code they
# replace is kept here, as it was, as the reference of the rational bytes.

def _old_mul_terms(cs, terms):
    out = [None] * (len(cs) + terms[-1][0]) if terms else []
    for i, a in enumerate(cs):
        if a.is_exact_zero():
            continue
        for j, b in terms:
            c = out[i + j]
            out[i + j] = scalars.mul(a, b) if c is None else scalars.add(c, scalars.mul(a, b))
    while out and (out[-1] is None or out[-1].is_exact_zero()):
        out.pop()
    return [scalars.ZERO if c is None else c for c in out]


def _old_form_mul(f, g):
    out = {}
    for ka, va in f.items():
        for kb, vb in g.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            got = out.get(key)
            prod = scalars.mul(va, vb)
            out[key] = prod if got is None else scalars.add(got, prod)
    return out


def _old_image_elementary(A, xs, m):
    """image_elementary as the Scalar kernels ran it: full products of the
    parameters' polynomials, traced against s_0..s_(m(N-1)) of A."""
    width = len(xs[0])
    s = power_sums(A, m * (len(xs) - 1))
    X = [UniPoly([x[p] for x in xs], A.var).terms() for p in range(width)]
    prods = {(): [scalars.ONE]}
    es = [{(0,) * (width - 1): scalars.ONE}]
    sums = []
    for k in range(1, m + 1):
        sk = {}
        for combo in combinations_with_replacement(range(width), k):
            prod = prods[combo] = _old_mul_terms(prods[combo[:-1]], X[combo[-1]])
            tr = None
            for c, sj in zip(prod, s):
                if not (c.is_exact_zero() or sj.is_exact_zero()):
                    tr = scalars.mul(c, sj) if tr is None else scalars.add(tr, scalars.mul(c, sj))
            if tr is None:
                continue
            count = factorial(k)
            for p in set(combo):
                count //= factorial(combo.count(p))
            sk[tuple(combo.count(p) for p in range(1, width))] = tr * count
        sums.append(sk)
        ek = {}
        for i in range(1, k + 1):
            for key, v in _old_form_mul(es[k - i], sums[i - 1]).items():
                v = v if i % 2 == 1 else -v
                got = ek.get(key)
                ek[key] = v if got is None else got + v
        es.append({key: v * rat(1, k) for key, v in ek.items() if not v.is_exact_zero()})
    return es[1:]


def _form_bytes(forms):
    return [sorted((key, v.is_rational, v._num, v._den, v._c) for key, v in f.items())
            for f in forms]


def test_rational_forms_keep_the_bytes_of_the_scalar_hankel_code(monkeypatch):
    # the principal conditions of batch quintics, and the obstruction's
    # forms of a fixed-seed set of rational pairs (p, q)
    calls = []

    def recorded(A, xs, m, read=None):
        calls.append((A, xs, m))
        return image_elementary(A, xs, m, read)

    monkeypatch.setattr(pipeline, "image_elementary", recorded)
    for index in range(6):
        reduce_general_quintic(_batch_quintic(index))
    rng = random.Random(20261017)
    for _ in range(12):
        p = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        pipeline.quartic_obstruction_G(rat(p), rat(rng.randint(-9, 9), rng.randint(1, 5)))
    exact = [c for c in calls
             if c[0].is_rational_tree() and all(v.is_rational for x in c[1] for v in x)]
    assert len([c for c in exact if len(c[1]) == 3]) == 6  # principal, k = 2
    assert len([c for c in exact if len(c[1]) == 4]) == 12  # obstruction, k = 3
    for A, xs, m in exact:
        assert _form_bytes(image_elementary(A, xs, m)) == _form_bytes(
            _old_image_elementary(A, xs, m)), (A, xs, m)


def _carried_step(step, prec):
    """The step's input and table with each complex raw pair carried at
    prec bits: the same inputs to its solve, for a reference."""
    A = UniPoly([_carried_at(c, prec) for c in step.input.coeffs])
    table = _table_of([[_carried_at(c, prec) for c in row] for row in step.powers], A)
    return pipeline.TransformStep(step.kind, A, step.subsidiary, step.output, (), table)


@pytest.mark.parametrize("prec, tol", [(64, "1e-14"), (128, "1e-30"), (256, "1e-30")])
def test_complex_forms_and_inverse_maps_lie_near_one_at_four_times_the_precision(
        prec, tol, monkeypatch):
    # every complex form a reduction reads (the last one asked for) and
    # every complex inverse map of two batch chains lie within 2^(4 - prec)
    # of the largest value of the same routine's output at 4 prec, on the
    # same inputs; on the Scalar kernels, quintic 0 missed that by a factor
    # of 33 to 81 for the forms and 1.7 to 5.1 for the maps
    forms, steps = [], []
    solve = pipeline.step_inverse

    def recorded_forms(A, xs, m, read=None):
        if not (A.is_rational_tree() and all(c.is_rational for x in xs for c in x)):
            forms.append((A, xs, m))
        return image_elementary(A, xs, m, read)

    def recorded_steps(step):
        if step.table.prec is not None:
            steps.append(step)
        return solve(step)

    monkeypatch.setattr(pipeline, "image_elementary", recorded_forms)
    monkeypatch.setattr(pipeline, "step_inverse", recorded_steps)
    for index in (0, 7):
        reduce_general_quintic(_batch_quintic(index), prec=prec, tol=tol)
    assert len(forms) == 4 and len(steps) == 4
    for A, xs, m in forms:
        got = image_elementary(A, xs, m)[-1]
        wide = image_elementary(UniPoly([_carried_at(c, 4 * prec) for c in A.coeffs]),
                                [[_carried_at(c, 4 * prec) for c in x] for x in xs], m)[-1]
        scale = max(v.mag() for v in wide.values())
        worst = max((got.get(k, rat(0)) - wide.get(k, rat(0))).mag() for k in set(got) | set(wide))
        assert worst <= mpmath.ldexp(scale, 4 - prec), (A, xs, m)
    for step in steps:
        U, wide = solve(step), solve(_carried_step(step, 4 * prec))
        scale = max(c.mag() for c in wide.coeffs)
        worst = max((U.coeff(k) - wide.coeff(k)).mag() for k in range(wide.degree + 1))
        assert worst <= mpmath.ldexp(scale, 4 - prec), step.kind


def test_complex_forms_and_inverse_maps_run_on_ints_of_a_bounded_length(monkeypatch):
    # coefficients 10^30000 and 10^-30000 side by side, as in the charpoly
    # test above: the products and traces of the forms and every sum of
    # their Newton identities are held to prec + GUARD_BITS bits of their
    # largest part, and the solve's exact integers to n times that
    seen, solved = [], []
    originals = {name: getattr(polynomials, name)
                 for name in ("gauss_mul_mod", "fixed_sum", "_bareiss")}
    traces = elimination.product_traces

    def parts(*values):
        seen.extend(abs(x).bit_length() for v in values for x in v)

    def mul(*args):
        got = originals["gauss_mul_mod"](*args)
        parts(got[0], got[1])
        return got

    def total(*args):
        got = originals["fixed_sum"](*args)
        parts(got[:2])
        return got

    def traced(*args):
        got = traces(*args)
        parts(*(t[:2] for t in got[0].values()))
        return got

    def bareiss(R, I=None):
        solved.extend(abs(x).bit_length() for rows in (R, I or []) for row in rows for x in row)
        got = originals["_bareiss"](R, I)
        if got is not None:
            solved.extend(abs(x).bit_length() for x in got[0] + got[1] + list(got[2:]))
        return got

    monkeypatch.setattr(polynomials, "gauss_mul_mod", mul)
    monkeypatch.setattr(polynomials, "fixed_sum", total)
    monkeypatch.setattr(elimination, "product_traces", traced)
    monkeypatch.setattr(polynomials, "_bareiss", bareiss)
    big, small = mpmath.mpf("1e30000"), mpmath.mpf("1e-30000")
    A = UniPoly([cx(big, small), cx(small, 1), cx(3, big), cx(small, small), cx(1, -2), rat(1)])
    xs = [(cx(1, 1), rat(1)), (rat(2), cx(small, big)), (cx(small, big), rat(0)),
          (rat(0), rat(1)), (rat(1), rat(0))]
    assert image_elementary(A, xs, 3)[2]
    step = pipeline.TransformStep("test", A, Subsidiary(2, (cx(1, 1), cx(small, big))), A, ())
    assert pipeline.step_inverse(step) is not None
    bits = 256 + scalars.GUARD_BITS
    assert seen and max(seen) <= bits + 8
    assert solved and max(solved) <= A.degree * (bits + 8)
