"""The graded Gaussian-integer Horner and its three callers' arithmetic.

``polynomials.graded_horner`` is checked against mpmath's ``polyval`` at
four times the precision on the exact coefficient and point values, so the
oracle shares no code with it: every value must lie within the routine's
stated bound (n + 1)^2 2^G; without bits it must equal the sum over
Gaussian Fractions exactly.  The root finder's judgment (``roots._evaluate``)
must hand ``_clusters`` a disc bound no smaller than that reference |p(z)|,
and the Newton stages must land within 4 ulps of Newton run to convergence
at four times the precision from the same start.
"""

from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_float

from bringform import Scalar, rat, roots
from bringform.polynomials import graded_horner
from helpers import gauss

PRECS = [64, 128, 256, 1024]


def _complex(draw, prec, lo, hi):
    """A complex Scalar with prec-bit parts of random sign and of sizes
    10^lo..10^hi; one part may be zero."""
    parts = []
    for _ in "ri":
        if draw(st.integers(0, 5)) == 0:
            parts.append(None)
        else:
            m = draw(st.integers(1, 2 ** prec - 1)) * draw(st.sampled_from([1, -1]))
            parts.append((m, draw(st.integers(lo, hi))))
    with mpmath.workprec(prec + 64):
        return Scalar.complex_(*[0 if p is None else mpmath.ldexp(p[0], -prec) * mpmath.mpf(10) ** p[1]
                                 for p in parts], prec=prec)


def _rational(draw, lo, hi):
    num = draw(st.integers(-10 ** 6, 10 ** 6))
    den = draw(st.integers(1, 10 ** 4))
    k = draw(st.integers(lo, hi))
    return rat(Fraction(num, den) * Fraction(10) ** k)


@st.composite
def _case(draw):
    """(coefficients, points, prec): degree 1 to 16, rational and complex
    coefficients over 10^+-60 with exact zeros among them, points over
    10^+-100, rational, complex or exactly 0."""
    prec = draw(st.sampled_from(PRECS))
    n = draw(st.integers(1, 16))
    cs = []
    for _ in range(n + 1):
        kind = draw(st.sampled_from(["zero", "rational", "complex", "complex"]))
        cs.append(rat(0) if kind == "zero" else _rational(draw, -60, 60)
                  if kind == "rational" else _complex(draw, prec, -60, 60))
    zs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zero", "rational", "complex", "complex", "complex"]))
        zs.append(rat(0) if kind == "zero" else _rational(draw, -100, 100)
                  if kind == "rational" else _complex(draw, prec, -100, 100))
    return cs, zs, prec


def _exact(v):
    """A Scalar's value as an mpmath number at the working precision, exact
    for a complex Scalar, whose parts have at most its precision."""
    return mpmath.mpf(v.fraction.numerator) / v.fraction.denominator if v.is_rational \
        else mpmath.mpc(v.to_mpc(v.prec))


def _reference(cs, z, prec):
    """p(z) by mpmath's polyval at 4 prec."""
    with mpmath.workprec(4 * prec):
        return mpmath.polyval([_exact(c) for c in reversed(cs)], _exact(z))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=_case())
def test_graded_horner_lies_within_its_stated_bound(case):
    cs, zs, prec = case
    n = len(cs) - 1
    for z, v in zip(zs, graded_horner(cs, zs, prec, derivative=True, size=True)):
        re, im, d, e = v.p
        assert d == 1
        ref = _reference(cs, z, prec)
        with mpmath.workprec(4 * prec):
            got = mpmath.mpc(mpmath.ldexp(re, e), mpmath.ldexp(im, e))
            assert abs(got - ref) <= (n + 1) ** 2 * mpmath.ldexp(1, e), (cs, z, prec)
            terms = sum(abs(_exact(c)) * abs(_exact(z)) ** j for j, c in enumerate(cs))
            assert terms <= mpmath.ldexp(v.size, e), (cs, z, prec)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(case=_case())
def test_the_judgments_disc_bound_never_falls_below_the_value(case):
    cs, zs, prec = case
    points = [z._raw(prec) for z in zs]
    for z, (bound, _) in zip(points, roots._evaluate(cs, points, prec)):
        with mpmath.workprec(4 * prec):
            ref = abs(_reference(cs, Scalar.from_mpc(mpmath.mp.make_mpc(z), prec), prec))
            assert mpmath.mp.make_mpf(bound) >= ref, (cs, z, prec)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(cs=st.lists(st.fractions(-50, 50, max_denominator=9), min_size=1, max_size=8),
       zs=st.lists(st.fractions(-20, 20, max_denominator=12), min_size=1, max_size=4))
def test_without_bits_the_horner_is_exact_on_rationals(cs, zs):
    for z, v in zip(zs, graded_horner([rat(c) for c in cs], [rat(z) for z in zs], None)):
        re, im, d, e = v.p
        assert im == 0
        assert Fraction(re, d) * Fraction(2) ** e == sum(c * z ** j for j, c in enumerate(cs))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=_case())
def test_without_bits_the_horner_is_exact_on_complex_coefficients(case):
    # mixed rational and complex coefficients at rational, complex and zero
    # points, against the sum over Gaussian Fractions
    cs, zs, _ = case
    for z, v in zip(zs, graded_horner(cs, zs, None)):
        re, im, d, e = v.p
        x, y = gauss(z)
        a, b = Fraction(0), Fraction(0)
        for c in reversed(cs):
            cr, ci = gauss(c)
            a, b = a * x - b * y + cr, a * y + b * x + ci
        assert (Fraction(re, d) * Fraction(2) ** e, Fraction(im, d) * Fraction(2) ** e) == (a, b)
        pa, pb, pd = v.point
        assert (Fraction(pa, pd), Fraction(pb, pd)) == (x, y)


@st.composite
def _planted(draw):
    """(monic coefficients rounded at prec, the start points at 53 bits,
    prec): degree 2 to 8, the roots spread round a circle of radius 10^s,
    s in -100..100, each moved by up to a tenth of their spacing, and the
    start points off them by a relative 1e-14 or so, as the float stage
    leaves them."""
    prec = draw(st.sampled_from(PRECS))
    n = draw(st.integers(2, 8))
    scale = mpmath.mpf(10) ** draw(st.integers(-100, 100))
    with mpmath.workprec(prec + 64):
        rts = []
        for k in range(n):
            turn = (k + draw(st.floats(-0.1, 0.1))) / n
            radius = 1 + draw(st.floats(-0.1, 0.1))
            rts.append(scale * radius * mpmath.expjpi(2 * turn))
        poly = [mpmath.mpc(1)]
        for r in rts:
            poly = [a - r * b for a, b in zip(poly + [0], [0] + poly)]
        cs = [Scalar.from_mpc(c, prec) for c in reversed(poly)]
        starts = []
        for r in rts:
            off = mpmath.mpc(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))) * 1e-14
            w = r * (1 + off)
            starts.append((from_float(float(w.real)), from_float(float(w.imag))))
    return cs, starts, prec


def _newton_reference(cs, z, prec):
    """Newton at 4 prec on the coefficients cs from the raw pair z, to
    convergence."""
    with mpmath.workprec(4 * prec):
        p = [_exact(c) for c in reversed(cs)]
        x = mpmath.mp.make_mpc(z)
        for _ in range(60):
            f, df = mpmath.polyval(p, x, derivative=True)
            step = f / df
            x -= step
            if abs(step) <= abs(x) * mpmath.ldexp(1, -4 * prec):
                break
        return x


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(case=_planted())
def test_the_newton_stages_land_within_four_ulps(case):
    cs, starts, prec = case
    for z, start in zip(roots._newton_stages(starts, cs, prec), starts):
        ref = _newton_reference(cs, start, prec)
        with mpmath.workprec(4 * prec):
            ulp = mpmath.ldexp(1, int(mpmath.ceil(mpmath.log(abs(ref), 2))) - prec)
            assert abs(mpmath.mp.make_mpc(z) - ref) <= 4 * ulp, (cs, start, prec)


def test_a_zero_point_gives_the_constant_and_linear_terms():
    cs = [rat(3, 7), Scalar.complex_(2, -1, 128), rat(0), rat(1)]
    (v,) = graded_horner(cs, [rat(0)], 128, derivative=True, size=True)
    re, im, d, e = v.p
    with mpmath.workprec(512):
        assert abs(mpmath.ldexp(re, e) - mpmath.mpf(3) / 7) <= 16 * mpmath.ldexp(1, e)
        assert im == 0
        dr, di, f = v.dp
        assert mpmath.mpc(mpmath.ldexp(dr, f), mpmath.ldexp(di, f)) == mpmath.mpc(2, -1)
