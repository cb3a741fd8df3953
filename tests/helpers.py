"""Shared generators for the seeded-random test suites."""

from fractions import Fraction

import mpmath
from mpmath.libmp import to_rational

from bringform import UniPoly, rat


def rand_fraction(rng, lo=-10, hi=10, max_den=6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_scalar(rng, lo=-10, hi=10, max_den=6):
    f = rand_fraction(rng, lo, hi, max_den)
    return rat(f.numerator, f.denominator)


def rand_monic(rng, deg, lo=-10, hi=10, max_den=6, var="z") -> UniPoly:
    cs = [rand_scalar(rng, lo, hi, max_den) for _ in range(deg)]
    cs.append(rat(1))
    return UniPoly(cs, var)


def rand_int_monic(rng, deg, lo=-10, hi=10, var="z") -> UniPoly:
    cs = [rat(rng.randint(lo, hi)) for _ in range(deg)]
    cs.append(rat(1))
    return UniPoly(cs, var)


def max_coeff_diff(P: UniPoly, Q: UniPoly):
    """Largest |p_i - q_i| over the union of coefficient positions."""
    n = max(P.degree, Q.degree)
    worst = mpmath.mpf(0)
    for k in range(n + 1):
        d = (P.coeff(k) - Q.coeff(k)).mag()
        if d > worst:
            worst = d
    return worst


def exact(x) -> Fraction:
    """The finite mpf x as the Fraction it is."""
    return Fraction(*to_rational(x._mpf_))


def gauss(v):
    """The Scalar v as the pair of Fractions it holds, exactly; None for an
    infinity or nan."""
    if v.is_rational:
        return v.fraction, Fraction(0)
    c = v.to_mpc()
    return (exact(c.real), exact(c.imag)) if mpmath.isfinite(c) else None


def reference_residual(A: UniPoly, z):
    """(r2, ref): the relative residual |A(z)| / (s max(1, |z|)^n) of the
    Scalar z on A squared, as the Fraction it is on the values A and z
    hold, s = max(1, |c_j|) with each |c_j| rounded as ``Scalar.mag``
    rounds it; and ref, its square root by mpmath at 8 prec, prec being
    z's precision (256 for a rational z), within a relative 2^(2 - 8 prec)
    of the exact value.  (None, nan) for an infinity or nan.  An oracle
    that shares no code with ``bringform.polynomials``."""
    w, cs = gauss(z), [gauss(c) for c in A.coeffs]
    if w is None or None in cs:
        return None, mpmath.nan
    s = mpmath.mpf(1)
    for c in A.coeffs:
        with mpmath.workprec(c.prec or 256):
            f = c.fraction if c.is_rational else None
            s = max(s, abs(c.to_mpc() if f is None else mpmath.mpf(f.numerator) / f.denominator))
    (x, y), a, b = w, Fraction(0), Fraction(0)
    for cr, ci in reversed(cs):
        a, b = a * x - b * y + cr, a * y + b * x + ci
    r2 = (a * a + b * b) / (exact(s) ** 2 * max(1, x * x + y * y) ** max(A.degree, 0))
    with mpmath.workprec(8 * (z.prec or 256)):
        return r2, mpmath.sqrt(mpmath.mpf(r2.numerator) / r2.denominator)
