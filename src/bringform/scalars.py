"""Number tower for the engine: exact rationals and arbitrary-precision complex floats.

A Scalar is immutable and is either an exact rational (``fractions.Fraction``,
lowest terms, positive denominator) or a complex float carried at an explicit
mantissa precision in bits (mpmath).  Ring operations between two rationals
stay rational; any contact with a complex operand promotes the result to
complex at the larger precision in play.  Square and cube roots of rationals
stay rational exactly when the result is rational, and promote otherwise.

Values are immutable, but they are not safe to use from concurrent threads:
complex arithmetic and magnitudes set mpmath's process-wide precision through
``workprec``, so two threads working at different precisions can round each
other's results.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import mpmath
from mpmath import mp, workprec

DEFAULT_PRECISION_BITS = 256
DEFAULT_TOLERANCE = "1e-30"


def _iroot(a: int, n: int) -> int:
    """Floor of the n-th root of a >= 0, by integer Newton iteration."""
    if a < 2:
        return a
    x = 1 << ((a.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def _exact_nth_root(a: int, n: int):
    """Exact n-th root of a >= 0, or None."""
    r = isqrt(a) if n == 2 else _iroot(a, n)
    return r if r ** n == a else None


def mpf_to_fraction(x) -> Fraction:
    """Exact conversion of a finite mpf to a Fraction."""
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise ValueError("cannot convert non-finite value")
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


class Scalar:
    """One number from the tower: exact rational or complex float.

    Use :meth:`rational` / :meth:`complex_` (or the module helpers ``rat``
    and ``cx``) to construct.  Arithmetic accepts int and Fraction operands.
    """

    __slots__ = ("_frac", "_c", "_prec")

    def __init__(self, frac, c, prec):
        self._frac = frac
        self._c = c
        self._prec = prec

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, num, den=1) -> "Scalar":
        return cls(Fraction(num, den), None, None)

    @classmethod
    def complex_(cls, re=0, im=0, prec: int = DEFAULT_PRECISION_BITS) -> "Scalar":
        with workprec(prec):
            c = mpmath.mpc(cls._part_to_mpf(re), cls._part_to_mpf(im))
        return cls(None, c, prec)

    @classmethod
    def from_mpc(cls, c, prec: int) -> "Scalar":
        with workprec(prec):
            c = mpmath.mpc(c)
        return cls(None, c, prec)

    @staticmethod
    def _part_to_mpf(v):
        if isinstance(v, Fraction):
            return mpmath.mpf(v.numerator) / v.denominator
        return mpmath.mpf(v)

    # -- inspection --------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._frac is not None

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("not an exact rational")
        return self._frac

    @property
    def prec(self):
        return self._prec

    def is_exact_zero(self) -> bool:
        if self._frac is not None:
            return self._frac == 0
        return self._c.real == 0 and self._c.imag == 0

    def to_mpc(self, prec=None):
        if self._frac is not None:
            with workprec(prec or DEFAULT_PRECISION_BITS):
                return mpmath.mpc(mpmath.mpf(self._frac.numerator) / self._frac.denominator)
        return self._c

    def re(self):
        return self.to_mpc().real

    def im(self):
        return self.to_mpc().imag

    def mag(self):
        """|self| as an mpf (exact zero for the rational zero)."""
        if self._frac is not None:
            if self._frac == 0:
                return mpmath.mpf(0)
            f = abs(self._frac)
            with workprec(DEFAULT_PRECISION_BITS):
                return mpmath.mpf(f.numerator) / f.denominator
        with workprec(self._prec):
            return abs(self._c)

    def conjugate(self) -> "Scalar":
        if self._frac is not None:
            return self
        with workprec(self._prec):
            c = mpmath.mpc(self._c.real, -self._c.imag)
        return Scalar(None, c, self._prec)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(v):
        if isinstance(v, Scalar):
            return v
        if isinstance(v, (int, Fraction)):
            return Scalar(Fraction(v), None, None)
        return None

    def _binop(self, other, ratop, cop):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._frac is not None and other._frac is not None:
            return Scalar(ratop(self._frac, other._frac), None, None)
        prec = max(self._prec or 0, other._prec or 0) or DEFAULT_PRECISION_BITS
        with workprec(prec):
            c = cop(self.to_mpc(prec), other.to_mpc(prec))
        return Scalar(None, c, prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b, lambda a, b: a - b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b, lambda a, b: a / b)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        if self._frac is not None:
            return Scalar(-self._frac, None, None)
        with workprec(self._prec):
            c = -self._c
        return Scalar(None, c, self._prec)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if self._frac is not None:
            return Scalar(self._frac ** k, None, None)
        with workprec(self._prec):
            return Scalar(None, self._c ** k, self._prec)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._frac is not None and other._frac is not None:
            return self._frac == other._frac
        a, b = self, other
        try:
            fa = a._frac if a._frac is not None else (
                mpf_to_fraction(a._c.real) if a._c.imag == 0 else None)
            fb = b._frac if b._frac is not None else (
                mpf_to_fraction(b._c.real) if b._c.imag == 0 else None)
        except ValueError:
            return False
        if fa is not None and fb is not None:
            return fa == fb
        if a._frac is not None or b._frac is not None:
            return False  # one is real-valued, the other has an imaginary part
        return a._c.real == b._c.real and a._c.imag == b._c.imag

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    __hash__ = None

    # -- roots -------------------------------------------------------------

    def _promote_prec(self, prec):
        return max(self._prec or 0, prec or 0) or DEFAULT_PRECISION_BITS

    def sqrt(self, prec=None) -> "Scalar":
        """Principal square root; stays rational iff the value is a rational square."""
        if self._frac is not None:
            f = self._frac
            if f == 0:
                return Scalar(Fraction(0), None, None)
            if f > 0:
                rn = _exact_nth_root(f.numerator, 2)
                rd = _exact_nth_root(f.denominator, 2)
                if rn is not None and rd is not None:
                    return Scalar(Fraction(rn, rd), None, None)
        p = self._promote_prec(prec)
        with workprec(p):
            return Scalar(None, mpmath.sqrt(self.to_mpc(p)), p)

    def nth_root(self, n: int, prec=None) -> "Scalar":
        """Exact rational n-th root when one exists (the real root for odd n),
        otherwise the principal complex branch exp(log(x)/n)."""
        if n < 2:
            raise ValueError("n must be at least 2")
        if self._frac is not None:
            f = self._frac
            if f == 0:
                return Scalar(Fraction(0), None, None)
            if f > 0 or n % 2 == 1:
                a = abs(f)
                rn = _exact_nth_root(a.numerator, n)
                rd = _exact_nth_root(a.denominator, n)
                if rn is not None and rd is not None:
                    r = Fraction(rn, rd)
                    return Scalar(r if f > 0 else -r, None, None)
        p = self._promote_prec(prec)
        with workprec(p):
            c = self.to_mpc(p)
            if c.real == 0 and c.imag == 0:
                return Scalar(None, mpmath.mpc(0), p)
            r = mpmath.exp(mpmath.log(c) / n)
        return Scalar(None, r, p)

    def cbrt(self, prec=None) -> "Scalar":
        return self.nth_root(3, prec)

    # -- serialization and display ------------------------------------------

    def to_json(self):
        if self._frac is not None:
            return [self._frac.numerator, self._frac.denominator]
        dps = int(self._prec / 3.3219280948873626) + 10
        return [mpmath.nstr(self._c.real, dps), mpmath.nstr(self._c.imag, dps)]

    @classmethod
    def from_json(cls, v, prec: int = DEFAULT_PRECISION_BITS) -> "Scalar":
        if not (isinstance(v, list) and len(v) == 2):
            raise ValueError("scalar JSON must be a two-element list")
        if all(isinstance(t, int) for t in v):
            return cls.rational(v[0], v[1])
        with workprec(prec + 16):
            return cls(None, mpmath.mpc(mpmath.mpf(v[0]), mpmath.mpf(v[1])), prec)

    def __repr__(self):
        if self._frac is not None:
            return "rat(%s)" % self._frac
        return "cx(%s, %s; %d)" % (mpmath.nstr(self._c.real, 12),
                                   mpmath.nstr(self._c.imag, 12), self._prec)

    def __str__(self):
        if self._frac is not None:
            return str(self._frac)
        if self._c.imag == 0:
            return mpmath.nstr(self._c.real, 12)
        return "(%s%s%sj)" % (mpmath.nstr(self._c.real, 12),
                              "+" if self._c.imag >= 0 else "-",
                              mpmath.nstr(abs(self._c.imag), 12))


def rat(num, den=1) -> Scalar:
    return Scalar.rational(num, den)


def cx(re, im=0, prec: int = DEFAULT_PRECISION_BITS) -> Scalar:
    return Scalar.complex_(re, im, prec)


ZERO = rat(0)
ONE = rat(1)


def as_scalar(v) -> Scalar:
    """v as a Scalar (ints and Fractions become exact rationals), by
    ``Scalar._coerce``; TypeError for anything else."""
    s = Scalar._coerce(v)
    if s is None:
        raise TypeError("expected a Scalar-compatible value, got %r" % (v,))
    return s


def as_tol(tol):
    """Normalize a tolerance given as str/float/mpf to an mpf."""
    return mpmath.mpf(tol if tol is not None else DEFAULT_TOLERANCE)


def negligible(x: Scalar, tol, scale=1) -> bool:
    """Zero test: exact for rationals, |x| <= tol*scale for complex floats."""
    if x.is_rational:
        return x.fraction == 0
    return x.mag() <= as_tol(tol) * scale


def sort_key(x: Scalar):
    """Deterministic ordering key: (real part, imaginary part)."""
    c = x.to_mpc()
    return (c.real, c.imag)


def pick_root(roots, tol=None) -> int:
    """Index of the auxiliary root to use: prefer real, then smallest
    magnitude, then smallest real part, then smallest imaginary part.

    Each of the first three preferences keeps every root within tol * s of
    the best value (s = max(1, largest |root|)), so rounding noise, such as
    the +-1e-77 imaginary parts of a cubic's three real roots, never decides
    the choice.
    """
    keys = [(abs(r.im()), r.mag(), r.re()) for r in roots]
    t = as_tol(tol) * max(mpmath.mpf(1), max(k[1] for k in keys))
    keep = range(len(roots))
    for stage in range(3):
        low = min(keys[i][stage] for i in keep)
        # v - low, not v <= low + t: the sum would be rounded to mpmath's
        # global precision and could fall below low itself
        keep = [i for i in keep if keys[i][stage] - low <= t]
    return min(keep, key=lambda i: roots[i].im())
