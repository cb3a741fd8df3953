"""Number tower for the engine: exact rationals and arbitrary-precision complex floats.

A Scalar is immutable and is either an exact rational (``fractions.Fraction``,
lowest terms, positive denominator) or a complex float carried at an explicit
mantissa precision in bits (mpmath).  Ring operations between two rationals
stay rational; any contact with a complex operand promotes the result to
complex at the larger precision in play.  Square and cube roots of rationals
stay rational exactly when the result is rational, and promote otherwise.

Precision travels with each value.  Every complex operation rounds to
nearest at a precision given to it, never at a global one: ring operations,
powers, magnitudes and square roots call mpmath's ``libmp`` functions with
the Scalar's precision (the larger operand's for a binary operation), and
the rest use an mpmath context fixed at the precision it needs
(``context``).  Nothing in the package changes mpmath's global precision,
so Scalars are safe to share between threads.  Values handed out
(``to_mpc``, ``mag``, ``re``, ``im``) are default-context mpf/mpc objects
carrying their full mantissa; arithmetic on them runs at mpmath's default
precision.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import isqrt

import mpmath
from mpmath import mp
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (from_int, fzero, mpc_abs, mpc_add, mpc_conjugate,
                          mpc_div, mpc_mul, mpc_neg, mpc_pow_int, mpc_sqrt,
                          mpc_sub, mpf_div, round_nearest)

DEFAULT_PRECISION_BITS = 256
DEFAULT_TOLERANCE = "1e-30"


@functools.cache
def context(prec: int) -> MPContext:
    """The mpmath context at prec bits, made once per precision and never changed."""
    ctx = MPContext()
    ctx.prec = prec
    return ctx


def _rat_mpf(f: Fraction, prec: int):
    """f rounded to prec bits as a raw mpf, as mpf(numerator) / denominator."""
    return mpf_div(from_int(f.numerator, prec, round_nearest), from_int(f.denominator),
                   prec, round_nearest)


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
        ctx = context(prec)

        def part(v):
            if isinstance(v, Fraction):
                return ctx.make_mpf(_rat_mpf(v, prec))
            return ctx.mpf(v)

        return cls._complex(ctx.mpc(part(re), part(im))._mpc_, prec)

    @classmethod
    def from_mpc(cls, c, prec: int) -> "Scalar":
        """c (an mpc or mpf of any context, or a real number) rounded to prec."""
        return cls._complex(context(prec).mpc(c)._mpc_, prec)

    @classmethod
    def _complex(cls, raw, prec) -> "Scalar":
        """The complex Scalar of a raw libmp pair, kept as it is."""
        return cls(None, mp.make_mpc(raw), prec)

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
            return mp.make_mpc(self._raw(prec or DEFAULT_PRECISION_BITS))
        return self._c

    def _raw(self, prec):
        """The libmp pair of the value; a rational is rounded to prec."""
        if self._frac is not None:
            return _rat_mpf(self._frac, prec), fzero
        return self._c._mpc_

    def re(self):
        return self.to_mpc().real

    def im(self):
        return self.to_mpc().imag

    def mag(self):
        """|self| as an mpf (exact zero for the rational zero)."""
        if self._frac is not None:
            return mp.make_mpf(_rat_mpf(abs(self._frac), DEFAULT_PRECISION_BITS))
        return mp.make_mpf(mpc_abs(self._c._mpc_, self._prec, round_nearest))

    def conjugate(self) -> "Scalar":
        if self._frac is not None:
            return self
        return Scalar._complex(mpc_conjugate(self._c._mpc_, self._prec, round_nearest),
                               self._prec)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(v):
        if isinstance(v, Scalar):
            return v
        if isinstance(v, (int, Fraction)):
            return Scalar(Fraction(v), None, None)
        return None

    def _binop(self, other, ratop, cop):
        """ratop on two rationals; otherwise the libmp function cop at the
        larger precision in play."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._frac is not None and other._frac is not None:
            return Scalar(ratop(self._frac, other._frac), None, None)
        prec = max(self._prec or 0, other._prec or 0)
        return Scalar._complex(cop(self._raw(prec), other._raw(prec), prec, round_nearest),
                               prec)

    def __add__(self, other):
        return self._binop(other, operator.add, mpc_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, operator.sub, mpc_sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        return self._binop(other, operator.mul, mpc_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, operator.truediv, mpc_div)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def __neg__(self):
        if self._frac is not None:
            return Scalar(-self._frac, None, None)
        return Scalar._complex(mpc_neg(self._c._mpc_, self._prec, round_nearest), self._prec)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if self._frac is not None:
            return Scalar(self._frac ** k, None, None)
        return Scalar._complex(mpc_pow_int(self._c._mpc_, k, self._prec, round_nearest),
                               self._prec)

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

    __hash__ = None

    # -- roots -------------------------------------------------------------

    def _promote_prec(self, prec):
        return max(self._prec or 0, prec or 0) or DEFAULT_PRECISION_BITS

    def _exact_root(self, n: int):
        """The rational n-th root (the real one for odd n), or None."""
        f = self._frac
        if f is None or (f < 0 and n % 2 == 0):
            return None
        rn = _exact_nth_root(abs(f.numerator), n)
        rd = _exact_nth_root(f.denominator, n)
        if rn is None or rd is None:
            return None
        return Scalar(Fraction(rn if f >= 0 else -rn, rd), None, None)

    def sqrt(self, prec=None) -> "Scalar":
        """Principal square root; stays rational iff the value is a rational square."""
        r = self._exact_root(2)
        if r is not None:
            return r
        p = self._promote_prec(prec)
        return Scalar._complex(mpc_sqrt(self._raw(p), p, round_nearest), p)

    def nth_root(self, n: int, prec=None) -> "Scalar":
        """Exact rational n-th root when one exists (the real root for odd n),
        otherwise the principal complex branch exp(log(x)/n)."""
        if n < 2:
            raise ValueError("n must be at least 2")
        r = self._exact_root(n)
        if r is not None:
            return r
        p = self._promote_prec(prec)
        if self.is_exact_zero():
            return Scalar._complex((fzero, fzero), p)
        ctx = context(p)
        return Scalar._complex(ctx.exp(ctx.ln(ctx.make_mpc(self._raw(p))) / n)._mpc_, p)

    def cbrt(self, prec=None) -> "Scalar":
        return self.nth_root(3, prec)

    # -- serialization and display ------------------------------------------

    def to_json(self):
        if self._frac is not None:
            return [self._frac.numerator, self._frac.denominator]
        dps = int(self._prec / 3.3219280948873626) + 10
        return [mpmath.nstr(self._c.real, dps), mpmath.nstr(self._c.imag, dps)]

    @classmethod
    def from_json(cls, v, prec: int = None) -> "Scalar":
        """Inverse of ``to_json``; a complex value is read at prec + 16 bits
        and carried at prec (default ``DEFAULT_PRECISION_BITS``)."""
        if not (isinstance(v, list) and len(v) == 2):
            raise ValueError("scalar JSON must be a two-element list")
        if all(isinstance(t, int) for t in v):
            return cls.rational(v[0], v[1])
        prec = prec or DEFAULT_PRECISION_BITS
        return cls._complex(context(prec + 16).mpc(v[0], v[1])._mpc_, prec)

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
