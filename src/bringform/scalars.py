"""Number tower for the engine: exact rationals and arbitrary-precision complex floats.

A Scalar is immutable and is either an exact rational (``fractions.Fraction``,
lowest terms, positive denominator) or a complex float carried at an explicit
mantissa precision in bits (mpmath).  Ring operations between two rationals
stay rational; any contact with a complex operand promotes the result to
complex at the larger precision in play.  Square and cube roots of rationals
stay rational exactly when the result is rational, and promote otherwise.

A complex Scalar holds the raw libmp pair (re, im) of its parts, not an
mpmath object; ``to_mpc``, ``mag``, ``re``, ``im``, ``to_json`` and the
display methods build mpmath objects only when called.  Values handed out
are default-context mpf/mpc objects carrying their full mantissa;
arithmetic on them runs at mpmath's default precision.

Precision travels with each value.  Every complex operation rounds to
nearest at a precision given to it, never at a global one: ring operations,
powers, magnitudes and square roots call mpmath's ``libmp`` functions with
the Scalar's precision (the larger operand's for a binary operation), and
the rest use an mpmath context fixed at the precision it needs
(``context``).  Complex + - * go through fused kernels on the raw pairs
(``cadd``, ``csub``, ``cmul``), which ``roots.find_roots`` uses too: each
part's exact integer sum is rounded once with libmp's ``normalize``, and
where the terms lie more than ``_WINDOW`` bits apart, or a part is an
infinity or nan, the generic ``mpc_add``/``mpc_sub``/``mpc_mul`` call
runs instead.  Both give the same bits.  A rational rounded to an mpf
(``_rat_mpf``) and a parsed tolerance string (``as_tol``) are memoized, in
bounded caches of immutable values.  Nothing in the package changes
mpmath's global precision, so Scalars are safe to share between threads.

A binary operation of a complex operand z with a rational one (a Scalar,
an int or a Fraction) takes shortcuts: z + 0 and z * 1 round z, 0 - z and
z * -1 negate it, z * 0 is the complex zero (for a finite z), and any other
rational enters as one real mpf (``mpc_mul_mpf``, or one ``mpf_add`` or
``mpf_sub`` on the real part).  The rule for every shortcut is that it
returns exactly what the generic call ``cop(z, (rational rounded to prec,
0), prec)`` returns: the same kind, precision and bits.  So z * 1 is not
z: it is z rounded to prec, which differs when z carries more bits than its
precision (``from_json`` reads at prec + 16 bits).
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from math import isqrt

import mpmath
from mpmath import mp
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (from_int, from_man_exp, fzero, mpc_abs, mpc_add,
                          mpc_conjugate, mpc_div, mpc_mul, mpc_mul_mpf,
                          mpc_neg, mpc_pos, mpc_pow_int, mpc_sqrt, mpc_sub,
                          mpf_add, mpf_div, mpf_eq, mpf_neg, mpf_pos, mpf_sub,
                          normalize, round_nearest)

DEFAULT_PRECISION_BITS = 256
DEFAULT_TOLERANCE = "1e-30"


@functools.cache
def context(prec: int) -> MPContext:
    """The mpmath context at prec bits, made once per precision and never changed."""
    ctx = MPContext()
    ctx.prec = prec
    return ctx


@functools.lru_cache(maxsize=4096)
def _rat_mpf(f, prec: int):
    """f (an int or Fraction) rounded to prec bits as a raw mpf, as
    mpf(numerator) / denominator; an integer needs no division.  Memoized:
    the same rationals meet complex values again and again."""
    if f.denominator == 1:
        return from_int(f.numerator, prec, round_nearest)
    return mpf_div(from_int(f.numerator, prec, round_nearest), from_int(f.denominator),
                   prec, round_nearest)


_CZERO = (fzero, fzero)


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


def _finite(z) -> bool:
    """Both parts of the raw pair z are finite (an mpf with a zero
    mantissa and a nonzero exponent is an infinity or nan)."""
    a, b = z
    return (a[1] or not a[2]) and (b[1] or not b[2])


# Complex OP complex.  libmp's mpc_add, mpc_sub and mpc_mul round each part
# of the result once from an exact sum of two terms (two parts, or two exact
# products of parts), shifting one term onto the other unless their
# exponents lie more than 100 bits apart: there mpf_add may add a sticky bit
# instead, which rounds the same and keeps the integers small.  The fused
# kernels form each part's exact sum as one integer and round it once with
# ``normalize``; past that window, or when a part is an infinity or nan,
# they make the generic call.  Either way they return its raw pair, bit for
# bit.

_WINDOW = 100


def _fuse(m1, e1, m2, e2, m3, e3, m4, e4, prec):
    """(m1 2^e1 + m2 2^e2, m3 2^e3 + m4 2^e4), signed integer mantissas,
    each exact sum rounded once at prec as mpf_add rounds it; None when a
    sum's terms lie past the window."""
    if m2:
        if m1:
            d = e1 - e2
            if d > 0:
                if d > _WINDOW:
                    return None
                m1, e1 = (m1 << d) + m2, e2
            elif d:
                if d < -_WINDOW:
                    return None
                m1 += m2 << -d
            else:
                m1 += m2
        else:
            m1, e1 = m2, e2
    if m4:
        if m3:
            d = e3 - e4
            if d > 0:
                if d > _WINDOW:
                    return None
                m3, e3 = (m3 << d) + m4, e4
            elif d:
                if d < -_WINDOW:
                    return None
                m3 += m4 << -d
            else:
                m3 += m4
        else:
            m3, e3 = m4, e4
    if m1 > 0:
        re = normalize(0, m1, e1, m1.bit_length(), prec, round_nearest)
    elif m1:
        m1 = -m1
        re = normalize(1, m1, e1, m1.bit_length(), prec, round_nearest)
    else:
        re = fzero
    if m3 > 0:
        return re, normalize(0, m3, e3, m3.bit_length(), prec, round_nearest)
    if m3:
        m3 = -m3
        return re, normalize(1, m3, e3, m3.bit_length(), prec, round_nearest)
    return re, fzero


def cadd(z, w, prec):
    """The raw pair of mpc_add(z, w, prec, round_nearest)."""
    (a, b), (c, d) = z, w
    sa, ma, ea, _ = a
    sb, mb, eb, _ = b
    sc, mc, ec, _ = c
    sd, md, ed, _ = d
    if (ma or not ea) and (mb or not eb) and (mc or not ec) and (md or not ed):
        got = _fuse(-ma if sa else ma, ea, -mc if sc else mc, ec,
                    -mb if sb else mb, eb, -md if sd else md, ed, prec)
        if got is not None:
            return got
    return mpc_add(z, w, prec, round_nearest)


def csub(z, w, prec):
    """The raw pair of mpc_sub(z, w, prec, round_nearest)."""
    (a, b), (c, d) = z, w
    sa, ma, ea, _ = a
    sb, mb, eb, _ = b
    sc, mc, ec, _ = c
    sd, md, ed, _ = d
    if (ma or not ea) and (mb or not eb) and (mc or not ec) and (md or not ed):
        got = _fuse(-ma if sa else ma, ea, mc if sc else -mc, ec,
                    -mb if sb else mb, eb, md if sd else -md, ed, prec)
        if got is not None:
            return got
    return mpc_sub(z, w, prec, round_nearest)


def cmul(z, w, prec):
    """The raw pair of mpc_mul(z, w, prec, round_nearest): (ac - bd) and
    (ad + bc), each from its exact products."""
    (a, b), (c, d) = z, w
    sa, ma, ea, _ = a
    sb, mb, eb, _ = b
    sc, mc, ec, _ = c
    sd, md, ed, _ = d
    if (ma or not ea) and (mb or not eb) and (mc or not ec) and (md or not ed):
        if sa:
            ma = -ma
        if sb:
            mb = -mb
        if sc:
            mc = -mc
        if sd:
            md = -md
        got = _fuse(ma * mc, ea + ec, -mb * md, eb + ed, ma * md, ea + ed, mb * mc, eb + ec, prec)
        if got is not None:
            return got
    return mpc_mul(z, w, prec, round_nearest)


def _cdiv(z, w, prec):
    return mpc_div(z, w, prec, round_nearest)


# Complex OP rational, for g an int or Fraction and z a raw pair at prec.
# lhs tells whether g is the left operand; libmp's addition and product
# give the same bits in either order, so only - and / read it.  Each returns
# exactly the raw pair of the generic cop(z, (_rat_mpf(g, prec), fzero),
# prec) (operands in their order): every shortcut rounds to prec, as the
# generic call does, so a value carrying more bits than prec (from
# ``Scalar.from_json``) times 1 is rounded, not returned as it is.

def _add_rat(z, g, prec, lhs):
    if not g:
        return mpc_pos(z, prec, round_nearest)
    a, b = z
    return mpf_add(a, _rat_mpf(g, prec), prec, round_nearest), mpf_pos(b, prec, round_nearest)


def _sub_rat(z, g, prec, lhs):
    if not g:
        return (mpc_neg if lhs else mpc_pos)(z, prec, round_nearest)
    a, b = z
    r = _rat_mpf(g, prec)
    if lhs:  # g - z
        return mpf_sub(r, a, prec, round_nearest), mpf_neg(b, prec, round_nearest)
    return mpf_sub(a, r, prec, round_nearest), mpf_pos(b, prec, round_nearest)


def _mul_rat(z, g, prec, lhs):
    # the generic product meets a non-finite part with an exact zero (nan)
    if not _finite(z):
        return mpc_mul(z, (_rat_mpf(g, prec), fzero), prec, round_nearest)
    if not g:
        return _CZERO
    if g == 1:
        return mpc_pos(z, prec, round_nearest)
    if g == -1:
        return mpc_neg(z, prec, round_nearest)
    return mpc_mul_mpf(z, _rat_mpf(g, prec), prec, round_nearest)


def _div_rat(z, g, prec, lhs):
    r = (_rat_mpf(g, prec), fzero)
    return mpc_div(r, z, prec, round_nearest) if lhs else mpc_div(z, r, prec, round_nearest)


class Scalar:
    """One number from the tower: exact rational or complex float.

    A rational keeps its ``Fraction`` in ``_frac`` (``_c`` and ``_prec``
    are None); a complex value keeps the raw libmp pair (re, im) of its
    rounded parts in ``_c`` and its precision in ``_prec`` (``_frac`` is
    None).  mpmath objects are built only when asked for.

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

        return cls(None, ctx.mpc(part(re), part(im))._mpc_, prec)

    @classmethod
    def from_mpc(cls, c, prec: int) -> "Scalar":
        """c (an mpc or mpf of any context, or a real number) rounded to prec."""
        return cls(None, context(prec).mpc(c)._mpc_, prec)

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
        return self._c == _CZERO

    def to_mpc(self, prec=None):
        return mp.make_mpc(self._raw(prec or DEFAULT_PRECISION_BITS))

    def _raw(self, prec):
        """The libmp pair of the value; a rational is rounded to prec."""
        if self._frac is not None:
            return _rat_mpf(self._frac, prec), fzero
        return self._c

    def re(self):
        return mp.make_mpf(self._raw(DEFAULT_PRECISION_BITS)[0])

    def im(self):
        return mp.make_mpf(self._raw(DEFAULT_PRECISION_BITS)[1])

    def mag(self):
        """|self| as an mpf (exact zero for the rational zero)."""
        if self._frac is not None:
            return mp.make_mpf(_rat_mpf(abs(self._frac), DEFAULT_PRECISION_BITS))
        return mp.make_mpf(mpc_abs(self._c, self._prec, round_nearest))

    def conjugate(self) -> "Scalar":
        if self._frac is not None:
            return self
        return Scalar(None, mpc_conjugate(self._c, self._prec, round_nearest), self._prec)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(v):
        if isinstance(v, Scalar):
            return v
        if isinstance(v, (int, Fraction)):
            return Scalar(Fraction(v), None, None)
        return None

    def _binop(self, other, ratop, cop, ratcop, lhs=False):
        """self OP other (other OP self when lhs): ratop on two rationals,
        ratcop when one operand is rational, otherwise the complex kernel
        cop at the larger precision in play."""
        if isinstance(other, Scalar):
            g = other._frac
        elif isinstance(other, (int, Fraction)):
            g = other
        else:
            return NotImplemented
        f = self._frac
        if f is not None and g is not None:
            return Scalar(ratop(g, f) if lhs else ratop(f, g), None, None)
        if g is not None:
            prec = self._prec
            return Scalar(None, ratcop(self._c, g, prec, lhs), prec)
        prec = other._prec
        if f is not None:
            return Scalar(None, ratcop(other._c, f, prec, not lhs), prec)
        if self._prec > prec:
            prec = self._prec
        z, w = (other._c, self._c) if lhs else (self._c, other._c)
        return Scalar(None, cop(z, w, prec), prec)

    def __add__(self, other):
        return self._binop(other, operator.add, cadd, _add_rat)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, operator.sub, csub, _sub_rat)

    def __rsub__(self, other):
        return self._binop(other, operator.sub, csub, _sub_rat, True)

    def __mul__(self, other):
        return self._binop(other, operator.mul, cmul, _mul_rat)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, operator.truediv, _cdiv, _div_rat)

    def __rtruediv__(self, other):
        return self._binop(other, operator.truediv, _cdiv, _div_rat, True)

    def __neg__(self):
        if self._frac is not None:
            return Scalar(-self._frac, None, None)
        return Scalar(None, mpc_neg(self._c, self._prec, round_nearest), self._prec)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if self._frac is not None:
            return Scalar(self._frac ** k, None, None)
        return Scalar(None, mpc_pow_int(self._c, k, self._prec, round_nearest), self._prec)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        f, g = self._frac, other._frac
        if f is not None and g is not None:
            return f == g
        z = self._c if f is None else other._c
        if not _finite(z):
            return False
        if f is None and g is None:
            return mpf_eq(z[0], other._c[0]) and mpf_eq(z[1], other._c[1])
        # a complex value equals a rational only when it is real and the
        # rational is a dyadic num / 2^k, compared as the mpf num * 2^-k
        # without building 2^exp
        r = g if f is None else f
        den = r.denominator
        return (z[1] == fzero and not den & (den - 1)
                and mpf_eq(z[0], from_man_exp(r.numerator, 1 - den.bit_length())))

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
        return Scalar(None, mpc_sqrt(self._raw(p), p, round_nearest), p)

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
            return Scalar(None, _CZERO, p)
        ctx = context(p)
        return Scalar(None, ctx.exp(ctx.ln(ctx.make_mpc(self._raw(p))) / n)._mpc_, p)

    def cbrt(self, prec=None) -> "Scalar":
        return self.nth_root(3, prec)

    # -- serialization and display ------------------------------------------

    def to_json(self):
        if self._frac is not None:
            return [self._frac.numerator, self._frac.denominator]
        dps = int(self._prec / 3.3219280948873626) + 10
        c = self.to_mpc()
        return [mpmath.nstr(c.real, dps), mpmath.nstr(c.imag, dps)]

    @classmethod
    def from_json(cls, v, prec: int = None) -> "Scalar":
        """Inverse of ``to_json``; a complex value is read at prec + 16 bits
        and carried at prec (default ``DEFAULT_PRECISION_BITS``).
        ValueError for a part that is an infinity or nan."""
        if not (isinstance(v, list) and len(v) == 2):
            raise ValueError("scalar JSON must be a two-element list")
        if all(isinstance(t, int) for t in v):
            return cls.rational(v[0], v[1])
        prec = prec or DEFAULT_PRECISION_BITS
        z = context(prec + 16).mpc(v[0], v[1])._mpc_
        if not _finite(z):
            raise ValueError("scalar JSON must be finite, got %r" % (v,))
        return cls(None, z, prec)

    def __repr__(self):
        if self._frac is not None:
            return "rat(%s)" % self._frac
        c = self.to_mpc()
        return "cx(%s, %s; %d)" % (mpmath.nstr(c.real, 12), mpmath.nstr(c.imag, 12),
                                   self._prec)

    def __str__(self):
        if self._frac is not None:
            return str(self._frac)
        c = self.to_mpc()
        if c.imag == 0:
            return mpmath.nstr(c.real, 12)
        return "(%s%s%sj)" % (mpmath.nstr(c.real, 12), "+" if c.imag >= 0 else "-",
                              mpmath.nstr(abs(c.imag), 12))


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


@functools.lru_cache(maxsize=64)
def _parse_tol(text, prec):
    return mpmath.mpf(text)


def as_tol(tol):
    """Normalize a tolerance given as str/float/mpf to an mpf (rounded at
    mpmath's global precision); a string, the default "1e-30" included, is
    parsed once per precision."""
    if tol is None:
        tol = DEFAULT_TOLERANCE
    if isinstance(tol, str):
        return _parse_tol(tol, mp.prec)
    return mpmath.mpf(tol)


def negligible(x: Scalar, tol, scale=1) -> bool:
    """The one zero test: exact for rationals, |x| <= tol*scale for complex
    floats, so a nan is never negligible."""
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
