"""Number tower for the engine: exact rationals and arbitrary-precision complex floats.

A Scalar is immutable and is either an exact rational, held as two Python
ints (a numerator and a positive denominator coprime to it), or a complex
float carried at an explicit mantissa precision in bits (mpmath).  Ring
operations between two rationals stay rational: + - * / and ``**`` run on
the ints, each result in lowest terms (``_q``; a power of a coprime pair
needs no gcd), so every value equals what ``Fraction`` arithmetic gives,
and no ``Fraction`` is built unless ``Scalar.fraction`` asks for one.
Any contact with a complex operand promotes the result to complex at the
larger precision in play.  Square and cube roots of rationals stay
rational exactly when the result is rational, and promote otherwise.

A complex Scalar holds the raw libmp pair (re, im) of its parts, not an
mpmath object; ``to_mpc``, ``mag``, ``re``, ``im``, ``to_json`` and the
display methods build mpmath objects only when called.  Values handed out
are default-context mpf/mpc objects carrying their full mantissa;
arithmetic on them runs at mpmath's default precision.

Precision travels with each value.  Every complex operation rounds to
nearest at a precision given to it, never at a global one: ring operations,
powers and square roots call mpmath's ``libmp`` functions with the
Scalar's precision, and the rest use an mpmath context fixed at the
precision it needs (``context``).  Nothing in the package changes or reads
mpmath's global precision, so Scalars are safe to share between threads.

One kernel owns |z|: ``hypot`` gives the bits of libmp's ``mpc_abs`` from
one ``math.isqrt``, where libmp takes the square root by a Newton loop in
Python.  ``Scalar.mag`` and every magnitude of ``roots.find_roots`` (the
start circle's moduli, the sweeps, the polish and the cluster distances)
call it, and only it calls libmp's square-root magnitudes.

Arithmetic has one path.  The operators + - * / only turn an int or
Fraction operand into an exact rational (``_operand``) and call one module
kernel, ``add``, ``sub``, ``mul`` or ``div``; ``UniPoly``'s product and
Horner call ``add(acc, mul(x, y))`` by name.  One rule, with two cases,
holds for all four:

* Two rationals give the exact rational: each kernel forms the unreduced
  numerator and denominator, and one normalizer, ``_q``, reduces them.
* Otherwise the result is complex, rounded at the larger precision in
  play; a rational operand enters as its value rounded at the complex
  precision (``_rat_mpf``, in ``_lift``).  No operand is passed through
  unrounded: a value ``from_json`` read at prec + 16 bits comes back from
  z * 1 or z + 0 rounded to prec.

Complex + - * run the fused kernels on the raw pairs (``cadd``, ``csub``,
``cmul``), which the Aberth sweeps and the cluster polish of
``roots.find_roots`` use too: each part's sum is formed as one integer,
as mpf_add forms it, and rounded once with libmp's ``normalize``; where a
part is an infinity or nan, the generic
``mpc_add``/``mpc_sub``/``mpc_mul`` call runs instead.  Both give the same
bits.  Complex / calls libmp's ``mpc_div``.

Integer views read the raw pairs for the integer routes elsewhere:
``int_vector`` for rationals over one denominator, and ``fixed_point`` for
a vector of Gaussian integers times one power of two, which
``polynomials.gauss_mul_mod`` cuts to a fixed number of bits and
``polynomials.graded_horner`` places on its grid;
``graded_monic`` reads back a charpoly of such integers, split into real
and imaginary parts, and
``from_ratio`` any other value of them over an int, exactly for a rational
and otherwise with each part rounded once (every exit of the ring of
``polynomials``, the forms of ``elimination.image_elementary`` and the
inverse map of ``pipeline.step_inverse``); ``equals_ratio`` asks whether a
rational is such a value, cross-multiplied, with no exit taken (the exact
cross-check of the two routes, ``polynomials.matches_traces``).

A rational rounded to an mpf (``_rat_mpf``, keyed by numerator,
denominator and precision) and a parsed tolerance string (``as_tol``) are
memoized, in bounded caches of immutable values.

Two rules decide what counts as zero.  Noise: a degree drops only leading
coefficients below ``noise_tol(prec)`` = 2^(24 - prec) times the scale
(``UniPoly.effective_degree``).  Acceptance: a rational passes only when
zero, any other value when finite and |x| <= t = tol * scale, rounded at
``TOL_PREC`` bits (``as_tol``).  One comparison, ``within``, decides |x|^2
<= t^2 exactly on ints: for ``negligible`` and the routes' cross-check
(``polynomials.coeff_mismatch``) on the exact difference of two values
(``close``), for the root test and the certificate's C(T) on their own.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, isqrt, lcm

import mpmath
from mpmath import mp
from mpmath.ctx_mp import MPContext
from mpmath.libmp import (from_float, from_int, from_man_exp, fzero, mpc_abs, mpc_add,
                          mpc_conjugate, mpc_div, mpc_mul, mpc_neg, mpc_pow_int,
                          mpc_sqrt, mpc_sub, mpf_abs, mpf_div, mpf_eq,
                          mpf_le, mpf_mul, mpf_pos, mpf_sub, normalize, round_nearest)

DEFAULT_PRECISION_BITS = 256
DEFAULT_TOLERANCE = "1e-30"
TOL_PREC = 53  # mpmath's default


@functools.cache
def context(prec: int) -> MPContext:
    """The mpmath context at prec bits, made once per precision and never changed."""
    ctx = MPContext()
    ctx.prec = prec
    return ctx


@functools.lru_cache(maxsize=4096)
def _rat_mpf(n: int, d: int, prec: int):
    """n / d rounded to prec bits as a raw mpf, as mpf(n) / d; an integer
    needs no division.  Memoized: the same rationals meet complex values
    again and again."""
    if d == 1:
        return from_int(n, prec, round_nearest)
    return mpf_div(from_int(n, prec, round_nearest), from_int(d), prec, round_nearest)


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
# of the result once from a sum of two terms (two parts, or two exact
# products of parts), which mpf_add forms exactly unless the terms lie more
# than _WINDOW = 100 bits apart (``_far``).  The fused kernels form each
# part's sum as one integer by the same rule and round it once with
# ``normalize``; when a part is an infinity or nan, they make the generic
# call.  Either way they return its raw pair, bit for bit.

_WINDOW = 100


def _far(m1, e1, m2, e2, prec):
    """The unrounded m1 2^e1 + m2 2^e2 (signed integer mantissas, e1 - e2 >
    _WINDOW) as mpf_add forms it: m1 shifted by prec + 4 plus a sticky +-1
    in place of m2 when the leading bits lie more than prec + 4 apart, the
    exact sum otherwise."""
    k = prec + 4
    if m1.bit_length() - m2.bit_length() + e1 - e2 > k:
        return (m1 << k) + (1 if m2 > 0 else -1), e1 - k
    return (m1 << (e1 - e2)) + m2, e2


def _fuse(m1, e1, m2, e2, m3, e3, m4, e4, prec):
    """(m1 2^e1 + m2 2^e2, m3 2^e3 + m4 2^e4), signed integer mantissas,
    each sum rounded once at prec as mpf_add rounds it."""
    if m2:
        if m1:
            d = e1 - e2
            if d > _WINDOW:
                m1, e1 = _far(m1, e1, m2, e2, prec)
            elif d > 0:
                m1, e1 = (m1 << d) + m2, e2
            elif d < -_WINDOW:
                m1, e1 = _far(m2, e2, m1, e1, prec)
            else:
                m1 += m2 << -d
        else:
            m1, e1 = m2, e2
    if m4:
        if m3:
            d = e3 - e4
            if d > _WINDOW:
                m3, e3 = _far(m3, e3, m4, e4, prec)
            elif d > 0:
                m3, e3 = (m3 << d) + m4, e4
            elif d < -_WINDOW:
                m3, e3 = _far(m4, e4, m3, e3, prec)
            else:
                m3 += m4 << -d
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


def hypot(z, prec, rnd=round_nearest):
    """|z| for the raw pair z as a raw mpf rounded at prec by rnd: the bits
    of libmp's ``mpc_abs``, the package's one |z|.  As ``mpf_hypot`` forms
    it, a zero part leaves the other rounded at prec, and otherwise x^2 +
    y^2 is summed as mpf_add sums it (``_far`` past ``_WINDOW``) and
    rounded down at prec + 4 bits; its square root, to at least prec + 2
    bits by ``math.isqrt`` with a sticky bit for the remainder (none when
    rounding down or to floor), is rounded once at prec.  An infinity or
    nan takes the libmp call."""
    (sa, ma, ea, ba), (sb, mb, eb, bb) = z
    if not ((ma or not ea) and (mb or not eb)):
        return mpc_abs(z, prec, rnd)
    if not mb:
        return normalize(0, ma, ea, ba, prec, rnd) if ma else fzero
    if not ma:
        return normalize(0, mb, eb, bb, prec, rnd)
    m, e, m2, e2 = ma * ma, ea + ea, mb * mb, eb + eb
    d = e - e2
    if d > _WINDOW:
        m, e = _far(m, e, m2, e2, prec + 4)
    elif d > 0:
        m, e = (m << d) + m2, e2
    elif d < -_WINDOW:
        m, e = _far(m2, e2, m, e, prec + 4)
    else:
        m += m2 << -d
    k = m.bit_length() - prec - 4
    if k > 0:
        m >>= k
        e += k
    if e & 1:
        m <<= 1
        e -= 1
    k = max(4, 2 * prec - m.bit_length() + 4)
    k += k & 1
    m <<= k
    r = isqrt(m)
    if rnd not in "fd" and r * r != m:
        r = r << 1 | 1
        k += 2
    return normalize(0, r, (e - k) >> 1, r.bit_length(), prec, rnd)


def cadd(z, w, prec):
    """The raw pair of mpc_add(z, w, prec, round_nearest)."""
    (a, b), (c, d) = z, w
    sa, ma, ea, _ = a
    sb, mb, eb, _ = b
    sc, mc, ec, _ = c
    sd, md, ed, _ = d
    if (ma or not ea) and (mb or not eb) and (mc or not ec) and (md or not ed):
        return _fuse(-ma if sa else ma, ea, -mc if sc else mc, ec,
                     -mb if sb else mb, eb, -md if sd else md, ed, prec)
    return mpc_add(z, w, prec, round_nearest)


def csub(z, w, prec):
    """The raw pair of mpc_sub(z, w, prec, round_nearest)."""
    (a, b), (c, d) = z, w
    sa, ma, ea, _ = a
    sb, mb, eb, _ = b
    sc, mc, ec, _ = c
    sd, md, ed, _ = d
    if (ma or not ea) and (mb or not eb) and (mc or not ec) and (md or not ed):
        return _fuse(-ma if sa else ma, ea, mc if sc else -mc, ec,
                     -mb if sb else mb, eb, md if sd else -md, ed, prec)
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
        return _fuse(ma * mc, ea + ec, -mb * md, eb + ed, ma * md, ea + ed, mb * mc, eb + ec,
                     prec)
    return mpc_mul(z, w, prec, round_nearest)


# Rational OP rational: every kernel forms the unreduced pair on the ints
# and ``_q`` reduces it, so each result is the value Fraction arithmetic
# gives, in lowest terms with a positive denominator; two integers
# (denominator 1) take no gcd for + - *.

def _q(n, d):
    """The rational n / d (ints, d nonzero) in lowest terms."""
    if d == 1:
        return Scalar(n, 1, None, None)
    if not d:
        raise ZeroDivisionError("rational with denominator 0")
    g = gcd(n, d)
    if d < 0:
        g = -g
    return Scalar(n // g, d // g, None, None)


def _qpow(n, d, k):
    if k >= 0:
        return Scalar(n ** k, d ** k, None, None)
    if not n:
        raise ZeroDivisionError("rational 0 to a negative power")
    if n < 0:
        n, d = -n, -d
    return Scalar(d ** -k, n ** -k, None, None)


class Scalar:
    """One number from the tower: exact rational or complex float.

    A rational keeps two ints, its numerator in ``_num`` and its
    denominator, positive and coprime to it, in ``_den`` (``_c`` and
    ``_prec`` are None); a complex value keeps the raw libmp pair (re, im)
    of its rounded parts in ``_c`` and its precision in ``_prec`` (``_num``
    and ``_den`` are None).  Neither a ``Fraction`` nor an mpmath object is
    built unless asked for.

    Use :meth:`rational` / :meth:`complex_` (or the module helpers ``rat``
    and ``cx``) to construct.  Arithmetic accepts int and Fraction operands.
    """

    __slots__ = ("_num", "_den", "_c", "_prec")

    def __init__(self, num, den, c, prec):
        self._num = num
        self._den = den
        self._c = c
        self._prec = prec

    # -- constructors ------------------------------------------------------

    @classmethod
    def rational(cls, num, den=1) -> "Scalar":
        """num / den in lowest terms, for int or Fraction arguments;
        ZeroDivisionError for den = 0."""
        if type(num) is not int or type(den) is not int:
            if not (isinstance(num, (int, Fraction)) and isinstance(den, (int, Fraction))):
                raise TypeError("a rational needs int or Fraction arguments, got %s, %s"
                                % (type(num).__name__, type(den).__name__))
            num, den = num.numerator * den.denominator, num.denominator * den.numerator
        return _q(num, den)

    @classmethod
    def complex_(cls, re=0, im=0, prec: int = DEFAULT_PRECISION_BITS) -> "Scalar":
        ctx = context(prec)

        def part(v):
            if isinstance(v, Fraction):
                return ctx.make_mpf(_rat_mpf(v.numerator, v.denominator, prec))
            return ctx.mpf(v)

        return cls(None, None, ctx.mpc(part(re), part(im))._mpc_, prec)

    @classmethod
    def from_mpc(cls, c, prec: int) -> "Scalar":
        """c (an mpc or mpf of any context, or a real number) rounded to prec."""
        return cls(None, None, context(prec).mpc(c)._mpc_, prec)

    @classmethod
    def from_raw(cls, z, prec: int) -> "Scalar":
        """The raw libmp pair z, whose parts carry at most prec bits, as the
        complex Scalar at prec, taken as it is."""
        return cls(None, None, z, prec)

    # -- inspection --------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._den is not None

    @property
    def fraction(self) -> Fraction:
        """The value as a new ``Fraction``; ValueError for a complex value."""
        if self._den is None:
            raise ValueError("not an exact rational")
        return Fraction(self._num, self._den)

    @property
    def prec(self):
        return self._prec

    def is_exact_zero(self) -> bool:
        if self._den is not None:
            return not self._num
        return self._c == _CZERO

    def to_mpc(self, prec=None):
        return mp.make_mpc(self._raw(prec or DEFAULT_PRECISION_BITS))

    def _raw(self, prec):
        """The libmp pair of the value; a rational is rounded to prec."""
        if self._den is not None:
            return _rat_mpf(self._num, self._den, prec), fzero
        return self._c

    def re(self):
        return mp.make_mpf(self._raw(DEFAULT_PRECISION_BITS)[0])

    def im(self):
        return mp.make_mpf(self._raw(DEFAULT_PRECISION_BITS)[1])

    def mag(self):
        """|self| as an mpf (exact zero for the rational zero): a rational
        rounded at ``DEFAULT_PRECISION_BITS``, a complex value by ``hypot``
        at its precision."""
        if self._den is not None:
            return mp.make_mpf(_rat_mpf(abs(self._num), self._den, DEFAULT_PRECISION_BITS))
        return mp.make_mpf(hypot(self._c, self._prec))

    def conjugate(self) -> "Scalar":
        if self._den is not None:
            return self
        return Scalar(None, None, mpc_conjugate(self._c, self._prec, round_nearest), self._prec)

    # -- arithmetic --------------------------------------------------------
    # Each operator only coerces its operand and calls one module kernel.

    def __add__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else add(self, y)

    __radd__ = __add__

    def __sub__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else sub(self, y)

    def __rsub__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else sub(y, self)

    def __mul__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else mul(self, y)

    __rmul__ = __mul__

    def __truediv__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else div(self, y)

    def __rtruediv__(self, other):
        y = _operand(other)
        return NotImplemented if y is None else div(y, self)

    def __neg__(self):
        if self._den is not None:
            return Scalar(-self._num, self._den, None, None)
        return Scalar(None, None, mpc_neg(self._c, self._prec, round_nearest), self._prec)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if self._den is not None:
            return _qpow(self._num, self._den, k)
        return Scalar(None, None, mpc_pow_int(self._c, k, self._prec, round_nearest), self._prec)

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        na, da, nb, db = self._num, self._den, other._num, other._den
        if da is not None and db is not None:
            return na == nb and da == db
        z = self._c if da is None else other._c
        if not _finite(z):
            return False
        if da is None and db is None:
            return mpf_eq(z[0], other._c[0]) and mpf_eq(z[1], other._c[1])
        # a complex value equals a rational only when it is real and the
        # rational is a dyadic n / 2^k, compared as the mpf n * 2^-k
        # without building 2^exp
        n, d = (nb, db) if da is None else (na, da)
        return (z[1] == fzero and not d & (d - 1)
                and mpf_eq(z[0], from_man_exp(n, 1 - d.bit_length())))

    __hash__ = None

    # -- roots -------------------------------------------------------------

    def _promote_prec(self, prec):
        return max(self._prec or 0, prec or 0) or DEFAULT_PRECISION_BITS

    def _exact_root(self, k: int):
        """The rational k-th root (the real one for odd k), or None."""
        n, d = self._num, self._den
        if d is None or (n < 0 and k % 2 == 0):
            return None
        rn = _exact_nth_root(abs(n), k)
        rd = _exact_nth_root(d, k)
        if rn is None or rd is None:
            return None
        return Scalar(rn if n >= 0 else -rn, rd, None, None)

    def sqrt(self, prec=None) -> "Scalar":
        """Principal square root; stays rational iff the value is a rational square."""
        r = self._exact_root(2)
        if r is not None:
            return r
        p = self._promote_prec(prec)
        return Scalar(None, None, mpc_sqrt(self._raw(p), p, round_nearest), p)

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
            return Scalar(None, None, _CZERO, p)
        ctx = context(p)
        return Scalar(None, None, ctx.exp(ctx.ln(ctx.make_mpc(self._raw(p))) / n)._mpc_, p)

    def cbrt(self, prec=None) -> "Scalar":
        return self.nth_root(3, prec)

    # -- serialization and display ------------------------------------------

    def to_json(self):
        if self._den is not None:
            return [self._num, self._den]
        dps = int(self._prec / 3.3219280948873626) + 10
        c = self.to_mpc()
        return [mpmath.nstr(c.real, dps), mpmath.nstr(c.imag, dps)]

    @classmethod
    def from_json(cls, v, prec: int = None) -> "Scalar":
        """Inverse of ``to_json``; a complex value is read at prec + 16 bits
        and carried at prec (default ``DEFAULT_PRECISION_BITS``).
        ValueError for a part that is a boolean, an infinity or a nan."""
        if not (isinstance(v, list) and len(v) == 2):
            raise ValueError("scalar JSON must be a two-element list")
        if any(isinstance(t, bool) for t in v):
            raise ValueError("scalar JSON must not hold a boolean, got %r" % (v,))
        if all(isinstance(t, int) for t in v):
            return cls.rational(v[0], v[1])
        prec = prec or DEFAULT_PRECISION_BITS
        z = context(prec + 16).mpc(v[0], v[1])._mpc_
        if not _finite(z):
            raise ValueError("scalar JSON must be finite, got %r" % (v,))
        return cls(None, None, z, prec)

    def __repr__(self):
        if self._den is not None:
            return "rat(%s)" % self
        c = self.to_mpc()
        return "cx(%s, %s; %d)" % (mpmath.nstr(c.real, 12), mpmath.nstr(c.imag, 12),
                                   self._prec)

    def __str__(self):
        if self._den is not None:
            return str(self._num) if self._den == 1 else "%d/%d" % (self._num, self._den)
        c = self.to_mpc()
        if c.imag == 0:
            return mpmath.nstr(c.real, 12)
        return "(%s%s%sj)" % (mpmath.nstr(c.real, 12), "+" if c.imag >= 0 else "-",
                              mpmath.nstr(abs(c.imag), 12))


ZERO = Scalar(0, 1, None, None)
ONE = Scalar(1, 1, None, None)


def _operand(v):
    """v as a Scalar: itself, or an int or Fraction as an exact rational;
    None for anything else."""
    if isinstance(v, Scalar):
        return v
    if isinstance(v, (int, Fraction)):
        return Scalar(v.numerator, v.denominator, None, None)
    return None


# The arithmetic kernels: every + - * / of two Scalars runs one of them, by
# the one rule of the module docstring.

def _lift(x, y):
    """(prec, a, b) for Scalars x and y of which one at least is complex:
    the larger precision in play and the raw pairs of x and y, a rational
    entering as its value rounded at the complex precision (``_rat_mpf``)."""
    if x._den is None:
        prec = x._prec
        if y._den is None:
            if y._prec > prec:
                prec = y._prec
            return prec, x._c, y._c
        return prec, x._c, (_rat_mpf(y._num, y._den, prec), fzero)
    prec = y._prec
    return prec, (_rat_mpf(x._num, x._den, prec), fzero), y._c


def add(x, y):
    """x + y for Scalars x and y."""
    if x._den is not None and y._den is not None:
        return _q(x._num * y._den + y._num * x._den, x._den * y._den)
    prec, a, b = _lift(x, y)
    return Scalar(None, None, cadd(a, b, prec), prec)


def sub(x, y):
    """x - y for Scalars x and y."""
    if x._den is not None and y._den is not None:
        return _q(x._num * y._den - y._num * x._den, x._den * y._den)
    prec, a, b = _lift(x, y)
    return Scalar(None, None, csub(a, b, prec), prec)


def mul(x, y):
    """x * y for Scalars x and y."""
    if x._den is not None and y._den is not None:
        return _q(x._num * y._num, x._den * y._den)
    prec, a, b = _lift(x, y)
    return Scalar(None, None, cmul(a, b, prec), prec)


def div(x, y):
    """x / y for Scalars x and y."""
    if x._den is not None and y._den is not None:
        if not y._num:
            raise ZeroDivisionError("rational division by 0")
        return _q(x._num * y._den, x._den * y._num)
    prec, a, b = _lift(x, y)
    return Scalar(None, None, mpc_div(a, b, prec, round_nearest), prec)


def int_vector(values):
    """The integer view of a vector of Scalars: (nums, d), ints over the
    least common denominator d > 0 of the values, values[i] == nums[i] / d;
    None when one of them is complex."""
    d = 1
    for v in values:
        vd = v._den
        if vd is None:
            return None
        if d % vd:
            d = d // gcd(d, vd) * vd
    if d == 1:
        return [v._num for v in values], 1
    return [v._num * (d // v._den) for v in values], d


# bits past prec in a fixed-point vector: a rational that is not dyadic
# enters rounded at prec + GUARD_BITS, and the power table, the charpoly's
# columns and the forms' products and sums are cut there
GUARD_BITS = 64


def fixed_point(values, prec, s=0, scale=1):
    """The Scalars values[i] times scale 2^(s i) (scale a positive int) as
    one fixed-point Gaussian-integer vector (re, im, e): (re[i] + im[i] i)
    2^e, ints, e the least exponent of a nonzero part (0 if none), so no
    bit of a complex part or of a rational that scale makes dyadic is
    dropped; another rational enters as its value rounded at prec +
    ``GUARD_BITS`` bits.  ValueError for an infinity or nan."""
    parts = []  # (mantissa, exponent) of the real, then the imaginary part of each
    for i, v in enumerate(values):
        d, k = v._den, 1
        if d is None:
            c, k = v._c, scale
            if not _finite(c):
                raise ValueError("a block entry must be finite")
        else:
            n = v._num * scale
            if not d & (d - 1):
                c = from_man_exp(n, 1 - d.bit_length()), fzero
            elif n % d:
                c = _rat_mpf(n, d, prec + GUARD_BITS), fzero
            else:
                c = from_int(n // d), fzero
        for sign, m, x, _ in c:
            parts.append((-m * k if sign else m * k, x + s * i))
    e = min([x for m, x in parts if m] or [0])
    out = [m << x - e if m else 0 for m, x in parts]
    return out[0::2], out[1::2], e


def _part(m, e, prec):
    """The int m times 2^e rounded at prec bits, as a raw mpf."""
    if m > 0:
        return normalize(0, m, e, m.bit_length(), prec, round_nearest)
    if m:
        return normalize(1, -m, e, (-m).bit_length(), prec, round_nearest)
    return fzero


def _ratio(m, d, e, prec):
    """The int m times 2^e over the int d > 0, rounded once at prec bits to
    nearest, as a raw mpf: a quotient of at least prec + 2 bits and a
    sticky bit for its remainder."""
    if not d & (d - 1):
        return _part(m, e + 1 - d.bit_length(), prec)
    if not m:
        return fzero
    sign, m = (1, -m) if m < 0 else (0, m)
    k = max(prec + 2 + d.bit_length() - m.bit_length(), 0)
    q, r = divmod(m << k, d)
    q = q << 1 | (r != 0)
    return normalize(sign, q, e - k - 1, q.bit_length(), prec, round_nearest)


def from_ratio(re, im, d, e=0, prec=None):
    """(re + im i) 2^e / d, for ints re, im and d != 0, as a Scalar: with
    prec None the rational re / d in lowest terms (``_q``; im and e are
    0), otherwise each part rounded once at prec, a zero being the
    rational 0."""
    if prec is None:
        return _q(re, d)
    if not (re or im):
        return ZERO
    if d < 0:
        re, im, d = -re, -im, -d
    return Scalar(None, None, (_ratio(re, d, e, prec), _ratio(im, d, e, prec)), prec)


def graded_monic(p, pi, scale):
    """The ascending Scalars of the monic polynomial with (p[j] + pi[j] i)
    (2^e / d)^j at x^(n - j), p and pi highest first (ints; pi None when
    every one is real) and (e, d, prec) the scale of
    ``polynomials.columns_mod``: exact when prec is None, else d = 1 and
    each part rounded once at prec."""
    e, d, prec = scale
    if prec is None:
        return [_q(c, d ** j) for j, c in enumerate(p)][::-1]
    out = [ONE]
    for j, c in enumerate(p[1:], 1):
        im = pi[j] if pi else 0
        out.append(Scalar(None, None, (_part(c, e * j, prec), _part(im, e * j, prec)), prec))
    return out[::-1]


def rat(num, den=1) -> Scalar:
    return Scalar.rational(num, den)


def cx(re, im=0, prec: int = DEFAULT_PRECISION_BITS) -> Scalar:
    return Scalar.complex_(re, im, prec)


def as_scalar(v) -> Scalar:
    """v as a Scalar (ints and Fractions become exact rationals);
    TypeError for anything else."""
    s = _operand(v)
    if s is None:
        raise TypeError("expected a Scalar-compatible value, got %r" % (v,))
    return s


@functools.lru_cache(maxsize=64)
def _parse_tol(text):
    return context(TOL_PREC).mpf(text)._mpf_


def as_tol(tol, *scales):
    """tol times the mpf scales, the one place a tolerance is read: tol (a
    str, parsed once, a float or an mpf; None for ``DEFAULT_TOLERANCE``) and
    each product rounded at ``TOL_PREC`` bits, scales multiplied first.
    ValueError for a string that is not a number."""
    tol = DEFAULT_TOLERANCE if tol is None else tol
    if isinstance(tol, str):
        t = _parse_tol(tol)
    elif isinstance(tol, float):
        t = from_float(tol, TOL_PREC, round_nearest)
    else:  # an mpf rounded as context(TOL_PREC).mpf rounds it, with no new object
        t = getattr(tol, "_mpf_", None)
        t = context(TOL_PREC).mpf(tol)._mpf_ if t is None else mpf_pos(t, TOL_PREC, round_nearest)
    if scales:
        s = functools.reduce(lambda a, b: mpf_mul(a, b, TOL_PREC, round_nearest),
                             (v._mpf_ for v in scales))
        t = mpf_mul(t, s, TOL_PREC, round_nearest)
    return mp.make_mpf(t)


def noise_tol(prec=None):
    """2^(24 - prec) (default ``DEFAULT_PRECISION_BITS``), the CLI's floor
    for ``--tol`` and the noise rule of ``UniPoly.effective_degree``: a
    step's two routes agree to about 2^(16 - prec) relative, and the ansatz
    and the back-solve lose up to 8 bits more."""
    return mp.make_mpf(from_man_exp(1, 24 - (prec or DEFAULT_PRECISION_BITS)))


_NEG_INF = float("-inf")


def mag_binades(v):
    """(lo, hi) with 2^lo <= v.mag() <= 2^hi, with no square root: from the
    raw exponent and mantissa bit count of each part of a complex value
    (for E the larger exponent plus bit count, E - 1 and E + 1), or from
    the bit lengths of a rational's numerator and denominator.  Both bounds
    are powers of two, which rounding at any precision keeps.  (-inf, -inf)
    for zero; None for a part that is an infinity or nan."""
    n = v._num
    if n is not None:
        if not n:
            return _NEG_INF, _NEG_INF
        e = n.bit_length() - v._den.bit_length()
        return (e, e + 1) if v._den == 1 else (e - 1, e + 1)
    (_, ma, ea, ba), (_, mb, eb, bb) = v._c
    if ma:
        e = ea + ba
        if mb:
            if eb + bb > e:
                e = eb + bb
        elif eb:
            return None
    elif ea:
        return None
    elif mb:
        e = eb + bb
    elif eb:
        return None
    else:
        return _NEG_INF, _NEG_INF
    return e - 1, e + 1


def within(h, q, e, t) -> bool:
    """Is h 2^(2e) / q <= t^2, for ints h >= 0 and q > 0 and the mpf t?
    Decided exactly on ints: the one comparison of every tolerance verdict.
    A negative or nan t passes nothing, and +inf passes everything."""
    sign, m, x, _ = t._mpf_
    if sign or not m and x:  # a negative, infinite or nan t
        return t == mpmath.inf
    k = 2 * (e - x)  # h 2^(2e) / q <= (m 2^x)^2
    return h << k <= m * m * q if k >= 0 else h <= m * m * q << -k


def equals_ratio(x: Scalar, n: int, d: int) -> bool:
    """Is the Scalar x the rational n / d (ints, d nonzero)?  Cross-multiplied
    on ints, with no gcd and no Scalar made; False for a complex x."""
    return x._den is not None and x._num * d == n * x._den


def close(x: Scalar, y: Scalar, t) -> bool:
    """Is |x - y| <= the mpf t, for Scalars x and y?  Their exact difference
    times the lcm d of their denominators, squared on ints (``within``);
    False for an infinity or nan."""
    d = lcm(x._den or 1, y._den or 1)
    parts = []  # (mantissa, exponent) of each part of x d, then of y d
    for v in (x, y):
        if v._den is not None:
            parts += [(v._num * (d // v._den), 0), (0, 0)]
        elif _finite(v._c):
            parts += [(-m * d if s else m * d, k) for s, m, k, _ in v._c]
        else:
            return False
    e = min(k for _, k in parts)  # a zero part's exponent is 0
    a, b, c, f = [m << k - e for m, k in parts]
    return within((a - c) ** 2 + (b - f) ** 2, d * d, e, t)


def negligible(x: Scalar, tol, scale=None) -> bool:
    """The one zero test: a rational only when it is exactly zero, a
    complex float when it is finite and |x| <= ``as_tol(tol, scale)``
    (``as_tol(tol)`` with no scale), exactly (``close``), so an infinity or
    nan is never negligible."""
    if x._den is not None:
        return not x._num
    return close(x, ZERO, as_tol(tol) if scale is None else as_tol(tol, scale))


def pivot_index(values):
    """The index of the first of the Scalars values with the largest
    ``mag()``, as max(range(len(values)), key=lambda i: values[i].mag()):
    a value whose ``mag_binades`` upper bound lies strictly below
    another's lower bound cannot be it, and only the rest take a square
    root.  A part that is an infinity or nan sends them all to ``mag()``."""
    bounds = [mag_binades(v) for v in values]
    if None in bounds:
        keep = range(len(values))
    else:
        floor = max(b[0] for b in bounds)
        keep = [i for i, b in enumerate(bounds) if b[1] >= floor]
        if len(keep) == 1:
            return keep[0]
    return max(keep, key=lambda i: values[i].mag())


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
    the choice.  |Im|, the window and each difference round at ``TOL_PREC``.
    """
    keys = [(mp.make_mpf(mpf_abs(r.im()._mpf_, TOL_PREC, round_nearest)), r.mag(), r.re())
            for r in roots]
    t = as_tol(tol, max(mpmath.mpf(1), max(k[1] for k in keys)))._mpf_
    keep = range(len(roots))
    for stage in range(3):
        low = min(keys[i][stage] for i in keep)._mpf_
        # v - low, not v <= low + t: the sum would be rounded and could
        # fall below low itself
        keep = [i for i in keep
                if mpf_le(mpf_sub(keys[i][stage]._mpf_, low, TOL_PREC, round_nearest), t)]
    return min(keep, key=lambda i: roots[i].im())
