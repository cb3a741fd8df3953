"""Dense univariate polynomials with Scalar coefficients, and the power-sum
(Newton) conversions.

Coefficients are stored ascending: coeffs[j] multiplies var**j.  Every
coefficient is a Scalar; ints and Fractions are lifted to exact rationals
and anything else, a polynomial included, raises TypeError.  Conditions in
free parameters are not polynomials over polynomials: they are power-sum
forms (``elimination.image_elementary``).  All values are immutable;
operations return new objects, and + - * take a polynomial on both
sides.  ``Record`` is the read-only base of ``UniPoly`` and of the records
in other modules that do work at construction.

Every routine of the ring Q[z]/(A), A monic of degree n, has one body on
Python ints, and this module alone owns the ring's scalings.  A vector of
the ring is a fixed-point Gaussian-integer vector (re, im, e)
(``scalars.fixed_point``), sum (re_i + im_i i) 2^e w^i, over one
denominator q, in w = L z / 2^s.  One entry, ``_enter``, takes A in through
``_ring``, which keeps it on A by precision: a rational A exactly, as the
monic integer polynomial in w = L z (``int_monic``), with s = 0, no cut
and empty imaginary lists for rational values; a complex one graded at
prec in w = z / 2^s, 2^s about its largest root (``_graded_block``), with
L = 1, q = 1 and every product, power sum and trace cut to prec +
``GUARD_BITS`` bits of its largest part.  Each routine decides for itself
when it runs exactly.  One kernel, ``gauss_mul_mod``, takes every product
modulo A, and one recurrence, ``_block_power_sums``, forms A's power sums,
kept with its entry; each takes its real path only in the exact ring (A
on ints, no imaginary lists): a real vector rounded at prec has a list of
zeros (``fixed_point``) and runs the Gaussian loops.
A vector leaves by one exit, ``scalars.from_ratio``: exactly, the canonical
rational the Scalar operations give, or with each part rounded once.  The
routines are the table of T^j mod A (built by ``powers_mod`` alone, its
vectors kept in the ring for ``table_traces``, ``table_sum`` and
``solve_mod``), the certificate's U(T) (``compose_mod``), the columns of
``elimination.map_charpoly``'s matrix (``columns_mod``), the traces of a
form's products (``product_traces``), ``power_sums`` and
``poly_from_power_sums``.  Newton's identities run once back,
``newton_elementary``, for the forms, the power-sum route and
``poly_from_power_sums`` (``monic_from_traces``); its exact body on ints
(``_newton_ints``) also serves ``matches_traces``, which judges a rational
C against exact traces with no Scalar made.

A ``UniPoly`` also keeps three memo slots, filled on first use and never
part of equality, repr or JSON: its largest coefficient magnitude
(``max_mag``), its terms that are not exact zeros (``terms``), and its ring
entries (``_ring``), each with the power sums of the roots formed so far
(``_ring_sums``).
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement
from math import inf, isqrt
from typing import NamedTuple

import mpmath
from mpmath.libmp import normalize, round_nearest

from .scalars import (DEFAULT_PRECISION_BITS, GUARD_BITS, ONE, ZERO, Scalar,
                      add, as_scalar, as_tol, close, equals_ratio, fixed_point, from_ratio,
                      int_vector, mag_binades, mul, negligible, noise_tol, pivot_index, rat,
                      within)


class Record:
    """Base of the read-only records that have work to do at construction:
    ``==`` and ``repr`` cover the attributes named by ``_fields``, in that
    order; ``__init__`` sets attributes through ``_set``, and assigning or
    deleting one afterwards raises AttributeError.  The plain records are
    named tuples."""

    __slots__ = ()
    __hash__ = None

    def _set(self, **attrs):
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._fields]
                == [getattr(other, f) for f in self._fields])

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__,
                           ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields))


class UniPoly(Record):
    """Univariate polynomial with dense ascending coefficients.

    The variable name is presentational only; equality compares coefficient
    sequences.  The zero polynomial has an empty coefficient tuple and
    degree -1.
    """

    # _max_mag, _terms and _rings are memo slots (module docstring)
    __slots__ = ("coeffs", "var", "_max_mag", "_terms", "_rings")

    def __init__(self, coeffs, var: str = "z"):
        self._fill([as_scalar(c) for c in coeffs], var)

    @classmethod
    def _of(cls, cs, var: str = "z") -> "UniPoly":
        """The polynomial of cs, a list of Scalars taken without a check;
        its trailing exact zeros are popped."""
        p = cls.__new__(cls)
        p._fill(cs, var)
        return p

    def _fill(self, cs, var):
        while cs and cs[-1].is_exact_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "_max_mag", None)
        object.__setattr__(self, "_terms", None)
        object.__setattr__(self, "_rings", None)

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_exact_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return rat(0)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == ONE

    def with_var(self, var: str) -> "UniPoly":
        return UniPoly(self.coeffs, var)

    def is_rational_tree(self) -> bool:
        """True when every coefficient is an exact rational."""
        return all(c.is_rational for c in self.coeffs)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out, self.var)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        terms = other.terms()
        out = [None] * (len(self.coeffs) + terms[-1][0]) if terms else []
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero():
                continue
            for j, b in terms:
                c = out[i + j]
                out[i + j] = mul(a, b) if c is None else add(c, mul(a, b))
        return UniPoly._of([ZERO if c is None else c for c in out], self.var)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    # -- evaluation ------------------------------------------------------------

    def eval(self, x):
        """Horner evaluation at a Scalar x."""
        if not self.coeffs:
            return rat(0)
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = add(c, mul(acc, x))
        return acc

    def monic(self):
        """Return (self/lead, lead)."""
        lead = self.leading
        return UniPoly(tuple(c / lead for c in self.coeffs), self.var), lead

    # -- numeric helpers --------------------------------------------------------

    def terms(self):
        """The pairs (k, c_k) of the coefficients that are not exact zeros,
        by rising k, computed once."""
        t = self._terms
        if t is None:
            t = tuple((k, c) for k, c in enumerate(self.coeffs) if not c.is_exact_zero())
            object.__setattr__(self, "_terms", t)
        return t

    def max_mag(self):
        """Largest coefficient magnitude (an mpf; 0 for the zero
        polynomial), computed once: the ``mag()`` of the coefficient that
        ``pivot_index`` picks."""
        m = self._max_mag
        if m is None:
            cs = self.coeffs
            m = cs[pivot_index(cs)].mag() if cs else mpmath.mpf(0)
            object.__setattr__(self, "_max_mag", m)
        return m

    def effective_degree(self, prec=None) -> int:
        """Degree after dropping the leading coefficients that are rounding
        noise at prec bits, ``negligible`` at ``noise_tol(prec)`` times
        ``coeff_scale(self)``; a rational one only when it is zero."""
        t = as_tol(noise_tol(prec), coeff_scale(self))
        for k in range(len(self.coeffs) - 1, -1, -1):
            if not negligible(self.coeffs[k], t):
                return k
        return -1

    # -- serialization -----------------------------------------------------------

    @property
    def mode(self) -> str:
        return "rational" if self.is_rational_tree() else "complex"

    def to_json(self):
        return {
            "var": self.var,
            "coeffs": [c.to_json() for c in self.coeffs],
            "mode": self.mode,
        }

    @classmethod
    def from_json(cls, obj, prec: int = None) -> "UniPoly":
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise ValueError("polynomial JSON must be an object with a coeffs list")
        coeffs = [Scalar.from_json(v, prec) for v in obj["coeffs"]]
        return cls(coeffs, obj.get("var", "z"))

    def __repr__(self):
        return "UniPoly(%s, %r)" % (list(self.coeffs), self.var)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_exact_zero():
                continue
            cs = str(c)
            if k == 0:
                parts.append(cs)
            else:
                term = self.var if k == 1 else "%s^%d" % (self.var, k)
                parts.append(term if cs == "1" else ("-" + term if cs == "-1" else cs + "*" + term))
        return " + ".join(parts).replace("+ -", "- ")


def coeff_scale(*polys):
    """max(1, largest coefficient magnitude) across the given polynomials."""
    m = mpmath.mpf(1)
    for p in polys:
        v = p.max_mag()
        if v > m:
            m = v
    return m


def _residual_square(A: UniPoly, z):
    """(h, q, e): the relative residual of the Scalar z on A squared is h /
    q 2^(2e), exactly, from A's exact ``graded_horner`` at z; None for an
    infinity or nan in A or z.  With A(z) = (hr + hi i) 2^k / d, d = D b^n,
    z = (a + ai i) / b and coeff_scale(A) = m 2^x, b^(2n) cancels from
    |A(z)|^2 / (m 2^x max(1, |z|)^n)^2."""
    try:
        (hr, hi, d, k), _, _, (a, ai, b) = graded_horner(A.coeffs or [ZERO], [z], None)[0]
    except ValueError:
        return None
    n = max(A.degree, 0)
    _, m, x, _ = coeff_scale(A)._mpf_
    return hr * hr + hi * hi, (m * d // b ** n) ** 2 * max(b * b, a * a + ai * ai) ** n, k - x


def relative_residual(A: UniPoly, z):
    """|A(z)| / (coeff_scale(A) * max(1, |z|)^deg A), how far the Scalar z is
    from a root of A relative to the size of A's terms there, rounded at the
    precision of z (``DEFAULT_PRECISION_BITS`` for a rational z): exact on
    ints (``_residual_square``), then rounded once by one ``math.isqrt``, as
    ``scalars.hypot`` rounds |z|.  nan for an infinity or nan in A or z."""
    sq = _residual_square(A, z)
    if sq is None:
        return mpmath.nan
    h, q, e = sq
    prec = z.prec or DEFAULT_PRECISION_BITS
    # r = floor(sqrt(h 4^k / q)), of at least prec + 2 bits, and a sticky bit
    k = max(prec + 2 - (h.bit_length() - q.bit_length() - 1 >> 1), 0)
    s, rem = divmod(h << 2 * k, q)
    r = isqrt(s)
    r = r << 1 | (rem != 0 or r * r != s)
    return mpmath.mp.make_mpf(normalize(0, r, e - k - 1, r.bit_length(), prec, round_nearest))


def lies_on(A: UniPoly, z, tol=None) -> bool:
    """Is z a root of A, with an exact relative residual (the value
    ``relative_residual`` rounds) of at most t = ``as_tol(tol)``?  Decided
    on the squares of both sides as ints (``_residual_square``) by
    ``scalars.within``.  False for an infinity or nan in A or z."""
    sq = _residual_square(A, z)
    return sq is not None and within(*sq, as_tol(tol))


def coeff_mismatch(P: UniPoly, Q: UniPoly, tol):
    """(k, P_k - Q_k) at the first power k where the exact difference is
    above tol * coeff_scale(P, Q) (``scalars.close``) or not finite, made a
    Scalar only then, or None: two rational coefficients must agree exactly
    (==), and a finite coefficient that both hold as one object, as a step's
    input holds the output before it (``with_var``), agrees unread."""
    t = None  # tol * coeff_scale(P, Q), which a rational pair never reads
    for k in range(max(P.degree, Q.degree) + 1):
        p, q = P.coeff(k), Q.coeff(k)
        if p.is_rational and q.is_rational:
            if p == q:
                continue
            return k, p - q
        if p is q and mag_binades(p) is not None:
            continue
        if t is None:
            t = as_tol(tol, coeff_scale(P, Q))
        if not close(p, q, t):
            return k, p - q
    return None


def shift_substitute(poly: UniPoly, a) -> UniPoly:
    """Return C(y) = A(y - a), by iterated synthetic division at the point -a.

    shift_substitute(shift_substitute(p, a), -a) == p, exactly in rational mode.
    """
    a = as_scalar(a)
    if poly.is_exact_zero():
        return UniPoly((), "y")
    point = -a
    d = list(reversed(poly.coeffs))  # descending
    n = len(d) - 1
    out = []
    for j in range(n + 1):
        for i in range(1, n + 1 - j):
            d[i] = d[i] + d[i - 1] * point
        out.append(d[n - j])
    return UniPoly(out, "y")


class PowerTable(NamedTuple):
    """T^0..T^n modulo the monic A of degree n (``powers_mod``) in A's ring
    entry ``ring``: vectors[j] is q^j (T^j mod A), T entering over q, exact
    if prec is None; else q = 1 and each part is rounded at prec."""

    vectors: list
    q: int
    prec: int
    ring: list

    @property
    def rows(self):
        """Row j, the n ascending Scalars of T^j mod A, made on read: row 0
        the rational (1, 0, ..., 0), and row j its vector over q^j, exact or
        with parts already at prec bits, so no bit moves."""
        n = len(self.vectors[0][0])
        return (tuple(ONE if i == 0 else ZERO for i in range(n)),) + tuple(
            tuple(_leave(v, self.q ** j, self.prec, self.ring))
            for j, v in enumerate(self.vectors[1:], 1))


def powers_mod(T: UniPoly, A: UniPoly) -> PowerTable:
    """The table of T^0, T^1, ..., T^n modulo the monic A (n = deg A), row j
    + 1 being row j times T reduced modulo A (``gauss_mul_mod``); no other
    routine builds it.  It runs in the ring (module docstring), exactly when
    every coefficient of T and A is rational, otherwise at the largest
    precision prec of a complex one, each row cut to prec + ``GUARD_BITS``
    bits, then each part rounded once at prec on its ints (``_round_row``)
    into the vector the row's Scalars at prec would enter as: the one place
    a row becomes a vector."""
    n = A.degree
    r, (t,), q, prec = _enter(A, [T.coeffs], max(T.degree, 0))
    vs = [([int(i == 0) for i in range(n)], [], 0)]
    for _ in range(n):
        vs.append(gauss_mul_mod(vs[-1], t, r[2], r[3]))
    if prec is not None:
        vs = [_round_row(v, prec) for v in vs]
    return PowerTable(vs, q, prec, r)


def _round_row(v, prec):
    """The fixed-point vector v = (re, im, e) with each part rounded once at
    prec bits, to nearest with ties to even as libmp's ``normalize``
    rounds, and shifted to the least exponent of a nonzero part (0 if
    none), with n imaginary parts: the vector ``fixed_point`` makes of the
    row's Scalars at prec (``_leave``), made on the ints."""
    re, im, e = v
    parts = []
    for c in re + (im or [0] * len(re)):
        a = -c if c < 0 else c
        k = a.bit_length() - prec
        if k > 0:
            t = a >> k - 1
            a = ((t >> 1) + 1 if t & 1 and (t & 2 or a & (1 << k - 1) - 1) else t >> 1) << k
        parts.append(-a if c < 0 else a)
    n, low = len(re), [(x & -x).bit_length() - 1 for x in parts if x]
    if not low:
        return parts[:n], parts[n:], 0
    low = min(low)
    parts = [x >> low for x in parts]
    return parts[:n], parts[n:], e + low


HORNER_GUARD_BITS = 7  # past prec, in each product of U(T) (TransformStep.certify)


def compose_mod(U: UniPoly, T: UniPoly, A: UniPoly):
    """The n ascending coefficients of U(T) modulo the monic A (n = deg A),
    by Horner: one product by T modulo A per coefficient of U, highest
    first, each joining the product before the reduction.  It runs in the
    ring, exactly when U, T and A are rational, otherwise each product cut
    to prec + ``HORNER_GUARD_BITS`` bits.  T and the u_j of U, as constants,
    enter over one q, so q u_j q^(m-j) joins step j and U(T) leaves over
    q^(m+1) (m = deg U)."""
    r, (t, *us), q, prec = _enter(A, [T.coeffs] + [[u] for u in U.coeffs], max(T.degree, 0))
    bits, m, v = prec and prec + HORNER_GUARD_BITS, len(us) - 1, ([0] * A.degree, [], 0)
    for j in range(m, -1, -1):
        (ur,), ui, eu = us[j]
        f = q ** (m - j)
        v = gauss_mul_mod(v, t, r[2], bits, (ur * f, ui[0] * f if ui else 0, eu))
    return _leave(v, q ** (m + 1), prec, r)


def columns_mod(t_coeffs, A: UniPoly):
    """(N, I, (e, q, prec)): the matrix of multiplication by T (ascending
    Scalar coefficients ``t_coeffs``) modulo the monic A of degree n >= 1,
    up to similarity, as the n columns of ints N, and I of their imaginary
    parts or None when every column is real, whose entries (N + I i) times
    2^e / q are its entries; prec is the largest precision of a complex
    coefficient, None when the entries are exact.

    Column 0 is T modulo A and column i + 1 is w times column i in the
    ring's w, exactly when T and A are rational, T entering over q, and
    otherwise cut like the table, shifted to their least exponent e.  So
    the ints stay short whatever the span of the exponents, and an image
    T(z_i) below the cut of the largest one is lost, as in the table.  A
    complex exact zero counts as the rational 0, and a constant map's
    columns never reach A, so for a rational T they run exactly modulo w^n.
    """
    n = A.degree
    t = [ZERO if c.is_exact_zero() else c for c in map(as_scalar, t_coeffs)]
    while t and t[-1] is ZERO:
        t.pop()
    if (len(t) < 2 or not _ring(A, None)) and all(c.is_rational for c in t):
        if len(t) < 2:
            A = UniPoly._of([ZERO] * n + [ONE])
        elif all(c.is_rational or c.is_exact_zero() for c in A.coeffs):
            A = UniPoly._of([ZERO if c.is_exact_zero() else c for c in A.coeffs])
    r, (tv,), q, prec = _enter(A, [t], max(len(t) - 1, 0))
    cols = [gauss_mul_mod(([1], [], 0), tv, r[2], r[3])]
    while len(cols) < n:
        cols.append(gauss_mul_mod(cols[-1], ([0, 1], [], 0), r[2], r[3]))
    e = min([f for re, im, f in cols if any(re) or any(im)] or [0])
    N, I = [], None if prec is None else []
    for re, im, f in cols:
        d = max(f - e, 0)  # a column cut to zero may hold an exponent below e
        N.append([x << d for x in re] if d else re)
        if I is not None:
            I.append([y << d for y in im] if im else [0] * n)
    return N, I, (e, q, prec)


def product_traces(A: UniPoly, X, m: int):
    """(traces, q, prec, bits): the traces sum_i P(z_i) over the roots z_i
    of the monic A of degree n >= 1 of the products P of k = 1..m of the
    polynomials X[p] (lists of ascending Scalars, all of one length), one
    per multiset of indices.  traces maps each sorted k-tuple of indices,
    as ``combinations_with_replacement`` makes them, to a Gaussian integer
    (re, im, e): (re + im i) 2^e is q^k times the trace, the X[p] entering
    the ring over q, exactly whenever A is rational; prec is the largest
    precision of a complex coefficient, None when there is none, and bits
    the cut of every h_p, product and trace, None when they are exact.

    A product of fewer than m factors is the one before times one X[p]
    modulo A.  The trace of such a product R, reduced modulo A, times a last
    factor X[p] needs no product: it is sum_(j<n) R_j h_p[j], with h_p[j] =
    tr(z^j X[p]) = sum_i X[p]_i s_(i+j) a Hankel form in the power sums
    s_0..s_(n-1+K) of A, K the largest degree of the X[p].
    """
    n = A.degree
    K = max((i for x in X for i, c in enumerate(x) if not c.is_exact_zero()), default=0)
    r, xs, q, prec = _enter(A, X, K, True)
    a, bits = r[2], r[3]
    sums = _on_grid(_ring_sums(r, n - 1 + K)[:n + K], bits)
    hs = [_cut(*_hankel(x, sums, n), bits) for x in xs]
    one = [1], [], 0

    def mul(v, p):
        if v is one and K < n:  # X[p] itself, cut as the product would be
            xr, xi, e = xs[p]
            return _cut((xr + [0] * n)[:n], (xi + [0] * n)[:n] if xi else xi, e, bits)
        return gauss_mul_mod(v, xs[p], a, bits)

    def trace(v, p):  # the trace of X[p] itself is h_p[0]
        return _cut1(*_dot(v, hs[p]), bits)
    traces, prods = {}, {(): one}
    for k in range(1, m + 1):
        for combo in combinations_with_replacement(range(len(X)), k):
            v = prods[combo[:-1]]
            if k < m:
                prods[combo] = mul(v, combo[-1])
            traces[combo] = trace(v, combo[-1])
    return traces, q, prec, bits


def _hankel(x, sums, n):
    """The exact vector of h_j = sum_i x_i s_(i+j), j < n, for the
    fixed-point vectors x and s = ``sums`` (``_dot``)."""
    sr, si, es = sums
    h = [_dot(x, (sr[j:], si[j:], es)) for j in range(n)]
    im = [y for _, y, _ in h]
    return [re for re, _, _ in h], im if any(im) else [], x[2] + es


def _dot(x, y):
    """The exact sum_i x_i y_i of the fixed-point vectors x and y, as
    (re, im, e); an empty imaginary list stands for zeros."""
    (xr, xi, ex), (yr, yi, ey) = x, y
    if not (xi or yi):
        return sum(map(operator.mul, xr, yr)), 0, ex + ey
    return (sum(map(operator.mul, xr, yr)) - sum(map(operator.mul, xi, yi)),
            sum(map(operator.mul, xr, yi)) + sum(map(operator.mul, xi, yr)), ex + ey)


def solve_mod(table: PowerTable):
    """The n ascending coefficients u_j of U = sum u_j y^j with sum u_j (T^j
    mod A) = z modulo the monic A of degree n >= 2, on the first n rows of
    T's ``table``; None exactly when they are linearly dependent.

    Row j's vector N_j 2^(e_j) is q^j (T^j mod A)(2^s w / L) in the ring's
    w, and z is 2^s w / L.  Fraction-free elimination over Z or Z[i]
    (Bareiss, *Math. Comp.* 22, 1968), with the first nonzero pivot, divides
    exactly; back-substitution reads off the Cramer numerators X_j and the
    determinant det of the system in the v_j = u_j 2^(e_j - s) L / q^j, so
    u_j = X_j q^j 2^(s - e_j) / (L det), exact (``_q``) or with each part
    rounded once at prec (``from_ratio``), on real ints alone when rational.
    """
    vs, q, prec, (s, L) = table.vectors[:-1], table.q, table.prec, table.ring[:2]
    n = len(vs)
    im = [[v[1][i] for v in vs] + [0] for i in range(n)] if any(any(y) for _, y, _ in vs) else None
    got = _bareiss([[v[0][i] for v in vs] + [int(i == 1)] for i in range(n)], im)
    if got is None:
        return None
    xr, xi, dr, di = got
    if di:  # X / det = X conj(det) / |det|^2
        xr, xi, dr = ([x * dr + y * di for x, y in zip(xr, xi)],
                      [y * dr - x * di for x, y in zip(xr, xi)], dr * dr + di * di)
    return [from_ratio(x * q ** j, y * q ** j, dr * L, s - e, prec)
            for j, (x, y, (_, _, e)) in enumerate(zip(xr, xi, vs))]


def table_traces(table: PowerTable):
    """(P, q, prec, bits): s_j = sum_i (T^j mod A)_i s_i(A), j = 1..n, the
    power sums of T(z_i) over the roots of the monic A of degree n > deg T,
    as (re, im, e), (re + im i) 2^e = q^j s_j: the dot of row j's vector of
    T's ``table`` with A's power sums in its ring, exact when the table is,
    otherwise cut to bits = prec + ``GUARD_BITS``."""
    r, n = table.ring, len(table.vectors) - 1
    S, bits = _on_grid(_ring_sums(r, n - 1)[:n], r[3]), r[3]
    return [_cut1(*_dot(v, S), bits) for v in table.vectors[1:]], table.q, table.prec, bits


def table_sum(table: PowerTable, cs):
    """(terms, d, prec): sum_j cs[j] (T^j mod A), cs at most n + 1
    Scalars, by one exact dot of the cs, as constants over one q, with the
    vectors of T's ``table``; its coefficient i is exactly (re + im i) 2^e
    / d for terms[i] = (re, im, e), and prec the largest precision of the
    table and the cs, None when both are exact."""
    vs, q, (s, L), m = table.vectors, table.q, table.ring[:2], len(cs) - 1
    _, cs, qc, prec = _enter(UniPoly._of([ONE]), [[c] for c in cs])
    n, g = len(vs[0][0]), min([ec + v[2] for ((a,), b, ec), v in zip(cs, vs) if a or any(b)] or [0])
    re, im = [0] * n, [0] * n
    for j, (((a,), b, ec), (xr, xi, e)) in enumerate(zip(cs, vs)):
        f = q ** (m - j) << max(ec + e - g, 0)  # only a zero c_j lies below g
        a, b = a * f, (b[0] if b else 0) * f
        for i, (x, y) in enumerate(zip(xr, xi or [0] * n)):
            re[i] += a * x - b * y
            im[i] += a * y + b * x
    return ([(x * L ** i, y * L ** i, g - s * i) for i, (x, y) in enumerate(zip(re, im))],
            qc * q ** m, max(table.prec or 0, prec or 0) or None)


def _bareiss(R, I=None):
    """(xr, xi, dr, di) for the n x (n + 1) augmented matrix with real parts
    R and imaginary parts I (None for a real one), ints reduced in place:
    dr + di i = +-det of its first n columns and (xr_j + xi_j i) / (dr +
    di i) solve the system; None when that det is 0.  Fraction-free
    elimination with the first nonzero pivot, each entry the last pivot's
    multiple divided exactly by the pivot before (times its conjugate, over
    its norm, in Z[i]), then back-substitution X_c = (det b_c - sum_(k>c)
    M_ck X_k) / M_cc."""
    n, pr, pi, norm = len(R), 1, 0, 1
    for c in range(n):
        p = next((r for r in range(c, n) if R[r][c] or I and I[r][c]), None)
        if p is None:
            return None
        R[c], R[p] = R[p], R[c]
        tr, a = R[c], R[c][c]
        if I is None:
            for rr in R[c + 1:]:
                x = rr[c]
                if x or a != pr:  # else the row stays as it is
                    for k in range(c + 1, n + 1):
                        rr[k] = (a * rr[k] - x * tr[k]) // pr
            pr = a
            continue
        I[c], I[p] = I[p], I[c]
        ti, b = I[c], I[c][c]
        for rr, ri in zip(R[c + 1:], I[c + 1:]):
            x, y = rr[c], ri[c]
            if not (x or y or a != pr or b != pi):
                continue
            for k in range(c + 1, n + 1):
                u = a * rr[k] - b * ri[k] - x * tr[k] + y * ti[k]
                v = a * ri[k] + b * rr[k] - x * ti[k] - y * tr[k]
                rr[k], ri[k] = (u * pr + v * pi) // norm, (v * pr - u * pi) // norm
        pr, pi, norm = a, b, a * a + b * b
    xr, xi = [0] * n, [0] * n
    for c in range(n - 1, -1, -1):
        row = R[c]
        if I is None:
            acc = pr * row[n] - sum(row[k] * xr[k] for k in range(c + 1, n))
            xr[c] = acc // row[c]
            continue
        ir = I[c]
        u = pr * row[n] - pi * ir[n]
        v = pr * ir[n] + pi * row[n]
        for k in range(c + 1, n):
            u -= row[k] * xr[k] - ir[k] * xi[k]
            v -= row[k] * xi[k] + ir[k] * xr[k]
        a, b = row[c], ir[c]
        m = a * a + b * b
        xr[c], xi[c] = (u * a + v * b) // m, (v * a - u * b) // m
    return xr, xi, pr, pi


def _ring(A: UniPoly, prec):
    """[s, L, a, bits, sums]: the monic A of degree n as it enters the ring
    (module docstring), kept on A by prec.  With prec None, a rational A
    enters exactly in w = L z (``int_monic``): a = (its n lower ints, [],
    0), s = 0 and bits None; False when A is not rational.  Otherwise A
    enters at prec in w = z / 2^s (``_graded_block``), L = 1 and bits =
    prec + ``GUARD_BITS``.  sums holds the power sums of the roots in w
    formed so far (``_ring_sums``)."""
    memo = A._rings
    if memo is None:
        memo = {}
        object.__setattr__(A, "_rings", memo)
    r = memo.get(prec)
    if r is None:
        if prec is None:
            v = int_monic(A.coeffs)
            r = [0, v[1], (v[0][:-1], [], 0), None, ()] if v else False
        else:
            s, a = _graded_block(A, prec)
            r = [s, 1, a, prec + GUARD_BITS, ()]
        memo[prec] = r
    return r


def _ring_sums(r, k_max):
    """s_0..s_k_max, at least, of the roots in the ring entry r's w
    (``_block_power_sums``), kept on r; a call that asks for more forms them
    all again, and each caller places them on its own grid."""
    S = r[4]  # read once: another thread may put a shorter prefix there
    if len(S) <= k_max:
        S = r[4] = _block_power_sums(r[2], k_max, r[3])
    return S


def _enter(A: UniPoly, polys, K=0, mixed=False):
    """(r, xs, q, prec): the ring's one entry.  r is A's (``_ring``), and
    xs[p] the fixed-point vector (re, im, e) (``scalars.fixed_point``) of q
    polys[p](2^s w / L) in its w = L z / 2^s, polys being lists of ascending
    Scalars whose coefficients past K are exact zeros, one q for all; prec
    is the largest precision of a complex coefficient of A or polys, None
    when there is none.  The ring is exact when A is rational and so is
    every coefficient of polys, or when A is and ``mixed``: q = D L^K, D the
    common denominator of their rational coefficients, each imaginary list
    empty when every one is rational.  Otherwise A and polys enter at prec
    and q = 1."""
    flat = polys[0] if len(polys) == 1 else [c for p in polys for c in p]
    r = _ring(A, None)
    v = r and int_vector(flat)
    if v:
        (re, D), im, e, prec = v, [], 0, None
    else:
        prec = max(c.prec or 0 for c in [*flat, *A.coeffs]) or None
        if not (r and mixed):
            r = _ring(A, prec)
            return r, [fixed_point(p, prec, r[0]) for p in polys], 1, prec
        D = int_vector([c for c in flat if c.is_rational])[1]
        re, im, e = fixed_point(flat, prec, 0, D)
    L = r[1]
    f, xs, o = L != 1 and [L ** (K - i) for i in range(K + 1)], [], 0
    for p in polys:
        k, o = o, o + len(p)
        x, y = re[k:o], im[k:o]
        if f:
            x, y = list(map(operator.mul, x, f)), y and list(map(operator.mul, y, f))
        xs.append((x, y, e))
    return r, xs, D * L ** K, prec


def _leave(v, d, prec, r):
    """The Scalars of the vector v = (re, im, e) of the ring entry r over d
    back in z: entry i is (re_i + im_i i) 2^(e - s i) L^i / d
    (``from_ratio``), exact when prec is None, otherwise each part rounded
    once at prec."""
    (re, im, e), (s, L) = v, r[:2]
    if prec is None:
        return [from_ratio(x * L ** i, 0, d) for i, x in enumerate(re)]
    return [from_ratio(x, y, d, e - s * i, prec)
            for i, (x, y) in enumerate(zip(re, im or [0] * len(re)))]


def _graded_block(A: UniPoly, prec):
    """(s, a): the monic A of degree n in w = z / 2^s, a the fixed-point
    vector (``scalars.fixed_point``) of the lower coefficients of A(2^s w) /
    2^(s n).  2^s is about A's largest root, s the largest floor(hi / (n -
    j)) over A's nonzero a_j, hi the upper binade of |a_j|
    (``mag_binades``), so those coefficients are at most about 2^n and
    every coefficient of a row weighs alike in its cut."""
    n = A.degree
    s = max((b[1] // (n - j) for j, b in enumerate(map(mag_binades, A.coeffs[:n]))
             if b and b[1] > -inf), default=0)
    ar, ai, ea = fixed_point(A.coeffs[:n], prec, s)
    return s, (ar, ai, ea - s * n)


def gauss_mul_mod(v, t, a, bits, u=None):
    """(V T + u) modulo the monic A on fixed-point Gaussian-integer vectors
    (re, im, e) (``scalars.fixed_point``), V = sum (re_i + im_i i) 2^e z^i,
    an empty imaginary list standing for zeros: v is V, t holds T's
    coefficients, a the n lower coefficients of A, and u, one (re, im, e) or
    None, joins the constant term.  The product and the sum are exact;
    then, unless bits is None, one shift cuts them to ``bits`` bits of the
    largest part, rounding to nearest, and the reduction rounds each term r
    a_j to nearest on that grid.  With bits None and A on ints (e >= 0)
    every step is exact, and on real operands it runs on the real parts
    alone.  Returns the n coefficients as a vector."""
    vr, vi, e = v
    tr, ti, et = t
    ar, ai, ea = a
    n = len(ar)
    size = max(len(vr) + len(tr) - 1, n, 1)
    pr, real = [0] * size, ea >= 0 and not (vi or ti or ai or u and u[1])
    if real:
        pi = []
        for j, c in enumerate(tr):
            if c:
                for i, x in enumerate(vr, j):
                    pr[i] += x * c
    else:
        vi, ti, ai, pi = vi or [0] * len(vr), ti or [0] * len(tr), ai or [0] * n, [0] * size
        terms = [(j, c, d) for j, (c, d) in enumerate(zip(tr, ti)) if c or d]
        for i, x in enumerate(vr):
            y = vi[i]
            if x or y:
                for j, c, d in terms:
                    pr[i + j] += x * c - y * d
                    pi[i + j] += x * d + y * c
    e += et
    if u is not None:
        ur, ui, eu = u
        if eu < e:
            pr, pi, e = [x << e - eu for x in pr], [y << e - eu for y in pi], eu
        pr[0] += ur << eu - e
        if ui:
            pi[0] += ui << eu - e
    if bits is not None:
        pr, pi, e = _cut(pr, pi, e, bits)
    if ea > 0:
        ar, ai, ea = [c << ea for c in ar], [d << ea for d in ai], 0
    if real:  # A on ints: the reduction is exact
        for m in range(size - 1, n - 1, -1):
            x = pr[m]
            if x:
                for j, c in enumerate(ar, m - n):
                    pr[j] -= x * c
        return pr[:n], pi, e
    h = 1 << -ea >> 1
    low = [(j, c, d) for j, (c, d) in enumerate(zip(ar, ai)) if c or d]
    for m in range(size - 1, n - 1, -1):
        x, y = pr[m], pi[m]
        if x or y:
            for j, c, d in low:
                pr[m - n + j] -= x * c - y * d + h >> -ea
                pi[m - n + j] -= x * d + y * c + h >> -ea
    return pr[:n], pi[:n], e


GRADED_GUARD_BITS = 16  # past the bits asked of ``graded_horner``, on its grid
SIZE_BITS = 64  # of ``graded_horner``'s size, the one sum that is rounded up


class Graded(NamedTuple):
    """``graded_horner`` at one point z: p(z) = (re + im i) 2^e / d as p =
    (re, im, d, e), in the order of ``scalars.from_ratio``'s arguments;
    p'(z) = (re + im i) 2^e as dp = (re, im, e), or None; an int size with
    sum |c_j| |z|^j <= size 2^e (p's e), or None; and z as it was graded,
    (x + y i) 2^e as point = (x, y, e), or, when exact, as it entered, (a +
    ai i) / b as point = (a, ai, b)."""
    p: tuple
    dp: tuple
    size: int
    point: tuple


def graded_horner(cs, zs, bits, derivative=False, size=False):
    """The polynomial p with the ascending Scalar coefficients cs (n + 1 of
    them) at each point of zs, on ints, as one ``Graded`` per point.  A
    point is a Scalar, a raw libmp pair or the (x, y, e) of a ``Graded``.

    Each point z is graded by its own size: z = 2^g w with 1/2 <= |w| < 1,
    g read off |z|^2, and w enters as W = w 2^F rounded to nearest, F =
    bits + ``GRADED_GUARD_BITS``.  The coefficient c_j counts as B_j = c_j
    2^(j g) on the grid 2^G, G = T - F, where 2^T bounds the largest |B_j|
    by its larger part (at z = 0, |c_0|, and |c_1| for the derivative), so
    a small point keeps its relative bits and a term F bits below the
    largest drops out.  B_n enters rounded to nearest; Horner in w then
    takes per coefficient one Gaussian product by W, adds B_j on the
    product's grid (cut there, 2^-F of the grid), and rounds the sum once
    by F, with the derivative's Horner beside it when asked.  size is the
    same Horner on |c_j| 2^(j g) and |W| on a grid of ``SIZE_BITS`` bits,
    every rounding up.  The cs enter once per call (a rational that is
    not dyadic rounded at bits + ``scalars.GUARD_BITS``).  The stated
    bound: |p - p(z)| <= (n + 1)^2 2^G, since no |B_j| exceeds sqrt(2) 2^F
    grid units and |w| < 1: at most n + 1 grid units from the roundings
    and n (n + 1) / 2 from W's.

    With bits None every point must be a Scalar, and p(z) is exact: the
    sum of c_j a^j b^(n-j) 2^e over D b^n, with no dp or size, for the c_j
    as Gaussian integers times 2^e over D, the rationals' common
    denominator (``fixed_point`` with scale D drops no bit), and z = (a +
    ai i) / b as point, over its denominator or its 2^-e.  ValueError for
    an infinity or nan."""
    n = len(cs) - 1
    out = []
    if bits is None:
        D = int_vector([c for c in cs if c.is_rational])[1]
        cr, ci, ec = fixed_point(cs, None, scale=D)
        for z in zs:
            if z.is_rational:
                ((a,), b), ai = int_vector([z]), 0
            else:
                a, ai, e = _gauss_point(z, 0)
                a, ai, b = (a, ai, 1 << -e) if e < 0 else (a << e, ai << e, 1)
            h, hi, bk = cr[n], ci[n], 1
            for j in range(n - 1, -1, -1):
                bk *= b
                h, hi = h * a - hi * ai + cr[j] * bk, h * ai + hi * a + ci[j] * bk
            out.append(Graded((h, hi, D * bk, ec), None, None, (a, ai, b)))
        return out
    F = bits + GRADED_GUARD_BITS
    h = 1 << F - 1
    cr, ci, ec = fixed_point(cs, bits)
    tops = [(max(a, -a, b, -b).bit_length() + ec, j) for j, (a, b) in enumerate(zip(cr, ci))
            if a or b]
    mags = size and [_mag_up(a, b) for a, b in zip(cr, ci)]
    for z in zs:
        x, y, e = _gauss_point(z, bits)
        N = x * x + y * y
        if not N:  # p(0) = c_0 and p'(0) = c_1, each rounded once on the grid
            G = max([t for t, j in tops if j <= derivative] or [F]) - F
            p, dp = ([(_round_shift(a, ec - G), _round_shift(b, ec - G))
                      for a, b in zip(cr[:2], ci[:2])] + [(0, 0)])[:2]
            out.append(Graded((*p, 1, G), derivative and (*dp, G) or None,
                              size and _round_shift(mags[0][0], mags[0][1] + ec - G, up=True),
                              (0, 0, -F)))
            continue
        g = (N.bit_length() + 1 >> 1) + e
        G = max([t + j * g for t, j in tops] or [F]) - F
        X, Y = _round_shift(x, e - g + F), _round_shift(y, e - g + F)
        s = ec + n * g - G  # c_n's shift onto the grid 2^G
        pr, pi, dr, di = _round_shift(cr[n], s), _round_shift(ci[n], s), 0, 0
        s += F  # c_j's shift onto a product's grid, 2^-F of the grid
        for j in range(n - 1, -1, -1):
            s -= g
            a, b = cr[j], ci[j]
            if s >= 0:
                a, b = (a << s) + h, (b << s) + h
            else:
                a, b = (a >> -s) + h, (b >> -s) + h
            if derivative:
                dr, di = (dr * X - di * Y + h >> F) + pr, (dr * Y + di * X + h >> F) + pi
            pr, pi = pr * X - pi * Y + a >> F, pr * Y + pi * X + b >> F
        m = None
        if size:  # on the grid 2^(G + k), with |w| in units of 2^(k - F)
            k = max(F - SIZE_BITS, 0)
            wm, wt = _mag_up(X, Y)
            wa = _round_shift(wm, wt - k, up=True)
            m, s = 0, ec + n * g - G - k
            for c, t in reversed(mags):
                m = (m * wa >> F - k) + 1 + _round_shift(c, t + s, up=True)
                s -= g
            m <<= k
        out.append(Graded((pr, pi, 1, G), derivative and (dr, di, G - g) or None, m,
                          (X, Y, g - F)))
    return out


def _round_shift(m, s, up=False):
    """The int m times 2^s: exact when s >= 0, otherwise rounded to
    nearest, or up for m >= 0 when up."""
    if s >= 0:
        return m << s
    return (m >> -s) + 1 if up else (m >> -s - 1) + 1 >> 1


def _mag_up(x, y):
    """(m, t) with |x + y i| <= m 2^t: m of about ``SIZE_BITS`` bits,
    rounded up, and t >= 0."""
    t = max(abs(x).bit_length(), abs(y).bit_length()) - SIZE_BITS
    if t <= 0:
        return ceil_abs(x, y), 0
    return ceil_abs((abs(x) >> t) + 1, (abs(y) >> t) + 1), t


def ceil_abs(x, y):
    """|x + y i| rounded up to an int."""
    N = x * x + y * y
    return isqrt(N - 1) + 1 if N else 0


def _gauss_point(z, bits):
    """A point of ``graded_horner`` as a Gaussian integer (x, y, e), (x + y
    i) 2^e, exactly: a raw libmp pair by its mantissas, a Scalar by its raw
    pair (a rational that is not dyadic rounded at bits + ``GUARD_BITS``);
    an (x, y, e) is itself.  ValueError for an infinity or nan."""
    if isinstance(z, Scalar):
        z = z._raw(bits + GUARD_BITS)
    elif len(z) == 3:
        return z
    (sa, ma, ea, _), (sb, mb, eb, _) = z
    if not ma and ea or not mb and eb:
        raise ValueError("a point must be finite")
    e = min(ea if ma else eb, eb if mb else ea)
    return ((-ma if sa else ma) << ea - e if ma else 0,
            (-mb if sb else mb) << eb - e if mb else 0, e)


def _cut(re, im, e, bits):
    """The fixed-point vector (re, im, e) shifted to ``bits`` bits of its
    largest part, rounding to nearest; itself when bits is None."""
    if bits is None:
        return re, im, e
    s = max(map(abs, re + im), default=0).bit_length() - bits
    if s > 0:
        re = [(c >> s - 1) + 1 >> 1 for c in re]
        im = [(c >> s - 1) + 1 >> 1 for c in im]
    elif s < 0:
        re, im = [c << -s for c in re], [c << -s for c in im]
    return re, im, e + s


def fixed_sum(terms, bits):
    """The sum of the Gaussian integers (re, im, e), (re + im i) 2^e, of
    ``terms`` as one (re, im, g), each term placed on the grid of 2^g
    (``_grid``, ``_to_grid``); one term is cut to ``bits`` bits
    (``_cut1``)."""
    if len(terms) == 1:
        return _cut1(*terms[0], bits)
    g = _grid(terms, bits)
    sr = si = 0
    for re, im, e in terms:
        re, im = _to_grid(re, im, e, g)
        sr += re
        si += im
    return sr, si, g


def _on_grid(values, bits):
    """The Gaussian integers (re, im, e) of ``values`` as one fixed-point
    vector on the grid of ``bits`` bits of the largest, each placed as
    ``_to_grid`` places one, its imaginary list empty when every imaginary
    part is zero."""
    g = _grid(values, bits)
    re = [x << e - g if e >= g else (x >> g - e - 1) + 1 >> 1 for x, _, e in values]
    im = [y << e - g if e >= g else (y >> g - e - 1) + 1 >> 1 for _, y, e in values]
    return re, im if any(im) else [], g


def _cut1(re, im, e, bits):
    """The Gaussian integer (re + im i) 2^e as (re, im, e) with at most
    ``bits`` bits in its larger part, rounding to nearest; itself when bits
    is None."""
    s = -1 if bits is None else max(re, -re, im, -im).bit_length() - bits
    if s > 0:
        return (re >> s - 1) + 1 >> 1, (im >> s - 1) + 1 >> 1, e + s
    return re, im, e


def _to_grid(re, im, e, g):
    """The ints of (re + im i) 2^e on the grid of 2^g: exact when e >= g,
    otherwise rounded to nearest."""
    if e >= g:
        return re << e - g, im << e - g
    d = g - e
    return (re >> d - 1) + 1 >> 1, (im >> d - 1) + 1 >> 1


def _grid(values, bits):
    """The exponent g of the grid that the Gaussian integers (re, im, e)
    of ``values`` are placed on, each rounded to nearest: their least
    exponent when bits is None, so that nothing is rounded, otherwise the
    top binade of the largest part less bits (0 when all are zero)."""
    if bits is None:
        return min((e for re, im, e in values if re or im), default=0)
    return max((max(re, -re, im, -im).bit_length() + e for re, im, e in values if re or im),
               default=bits) - bits


def _block_power_sums(a, k_max, bits):
    """s_0..s_k_max of the roots of the monic w^n + sum a_j w^j, a = (ar,
    ai, ea) the fixed-point vector of its n lower coefficients, as Gaussian
    integers (re, im, e): Newton's identities, s_k = -(sum_(i<k) a_(n-i)
    s_(k-i) + k a_(n-k)) (a_(n-k) = 0 past n), on a cut to ``bits`` bits,
    each sum held to ``bits`` bits of its largest term (``fixed_sum``).  For
    A on real ints, as the ring's exact entry makes it (ai empty, ea 0, bits
    None), they run on ints with no grid."""
    ar, ai, ea = a
    n = len(ar)
    if bits is None and not ai and not ea:
        S = [n]
        for k in range(1, k_max + 1):
            acc = k * ar[n - k] if k <= n else 0
            for i in range(1, min(k - 1, n) + 1):
                acc += ar[n - i] * S[k - i]
            S.append(-acc)
        return [(x, 0, 0) for x in S]
    ar, ai, ea = _cut(ar, ai or [0] * n, ea, bits)
    low = [(n - j, c, d) for j, (c, d) in enumerate(zip(ar, ai)) if c or d]
    S = [(n, 0, 0)]
    for k in range(1, k_max + 1):
        terms = []
        for i, c, d in low:
            if i < k:
                x, y, e = S[k - i]
                terms.append((y * d - x * c, -(x * d + y * c), ea + e))
            elif i == k:
                terms.append((-k * c, -k * d, ea))
        S.append(fixed_sum(terms, bits))
    return S


def int_monic(coeffs):
    """The rational polynomial of ascending Scalar coefficients ``coeffs``,
    of degree n, as the monic integer polynomial in w = L z whose roots are
    L times its roots: (a, L), a[j] = an_j L^(n-1-j) for its coefficients
    an_j over one denominator (``int_vector``), signs flipped so that
    L = an_n > 0, and a[n] = 1; None when one of them is complex."""
    v = int_vector(coeffs)
    if v is None:
        return None
    an = v[0] if v[0][-1] > 0 else [-c for c in v[0]]
    n, L = len(an) - 1, an[-1]
    if L == 1:
        return an, 1
    return [c * L ** (n - 1 - j) for j, c in enumerate(an[:n])] + [1], L


def deflate(poly: UniPoly, root) -> UniPoly:
    """Synthetic division of a monic polynomial by (var - root), remainder dropped."""
    root = as_scalar(root)
    d = list(reversed(poly.coeffs))  # descending
    out = [d[0]]
    for c in d[1:-1]:
        out.append(c + out[-1] * root)
    return UniPoly(list(reversed(out)), poly.var)


def power_sums(poly: UniPoly, k_max: int):
    """Newton's identities, coefficients to power sums: the tuple (s_0, s_1,
    ..., s_{k_max}) of the roots, s_0 being the degree as an exact rational.

    Degree 0 is rejected; s_k does not depend on k_max.  s_k = S_k 2^(s k)
    / L^k, exact or rounded once, S_k those of the roots in the ring's w,
    which the monic polynomial's ring entry keeps (``_ring_sums``); each
    call rounds them again.
    """
    if poly.degree < 1:
        raise ValueError("power sums need degree at least 1")
    p = poly if _ring(poly, None) or poly.is_monic() else poly.monic()[0]
    r, _, _, prec = _enter(p, [])
    s, L, S = r[0], r[1], _ring_sums(r, k_max)
    return (rat(p.degree),) + tuple(from_ratio(x, y, L ** k, e + s * k, prec)
                                    for k, (x, y, e) in enumerate(S[1:k_max + 1], 1))


def newton_elementary(sums, q, prec, bits, width=0, read=None):
    """Newton's identities back: e_1..e_m, dicts to nonzero Scalars, from
    ``sums`` = P_1..P_m, P_i = q^i s_i for power sums s_i that are forms in
    ``width`` parameters: dicts from exponent tuples (() for none) to
    nonzero Gaussian integers (re, im, e), (re + im i) 2^e.  G_k = k! q^k
    e_k is sum_(i=1..k) (-1)^(i-1) (k-1)!/(k-i)! P_i G_(k-i), each entry
    held to ``bits`` bits of its largest term (``fixed_sum``), and e_k =
    G_k / (k! q^k) is rounded once at prec (``from_ratio``); both are exact
    when bits and prec are None, and then, in no parameter, the sums are
    real ints and G runs on them with no dict.  Only the e_k for k in
    ``read`` (ascending; None for all) are made, in that order: the G_k of
    the rest stay ints."""
    if not width and prec is None:
        out, d = [], 1
        for k, Gk in enumerate(_newton_ints([s[()][0] if s else 0 for s in sums]), 1):
            d *= k * q
            if read is None or k in read:
                out.append({(): from_ratio(Gk, 0, d)} if Gk else {})
        return out
    G, out, d = [{(0,) * width: (1, 0, 0)}], [], 1
    for k in range(1, len(sums) + 1):
        terms, f = {}, 1
        for i in range(1, k + 1):
            c = f if i % 2 else -f
            f *= k - i
            for ka, (ar, ai, ea) in G[k - i].items():
                for kb, (br, bi, eb) in sums[i - 1].items():
                    key = tuple(map(operator.add, ka, kb)) if kb else ka
                    terms.setdefault(key, []).append(
                        (c * (ar * br - ai * bi), c * (ar * bi + ai * br), ea + eb))
        d *= k * q
        Gk = {}
        for key, ts in terms.items():
            re, im, e = v = fixed_sum(ts, bits)
            if re or im:
                Gk[key] = v
        G.append(Gk)
        if read is None or k in read:
            out.append({key: from_ratio(re, im, d, e, prec) for key, (re, im, e) in Gk.items()})
    return out


def _newton_ints(P):
    """G_1..G_m from the ints P_1..P_m by Newton's identities on ints, G_k =
    sum_(i=1..k) (-1)^(i-1) (k-1)!/(k-i)! P_i G_(k-i) with G_0 = 1: the
    exact body of ``newton_elementary``, so G_k = k! q^k e_k when P_i = q^i
    s_i."""
    G = [1]
    for k in range(1, len(P) + 1):
        acc, f = 0, 1
        for i in range(1, k + 1):
            acc, f = acc + (f if i % 2 else -f) * P[i - 1] * G[k - i], f * (k - i)
        G.append(acc)
    return G[1:]


def monic_from_traces(P, q, prec, bits, var):
    """The monic polynomial in ``var`` with power sums s_j given as P_j = q^j
    s_j (``table_traces``): y^n + sum_k e_k(-y) y^(n-k), Newton's identities
    run on the power sums (-1)^j s_j of the -y_i (``newton_elementary``)."""
    es = newton_elementary([{(): (-re, -im, e) if j % 2 else (re, im, e)} if re or im else {}
                            for j, (re, im, e) in enumerate(P, 1)], q, prec, bits)
    return UniPoly._of([e.get((), ZERO) for e in reversed(es)] + [ONE], var)


def matches_traces(C: UniPoly, P, q) -> bool:
    """Is C the polynomial ``monic_from_traces`` makes of the exact traces
    P_j = q^j s_j (``table_traces`` of an exact table)?  Decided on ints,
    with no Scalar made: C must be monic of degree n = len(P), and its
    coefficient of y^(n-k) equal G_k / (k! q^k) for the G_k of Newton's
    identities on the (-1)^j P_j (``_newton_ints``), cross-multiplied
    (``scalars.equals_ratio``)."""
    n, cs = len(P), C.coeffs
    if C.degree != n or not C.is_monic():
        return False
    d = 1
    G = _newton_ints([-re if j % 2 else re for j, (re, _, _) in enumerate(P, 1)])
    for k, Gk in enumerate(G, 1):
        d *= k * q
        if not equals_ratio(cs[n - k], Gk, d):
            return False
    return True


def poly_from_power_sums(sums, var: str = "y") -> UniPoly:
    """Newton's identities, the Scalars s_1..s_n back to a monic polynomial
    (``monic_from_traces``), the sums entering the ring of degree 0 as
    constants over one q, P_i = q^i s_i: exactly, or with each coefficient
    rounded once at the largest precision of a sum."""
    sums = list(sums)
    if not sums:
        raise ValueError("need at least one power sum")
    r, ps, q, prec = _enter(UniPoly._of([ONE]), [[c] for c in sums])
    return monic_from_traces([(re * q ** i, im[0] * q ** i if im else 0, e)
                              for i, ((re,), im, e) in enumerate(ps)], q, prec, r[3], var)
