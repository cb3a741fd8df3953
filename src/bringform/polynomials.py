"""Dense univariate polynomials with Scalar coefficients, and the power-sum
(Newton) conversions.

Coefficients are stored ascending: coeffs[j] multiplies var**j.  Every
coefficient is a Scalar; ints and Fractions are lifted to exact rationals
and anything else, a polynomial included, raises TypeError.  Conditions in
free parameters are not polynomials over polynomials: they are power-sum
forms (``elimination.image_elementary``).  All values are immutable;
operations return new objects, and + - * take a polynomial on both sides.
The products of ``image_elementary`` run on plain lists of ascending
Scalars (``mul_terms``, which ``UniPoly.__mul__`` wraps), with no UniPoly
per product.  Every product modulo A runs on ints instead, by one kernel,
``gauss_mul_mod``: the table of T^j mod A (``powers_mod``, its one
builder), the certificate's U(T) (``compose_mod``) and the columns of
``elimination.map_charpoly``'s matrix (``columns_mod``), so this module
alone owns the ring's scalings.  Where every coefficient is rational, the
three, and Newton's identities both ways (``power_sums``,
``poly_from_power_sums``), run exactly on Python ints over one common
denominator (``scalars.int_vector``) in one scaling, the monic integer
polynomial in w = L z (``int_monic``), so reducing modulo it is a plain
division (``int_rem_monic``); they make Scalars only for what they return,
the canonical rationals the Scalar operations give.  Otherwise they run on
a fixed-point block, a vector of Gaussian integers times one power of two
(``scalars.fixed_point``), in w = z / 2^s with 2^s about A's largest root
(``_graded_block``): each product is cut once to a fixed number of bits of
its largest part; a row leaves the block with each part rounded once
(``scalars.from_fixed_point``), and the columns stay ints for the
determinant.  The traces between them
(``elimination.transform_by_power_sums``) are Scalar sums.  ``Record`` is
the read-only base of ``UniPoly`` and of the records in other modules that
do work at construction.  A ``UniPoly`` also keeps three memo slots, filled
on first use and never part of equality, repr or JSON: its largest
coefficient magnitude (``max_mag``), its terms that are not exact zeros
(``terms``), and the power sums of its roots computed so far
(``power_sums``), a prefix that only grows.
"""

from __future__ import annotations

from math import inf

import mpmath

from .scalars import (DEFAULT_PRECISION_BITS, GUARD_BITS, ONE, ZERO, Gauss, Scalar,
                      as_scalar, as_tol, context, fixed_point, fma, fms, from_fixed_point,
                      int_vector, mag_binades, mul, negligible, noise_tol, pivot_index, rat,
                      rational_vector)


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

    # _max_mag, _terms and _sums are memo slots (module docstring)
    __slots__ = ("coeffs", "var", "_max_mag", "_terms", "_sums")

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
        object.__setattr__(self, "_sums", ())

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
        return bool(self.coeffs) and self.coeffs[-1] == 1

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
        return UniPoly._of(mul_terms(self.coeffs, other.terms()), self.var)

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
            acc = fma(c, acc, x)  # the exact sum of acc * x + c, rounded alike
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


def relative_residual(A: UniPoly, z):
    """|A(z)| / (coeff_scale(A) * max(1, |z|)^deg A), how far the Scalar z is
    from a root of A relative to the size of A's terms there, rounded at the
    precision of z (``DEFAULT_PRECISION_BITS`` for a rational z)."""
    ctx = context(z.prec or DEFAULT_PRECISION_BITS)
    den = ctx.mpf(coeff_scale(A)) * ctx.mpf(max(1, z.mag())) ** A.degree
    return ctx.mpf(A.eval(z).mag()) / den


def lies_on(A: UniPoly, z, tol=None) -> bool:
    """Is z a root of A, with a ``relative_residual`` of at most tol?

    The ``mag_binades`` of A(z) and z and the binade of coeff_scale(A)
    bound the residual between two powers of two, and no rounding to
    nearest carries a value past a power of two, so they bound it as
    ``relative_residual`` rounds it too.  When both bounds lie two binades
    clear of tol, they decide, with no square root; otherwise the residual
    is computed."""
    bound = as_tol(tol)
    sign, man, exp, bc = bound._mpf_
    zb = mag_binades(z)
    if man and not sign and zb is not None:
        rb = mag_binades(A.eval(z))
        s = coeff_scale(A)._mpf_
        if rb is not None and s[1]:
            top, se, n = exp + bc, s[2] + s[3], A.degree
            # 2^(se - 1) <= coeff_scale(A) < 2^se, and max(1, |z|)^n lies
            # between 2^(n max(0, lo)) and 2^(n max(0, hi)) for z's binades
            if rb[1] - se + 1 - n * max(0, zb[0]) < top - 1:
                return True
            if rb[0] - se - n * max(0, zb[1]) > top:
                return False
    return relative_residual(A, z) <= bound


def coeff_mismatch(P: UniPoly, Q: UniPoly, tol):
    """(k, P_k - Q_k) at the first power k where the difference is not
    ``negligible`` at tol * coeff_scale(P, Q), or None: two rational
    coefficients must agree exactly, so they are compared with ==."""
    t = None  # tol * coeff_scale(P, Q), which a rational difference never reads
    for k in range(max(P.degree, Q.degree) + 1):
        p, q = P.coeff(k), Q.coeff(k)
        if p.is_rational and q.is_rational:
            if p == q:
                continue
            return k, p - q
        d = p - q
        if t is None and not d.is_rational:
            t = as_tol(tol, coeff_scale(P, Q))
        if not negligible(d, t):
            return k, d
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


def mul_terms(cs, terms):
    """cs (ascending Scalars) times the polynomial of ``terms`` (its nonzero
    ``UniPoly.terms``), ascending and without trailing exact zeros."""
    out = [None] * (len(cs) + terms[-1][0]) if terms else []
    for i, a in enumerate(cs):
        if a.is_exact_zero():
            continue
        for j, b in terms:
            c = out[i + j]
            out[i + j] = mul(a, b) if c is None else fma(c, a, b)
    while out and (out[-1] is None or out[-1].is_exact_zero()):
        out.pop()
    return [ZERO if c is None else c for c in out]


def powers_mod(T: UniPoly, A: UniPoly):
    """T^0, T^1, ..., T^n modulo the monic A (n = deg A), each as the tuple of
    its n ascending coefficients, row j + 1 being row j times T reduced
    modulo A; the package's one builder of the table.

    When every coefficient of T and A is rational it runs on ints, in
    w = L z (``int_monic``): with T = tn / td of degree k, Tw(w) = td L^k
    T(w / L) has integer coefficients tn_i L^(k-i), and row j is Tw^j
    modulo the monic integer A(w / L), a plain division, whose coefficient
    of w^i times L^i / (td L^k)^j is that of z^i in T^j mod A.  Otherwise
    T and A enter one fixed-point Gaussian-integer block
    (``scalars.fixed_point``) at the largest precision prec of a complex
    coefficient, each row is the last times T modulo A by ``gauss_mul_mod``,
    cut to prec + ``GUARD_BITS`` bits, and leaves the block with each part
    rounded once at prec (``scalars.from_fixed_point``).
    """
    n = A.degree
    vt = int_vector(T.coeffs)
    va = None if vt is None else int_monic(A.coeffs)
    if va is None:
        prec = max(c.prec or 0 for c in T.coeffs + A.coeffs)
        s, t, a = _graded_block(T.coeffs, A, prec)
        v = ([1] + [0] * (n - 1), [0] * n, 0) if n else ([], [], 0)
        out = [tuple(ONE if x else ZERO for x in v[0])]
        for _ in range(n):
            v = gauss_mul_mod(v, t, a, prec + GUARD_BITS)
            out.append(tuple(from_fixed_point(v, prec, s)))
        return tuple(out)
    (tn, td), (a, L) = vt, va
    k = max(len(tn) - 1, 0)
    tw = [(i, c * L ** (k - i)) for i, c in enumerate(tn) if c]
    low = [(j, c) for j, c in enumerate(a[:n]) if c]
    scale, q = [L ** i for i in range(n)], td * L ** k
    row = [int(i == 0) for i in range(n)]
    out = [tuple(rational_vector(row, 1))]
    for j in range(1, n + 1):
        prod = [0] * (n + k)
        for i, x in enumerate(row):
            if x:
                for m, c in tw:
                    prod[i + m] += x * c
        row = int_rem_monic(prod, low, n)
        out.append(tuple(rational_vector([x * f for x, f in zip(row, scale)], q ** j)))
    return tuple(out)


HORNER_GUARD_BITS = 7  # past prec, in each product of U(T) (TransformStep.certify)


def compose_mod(U: UniPoly, T: UniPoly, A: UniPoly):
    """The n ascending coefficients of U(T) modulo the monic A (n = deg A),
    by Horner on ``gauss_mul_mod``: one call per coefficient of U, highest
    first, each joining the product before the reduction.

    When every coefficient of U, T and A is rational the calls run exactly
    on ints, in w = L z as in ``powers_mod``: with U = un / du of degree m
    and q = td L^k, R = sum un_j q^(m-j) Tw^j modulo the monic integer
    A(w / L), and the coefficient of z^i is R_i L^i / (du q^m).  Otherwise
    all three enter one fixed-point block at the largest precision prec of
    a complex coefficient, as in ``powers_mod``, each product is cut to
    prec + ``HORNER_GUARD_BITS`` bits, and the result leaves the block with
    each part rounded once at prec.
    """
    n = A.degree
    vt = int_vector(T.coeffs)
    vu = None if vt is None else int_vector(U.coeffs)
    va = None if vu is None else int_monic(A.coeffs)
    if va is None:
        prec = max(c.prec or 0 for c in U.coeffs + T.coeffs + A.coeffs)
        s, t, a = _graded_block(T.coeffs, A, prec)
        ur, ui, eu = fixed_point(U.coeffs, prec)
        us, bits = [(x, y, eu) for x, y in zip(ur, ui)], prec + HORNER_GUARD_BITS
    else:
        (tn, td), (un, du), (an, L) = vt, vu, va
        k, m, bits = max(len(tn) - 1, 0), len(un) - 1, None
        q = td * L ** k
        t = ([c * L ** (k - i) for i, c in enumerate(tn)], [0] * len(tn), 0)
        a = (an[:n], [0] * n, 0)
        us = [(c * q ** (m - j), 0, 0) for j, c in enumerate(un)]
    v = ([0] * n, [0] * n, 0)
    for u in reversed(us):
        v = gauss_mul_mod(v, t, a, bits, u)
    if bits is not None:
        return from_fixed_point(v, prec, s)
    return rational_vector([x * L ** i for i, x in enumerate(v[0])], du * q ** max(m, 0))


def columns_mod(t_coeffs, A: UniPoly):
    """(N, (e, d, prec)): the matrix of multiplication by T (ascending
    Scalar coefficients ``t_coeffs``) modulo the monic A of degree n >= 1,
    up to similarity, as the n columns of ints and ``Gauss`` integers N
    whose entries times 2^e / d are its entries; prec is the largest
    precision of a complex coefficient, None when the entries are exact.
    A complex exact zero counts as the rational 0.

    For rational T = tn / td and A (``int_vector``, ``int_monic``) column i
    is w^i Tw modulo the monic integer A(w / L) in w = L z, Tw = q T(w / L),
    q = td L^k, as in ``powers_mod``, exactly: (e, d) = (0, q).  A constant
    map's columns never reach A, so a rational t_0 takes that branch
    whatever A.  Otherwise T and A enter one fixed-point block in
    w = z / 2^s (``_graded_block``): column 0 is T mod A and column i + 1
    is w times column i, each by ``gauss_mul_mod`` cut to prec +
    ``GUARD_BITS`` bits, and the columns are shifted to their least
    exponent e, with d = 1.  So the ints stay short whatever the span of
    the exponents, and an image T(z_i) below the cut of the largest one
    is lost, as in the table.
    """
    n = A.degree
    t = [ZERO if c.is_exact_zero() else c for c in map(as_scalar, t_coeffs)]
    while t and t[-1] is ZERO:
        t.pop()
    vt, va = int_vector(t), None
    if vt is not None:
        va = ([0] * n + [1], 1) if len(t) < 2 else int_monic(
            [ZERO if c.is_exact_zero() else c for c in A.coeffs])
    if va is None:
        prec = max(c.prec or 0 for c in t + list(A.coeffs))
        bits = prec + GUARD_BITS
        _, tv, a = _graded_block(t, A, prec)
        cols = [gauss_mul_mod(([1] + [0] * (n - 1), [0] * n, 0), tv, a, bits)]
        while len(cols) < n:
            cols.append(gauss_mul_mod(cols[-1], ([0, 1], [0, 0], 0), a, bits))
        e = min([f for re, im, f in cols if any(re) or any(im)] or [0])
        N = []
        for re, im, f in cols:
            d = max(f - e, 0)  # a column cut to zero may hold an exponent below e
            N.append([Gauss(x << d, y << d) if y else x << d for x, y in zip(re, im)])
        return N, (e, 1, prec)
    (tn, td), (a, L) = vt, va
    k = max(len(tn) - 1, 0)
    low = [(i, c) for i, c in enumerate(a[:n]) if c]
    cols = [int_rem_monic([c * L ** (k - i) for i, c in enumerate(tn)] + [0] * n, low, n)]
    while len(cols) < n:
        cols.append(int_rem_monic([0] + cols[-1], low, n))
    return cols, (0, td * L ** k, None)


def _graded_block(ts, A: UniPoly, prec):
    """(s, t, a): T (ascending Scalars ``ts``) and the monic A of degree n in
    w = z / 2^s as fixed-point vectors (``scalars.fixed_point``), t of
    T(2^s w) and a of the lower coefficients of A(2^s w) / 2^(s n).  2^s is about A's largest root,
    s the largest floor(hi / (n - j)) over A's nonzero a_j, hi the upper
    binade of |a_j| (``mag_binades``), so those coefficients are at most
    about 2^n and every coefficient of a row weighs alike in its cut."""
    n = A.degree
    s = max((b[1] // (n - j) for j, b in enumerate(map(mag_binades, A.coeffs[:n]))
             if b and b[1] > -inf), default=0)
    ar, ai, ea = fixed_point(A.coeffs[:n], prec, s)
    return s, fixed_point(ts, prec, s), (ar, ai, ea - s * n)


def gauss_mul_mod(v, t, a, bits, u=None):
    """(V T + u) modulo the monic A on fixed-point Gaussian-integer vectors
    (re, im, e) (``scalars.fixed_point``), V = sum (re_i + im_i i) 2^e z^i:
    v is V, t holds T's coefficients, a the n lower coefficients of A, and
    u, one (re, im, e) or None, joins the constant term.  The product and
    the sum are exact; then, unless bits is None, one shift cuts them to
    ``bits`` bits of the largest part, rounding to nearest, and the
    reduction rounds each term r a_j to nearest on that grid.  With bits
    None and A on ints (e >= 0) every step is exact.  Returns the n
    coefficients as a vector.
    """
    vr, vi, e = v
    tr, ti, et = t
    ar, ai, ea = a
    n = len(ar)
    size = max(len(vr) + len(tr) - 1, n, 1)
    pr, pi = [0] * size, [0] * size
    for i, x in enumerate(vr):
        y = vi[i]
        if x or y:
            for j, c in enumerate(tr):
                d = ti[j]
                pr[i + j] += x * c - y * d
                pi[i + j] += x * d + y * c
    e += et
    if u is not None:
        ur, ui, eu = u
        if eu < e:
            pr, pi, e = [x << e - eu for x in pr], [y << e - eu for y in pi], eu
        pr[0] += ur << eu - e
        pi[0] += ui << eu - e
    if bits is not None:
        s = max(map(abs, pr + pi), default=0).bit_length() - bits
        if s > 0:
            pr = [(c >> s - 1) + 1 >> 1 for c in pr]
            pi = [(c >> s - 1) + 1 >> 1 for c in pi]
        elif s < 0:
            pr, pi = [c << -s for c in pr], [c << -s for c in pi]
        e += s
    if ea > 0:
        ar, ai, ea = [c << ea for c in ar], [d << ea for d in ai], 0
    h = 1 << -ea >> 1
    for m in range(size - 1, n - 1, -1):
        x, y = pr[m], pi[m]
        if x or y:
            for j in range(n):
                c, d = ar[j], ai[j]
                pr[m - n + j] -= x * c - y * d + h >> -ea
                pi[m - n + j] -= x * d + y * c + h >> -ea
    return pr[:n], pi[:n], e


def int_rem_monic(P, low, n):
    """The n ascending coefficients of the int list P modulo the monic
    integer polynomial w^n + sum c w^i over the pairs (i, c) of ``low``,
    its nonzero lower terms; P is reduced in place."""
    for m in range(len(P) - 1, n - 1, -1):
        r = P[m]
        if r:
            for i, c in low:
                P[m - n + i] -= r * c
    return P[:n]


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

    Degree 0 is rejected.  The sums are kept on ``poly``, and a later call
    computes only those past the ones kept.  A rational ``poly`` runs on
    ints: S_k = L^k s_k, the power sums of the roots of its monic integer
    polynomial a in w = L z (``int_monic``), is the integer -(sum_(i<k)
    a_(n-i) S_(k-i) + k a_(n-k)) (a_(n-k) = 0 past n), and the sums come
    back over L^k_max; rational sums are canonical, so all of them are
    computed again.  Otherwise the polynomial is normalized monic
    first, and s_k depends on s_1..s_(k-1) alone, so the bits are the same.
    """
    if poly.degree < 1:
        raise ValueError("power sums need degree at least 1")
    n = poly.degree
    known = poly._sums
    if len(known) > k_max:
        return known[:k_max + 1]
    ints = int_monic(poly.coeffs)
    if ints is not None:
        a, L = ints
        S = [n]
        for k in range(1, k_max + 1):
            acc = k * a[n - k] if k <= n else 0
            for i in range(1, min(k - 1, n) + 1):
                acc += a[n - i] * S[k - i]
            S.append(-acc)
        if L != 1:
            S = [x * L ** (k_max - k) for k, x in enumerate(S)]
        object.__setattr__(poly, "_sums", tuple(rational_vector(S, L ** k_max)))
        return poly._sums
    p = poly if poly.is_monic() else poly.monic()[0]
    # elementary symmetric functions: e_k = (-1)^k * c_{n-k}
    e = [ONE]
    for k in range(1, n + 1):
        c = p.coeff(n - k)
        e.append(-c if k % 2 == 1 else c)
    s = list(known) or [rat(n)]
    for k in range(len(s), k_max + 1):
        acc = ZERO
        for i in range(1, min(k - 1, n) + 1):
            acc = (fma if i % 2 == 1 else fms)(acc, e[i], s[k - i])
        if k <= n:
            t = e[k] * k
            acc = acc + t if k % 2 == 1 else acc - t
        s.append(acc)
    object.__setattr__(poly, "_sums", tuple(s))
    return poly._sums


def poly_from_power_sums(sums, var: str = "y") -> UniPoly:
    """Newton's identities, power sums back to a monic polynomial.

    ``sums`` lists the Scalars s_1..s_n.  Rational ones run on ints: over
    their common denominator Q (``int_vector``), P_i = Q^i s_i is an
    integer, G_k = k! Q^k e_k is sum_(i=1..k) (-1)^(i-1) (k-1)!/(k-i)! P_i
    G_(k-i), and the coefficient (-1)^k e_k of y^(n-k) comes back over
    n! Q^n.
    """
    sums = list(sums)
    n = len(sums)
    if n == 0:
        raise ValueError("need at least one power sum")
    ints = int_vector(sums)
    if ints is not None:
        nums, Q = ints
        P = [x * Q ** i for i, x in enumerate(nums)]
        G = [1]
        for k in range(1, n + 1):
            acc, f = 0, 1
            for i in range(1, k + 1):
                if i % 2:
                    acc += f * P[i - 1] * G[k - i]
                else:
                    acc -= f * P[i - 1] * G[k - i]
                f *= k - i
            G.append(acc)
        # (-1)^k G_k (n!/k!) Q^(n-k), from k = n down to 1, then n! Q^n itself
        coeffs, w = [], 1
        for k in range(n, 0, -1):
            coeffs.append(w * G[k] if k % 2 == 0 else -w * G[k])
            w *= k * Q
        coeffs.append(w)
        return UniPoly._of(rational_vector(coeffs, w), var)
    e = [ONE]
    for k in range(1, n + 1):
        acc = mul(e[k - 1], sums[0])
        for i in range(2, k + 1):
            acc = (fma if i % 2 == 1 else fms)(acc, e[k - i], sums[i - 1])
        e.append(acc * rat(1, k))
    coeffs = [None] * (n + 1)
    coeffs[n] = ONE
    for k in range(1, n + 1):
        coeffs[n - k] = e[k] if k % 2 == 0 else -e[k]
    return UniPoly(coeffs, var)
