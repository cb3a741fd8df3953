"""Dense univariate polynomials with Scalar coefficients, and the power-sum
(Newton) conversions.

Coefficients are stored ascending: coeffs[j] multiplies var**j.  Every
coefficient is a Scalar; ints and Fractions are lifted to exact rationals
and anything else, a polynomial included, raises TypeError.  Conditions in
free parameters are not polynomials over polynomials: they are power-sum
forms (``elimination.image_elementary``).  All values are immutable;
operations return new objects, and + - * take a polynomial on both sides.
Every product modulo A runs on ints, by one kernel, ``gauss_mul_mod``, or
on real ints where every coefficient is rational (``int_mul_mod``,
``int_rem_monic``): the table of T^j mod A (``powers_mod``, its one
builder), the certificate's U(T) (``compose_mod``), the columns of
``elimination.map_charpoly``'s matrix (``columns_mod``) and the traces of
the products of a form's polynomials (``product_traces``); ``solve_mod``
solves for a step's inverse map on the table's rows by fraction-free
elimination, so this module alone owns the ring's scalings.  Where every
coefficient is rational, they, and Newton's identities both ways (``power_sums``,
``poly_from_power_sums``), run exactly on Python ints over one common
denominator (``scalars.int_vector``) in one scaling, the monic integer
polynomial in w = L z (``int_monic``), so reducing modulo it is a plain
division (``int_rem_monic``); they make Scalars only for what they return,
the canonical rationals the Scalar operations give.  Otherwise they run on
a fixed-point block, a vector of Gaussian integers times one power of two
(``scalars.fixed_point``), in w = z / 2^s with 2^s about A's largest root
(``_graded_block``): each product is cut once to a fixed number of bits of
its largest part (``_cut``), and so are the power sums of the roots in w,
the traces and each sum of Gaussian integers of differing exponents
(``fixed_sum``); a row leaves the block with each part rounded once
(``scalars.from_fixed_point``), a quotient with each part rounded once
(``scalars.from_ratio``), and the columns stay ints for the determinant.
The traces of the power-sum route (``elimination.transform_by_power_sums``)
are Scalar sums.  ``Record`` is the read-only base of ``UniPoly`` and of
the records in other modules that do work at construction.  A ``UniPoly``
also keeps three memo slots, filled on first use and never part of
equality, repr or JSON: its largest coefficient magnitude (``max_mag``),
its terms that are not exact zeros (``terms``), and the power sums of its
roots computed so far (``power_sums``), a prefix that only grows.
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement
from math import inf

import mpmath

from .scalars import (DEFAULT_PRECISION_BITS, GUARD_BITS, ONE, ZERO, Gauss, Scalar,
                      as_scalar, as_tol, context, fixed_point, fma, fms, from_fixed_point,
                      from_ratio, int_vector, mag_binades, mul, negligible, noise_tol,
                      pivot_index, rat, rational_vector)


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
        terms = other.terms()
        out = [None] * (len(self.coeffs) + terms[-1][0]) if terms else []
        for i, a in enumerate(self.coeffs):
            if a.is_exact_zero():
                continue
            for j, b in terms:
                c = out[i + j]
                out[i + j] = mul(a, b) if c is None else fma(c, a, b)
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
        row = int_mul_mod(row, tw, low, n)
        out.append(tuple(rational_vector([x * f for x, f in zip(row, scale)], q ** j)))
    return tuple(out)


HORNER_GUARD_BITS = 7  # past prec, in each product of U(T) (TransformStep.certify)


def compose_mod(U: UniPoly, T: UniPoly, A: UniPoly):
    """The n ascending coefficients of U(T) modulo the monic A (n = deg A),
    by Horner: one product by T modulo A per coefficient of U, highest
    first, each joining the product before the reduction.

    When every coefficient of U, T and A is rational the products run
    exactly on real ints (``int_mul_mod``), in w = L z as in
    ``powers_mod``: with T = tn / d of degree k and U = un / d of degree m
    over one denominator and q = d L^k, R = sum un_j q^(m-j) Tw^j modulo
    the monic integer A(w / L), and the coefficient of z^i is R_i L^i /
    (d q^m).  Otherwise all three enter one fixed-point block at the
    largest precision prec of a complex coefficient, as in ``powers_mod``,
    each product is a ``gauss_mul_mod`` call cut to prec +
    ``HORNER_GUARD_BITS`` bits, and the result leaves the block with each
    part rounded once at prec.
    """
    n, kt = A.degree, len(T.coeffs)
    vtu = int_vector(T.coeffs + U.coeffs)
    va = None if vtu is None else int_monic(A.coeffs)
    if va is None:
        prec = max(c.prec or 0 for c in U.coeffs + T.coeffs + A.coeffs)
        s, t, a = _graded_block(T.coeffs, A, prec)
        ur, ui, eu = fixed_point(U.coeffs, prec)
        v, bits = ([0] * n, [0] * n, 0), prec + HORNER_GUARD_BITS
        for x, y in zip(reversed(ur), reversed(ui)):
            v = gauss_mul_mod(v, t, a, bits, (x, y, eu))
        return from_fixed_point(v, prec, s)
    (tun, d), (an, L) = vtu, va
    tn, un = tun[:kt], tun[kt:]
    k, m = max(kt - 1, 0), len(un) - 1
    q = d * L ** k
    tw = [(i, c * L ** (k - i)) for i, c in enumerate(tn) if c]
    low = [(j, c) for j, c in enumerate(an[:n]) if c]
    v = [un[m] if un else 0] + [0] * (n - 1) if n else []  # the first step, 0 T + un_m
    for j in range(m - 1, -1, -1):
        v = int_mul_mod(v, tw, low, n, un[j] * q ** (m - j))
    if L != 1:
        v = [x * L ** i for i, x in enumerate(v)]
    return rational_vector(v, d * q ** max(m, 0))


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


def product_traces(A: UniPoly, X, m: int):
    """(traces, q, prec, bits): the traces sum_i P(z_i) over the roots z_i
    of the monic A of degree n >= 1 of the products P of k = 1..m of the
    polynomials X[p] (lists of ascending Scalars, all of one length), one
    per multiset of indices.  traces maps each sorted k-tuple of indices,
    as ``combinations_with_replacement`` makes them, to a Gaussian integer
    (re, im, e): (re + im i) 2^e is q^k times the trace.  prec is the
    largest precision of a complex coefficient, None when there is none,
    and bits the cut of the traces, None when they are exact.

    A product of fewer than m factors is the one before times one X[p]
    modulo A.  The trace of such a product R, reduced modulo A, times a
    last factor X[p] needs no product: it is sum_(j<n) R_j h_p[j], with
    h_p[j] = tr(z^j X[p]) = sum_i X[p]_i s_(i+j) a Hankel form in the
    power sums s_0..s_(n-1+K) of A, K the largest degree of the X[p].

    For rational A they are exact, in w = L z (``int_monic``): over the
    common denominator D of the rational coefficients of the X[p], q = D
    L^K, q X[p](w / L) has Gaussian-integer coefficients, the products are
    taken modulo the monic integer A(w / L), and the power sums are its
    integer ones (``int_power_sums``).  When every coefficient is rational
    that runs on real ints (``int_mul_mod``), otherwise on
    ``gauss_mul_mod`` with no cut.  For complex A, q = 1, the X[p] and A
    enter fixed-point blocks in w = z / 2^s (``_graded_block``), and so do
    the power sums of the z_i / 2^s (``_block_power_sums``); each h_p, each
    product (a ``gauss_mul_mod`` call) and each trace is cut to bits = prec
    + ``GUARD_BITS`` bits of its largest part.
    """
    n, width = A.degree, len(X[0])
    flat = [c for x in X for c in x]
    K = max((i for x in X for i, c in enumerate(x) if not c.is_exact_zero()), default=0)
    va = int_monic(A.coeffs)
    vx = None if va is None else int_vector(flat)
    if vx is not None:
        (nums, D), (a, L) = vx, va
        low = [(j, c) for j, c in enumerate(a[:n]) if c]
        S = int_power_sums(a, n - 1 + K)
        xs = [[(i, c * L ** (K - i)) for i, c in enumerate(nums[o:o + K + 1]) if c]
              for o in range(0, len(flat), width)]
        hs = [[sum(c * S[i + j] for i, c in x) for j in range(n)] for x in xs]
        one, q, prec, bits = [1] + [0] * (n - 1), D * L ** K, None, None

        def mul(v, p):
            return int_mul_mod(v, xs[p], low, n)

        def trace(v, p):
            if v is one:  # the trace of X[p] is h_p[0]
                return hs[p][0], 0, 0
            return sum(map(operator.mul, v, hs[p])), 0, 0
    else:
        prec = max(c.prec or 0 for c in flat + list(A.coeffs))
        if va is None:
            bits, q = prec + GUARD_BITS, 1
            s, x0, a = _graded_block(X[0], A, prec)
            xs = [x0] + [fixed_point(x, prec, s) for x in X[1:]]
            sums = _block_power_sums(a, n - 1 + K, bits)
        else:
            (a, L), bits = va, None
            D = int_vector([c for c in flat if c.is_rational])[1]
            q, a = D * L ** K, (a[:n], [0] * n, 0)
            xr, xi, ex = fixed_point(flat, prec, 0, D)
            xs = [([x * L ** (K - i) for i, x in enumerate(xr[o:o + K + 1])],
                   [y * L ** (K - i) for i, y in enumerate(xi[o:o + K + 1])], ex)
                  for o in range(0, len(flat), width)]
            S = int_power_sums(a[0] + [1], n - 1 + K)
            sums = S, [0] * len(S), 0
        hs = [_cut(*_hankel(x, sums, n), bits) for x in xs]
        one = [1] + [0] * (n - 1), [0] * n, 0

        def mul(v, p):
            if v is one and K < n:  # X[p] itself, cut as the product would be
                xr, xi, e = xs[p]
                return _cut((xr + [0] * n)[:n], (xi + [0] * n)[:n], e, bits)
            return gauss_mul_mod(v, xs[p], a, bits)

        def trace(v, p):
            hr, hi, eh = hs[p]
            if v is one:
                return _cut1(hr[0], hi[0], eh, bits)
            vr, vi, e = v
            re = im = 0
            for x, y, c, d in zip(vr, vi, hr, hi):
                re += x * c - y * d
                im += x * d + y * c
            return _cut1(re, im, e + eh, bits)
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
    fixed-point vectors x and s = ``sums``."""
    (xr, xi, ex), (sr, si, es) = x, sums
    terms = [(i, x, y) for i, (x, y) in enumerate(zip(xr, xi)) if x or y]
    hr, hi = [], []
    for j in range(n):
        re = im = 0
        for i, x, y in terms:
            c, d = sr[i + j], si[i + j]
            re += x * c - y * d
            im += x * d + y * c
        hr.append(re)
        hi.append(im)
    return hr, hi, ex + es


def solve_mod(rows, A: UniPoly):
    """The n ascending coefficients u_j of U = sum u_j y^j with sum u_j
    rows[j] = z modulo the monic A of degree n >= 2, rows[j] being the n
    ascending Scalar coefficients of a polynomial modulo A (the first n
    rows of ``powers_mod``); None exactly when the rows are linearly
    dependent.

    The rows enter exactly as ints: when every entry is rational, row j as
    nums_j / d_j (``int_vector``); otherwise row j in w = z / 2^s
    (``_grade``) as the Gaussian integers N_j times 2^(e_j)
    (``fixed_point``), and z as 2^s w.  Fraction-free elimination over Z
    or Z[i] (Bareiss, *Math. Comp.* 22, 1968), with the first nonzero
    pivot, divides exactly; back-substitution reads off the Cramer
    numerators X_j and the determinant det of the system in the v_j =
    u_j / d_j or u_j 2^(e_j - s).  Then u_j = X_j d_j / det, exactly
    (``_q``), or X_j 2^(s - e_j) / det with each part rounded once at the
    largest precision prec of an entry (``from_ratio``).  A rational step
    runs on real ints alone.
    """
    n = A.degree
    vs = [int_vector(r) for r in rows]
    prec, im = None, None
    if None in vs:
        prec, s = max(c.prec or 0 for r in rows for c in r), _grade(A)
        vs = [fixed_point(r, prec, s) for r in rows]
        scales = [(1, s - e) for _, _, e in vs]
        if any(any(y) for _, y, _ in vs):
            im = [[v[1][i] for v in vs] + [0] for i in range(n)]
    else:
        scales = [(d, 0) for _, d in vs]
    got = _bareiss([[v[0][i] for v in vs] + [int(i == 1)] for i in range(n)], im)
    if got is None:
        return None
    xr, xi, dr, di = got
    if di:  # X / det = X conj(det) / |det|^2
        xr, xi, dr = ([x * dr + y * di for x, y in zip(xr, xi)],
                      [y * dr - x * di for x, y in zip(xr, xi)], dr * dr + di * di)
    return [from_ratio(x * f, y * f, dr, e, prec) for x, y, (f, e) in zip(xr, xi, scales)]


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


def _graded_block(ts, A: UniPoly, prec):
    """(s, t, a): T (ascending Scalars ``ts``) and the monic A of degree n in
    w = z / 2^s as fixed-point vectors (``scalars.fixed_point``), t of
    T(2^s w) and a of the lower coefficients of A(2^s w) / 2^(s n).  2^s is about A's largest root,
    s the largest floor(hi / (n - j)) over A's nonzero a_j, hi the upper
    binade of |a_j| (``mag_binades``), so those coefficients are at most
    about 2^n and every coefficient of a row weighs alike in its cut."""
    n, s = A.degree, _grade(A)
    ar, ai, ea = fixed_point(A.coeffs[:n], prec, s)
    return s, fixed_point(ts, prec, s), (ar, ai, ea - s * n)


def _grade(A: UniPoly):
    """The s of ``_graded_block``: 2^s is about the largest root of the
    monic A."""
    n = A.degree
    return max((b[1] // (n - j) for j, b in enumerate(map(mag_binades, A.coeffs[:n]))
                if b and b[1] > -inf), default=0)


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
        pi[0] += ui << eu - e
    if bits is not None:
        pr, pi, e = _cut(pr, pi, e, bits)
    if ea > 0:
        ar, ai, ea = [c << ea for c in ar], [d << ea for d in ai], 0
    h = 1 << -ea >> 1
    low = [(j, c, d) for j, (c, d) in enumerate(zip(ar, ai)) if c or d]
    for m in range(size - 1, n - 1, -1):
        x, y = pr[m], pi[m]
        if x or y:
            for j, c, d in low:
                pr[m - n + j] -= x * c - y * d + h >> -ea
                pi[m - n + j] -= x * d + y * c + h >> -ea
    return pr[:n], pi[:n], e


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
    ai, ea) the fixed-point vector of its n lower coefficients, as one
    fixed-point vector on the grid of ``bits`` bits of its largest part
    (``_grid``): Newton's identities, s_k = -(sum_(i<k) a_(n-i) s_(k-i) +
    k a_(n-k)) (a_(n-k) = 0 past n), on the Gaussian integers of a cut to
    ``bits`` bits, each sum placed by ``fixed_sum``."""
    ar, ai, ea = _cut(*a, bits)
    n = len(ar)
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
    g = _grid(S, bits)
    re, im = zip(*[_to_grid(x, y, e, g) for x, y, e in S])
    return list(re), list(im), g


def int_mul_mod(v, t, low, n, u=0):
    """(V T + u) modulo the monic integer polynomial w^n + sum c w^i over
    the pairs (i, c) of ``low``, exactly on real ints: V is the int list v,
    T the pairs (i, c) of its nonzero terms ``t`` and u an int.  Returns
    the n ascending coefficients."""
    prod = [0] * max(len(v) + (t[-1][0] if t else 0), n, 1)
    for i, x in enumerate(v):
        if x:
            for m, c in t:
                prod[i + m] += x * c
    prod[0] += u
    return int_rem_monic(prod, low, n)


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
        S = int_power_sums(a, k_max)
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
            acc = fma(acc, e[i], s[k - i]) if i % 2 == 1 else fms(acc, e[i], s[k - i])
        if k <= n:
            t = e[k] * k
            acc = acc + t if k % 2 == 1 else acc - t
        s.append(acc)
    object.__setattr__(poly, "_sums", tuple(s))
    return poly._sums


def int_power_sums(a, k_max):
    """S_0..S_k_max, the power sums of the roots of the monic integer
    polynomial of ascending ints a, by Newton's identities on ints: S_k =
    -(sum_(i<k) a_(n-i) S_(k-i) + k a_(n-k)), a_(n-k) = 0 past n."""
    n = len(a) - 1
    S = [n]
    for k in range(1, k_max + 1):
        acc = k * a[n - k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            acc += a[n - i] * S[k - i]
        S.append(-acc)
    return S


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
            acc = (fma(acc, e[k - i], sums[i - 1]) if i % 2 == 1
                   else fms(acc, e[k - i], sums[i - 1]))
        e.append(acc * rat(1, k))
    coeffs = [None] * (n + 1)
    coeffs[n] = ONE
    for k in range(1, n + 1):
        coeffs[n - k] = e[k] if k % 2 == 0 else -e[k]
    return UniPoly(coeffs, var)
