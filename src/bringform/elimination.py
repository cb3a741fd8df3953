"""Eliminating the old variable from a transformation pair.

Given a monic A(z) = 0 and a map y = T(z), the transformed equation C(y) = 0
satisfied by the images of A's roots, C(y) = Res_z(A, y - T) = prod (y - T(z_i)),
is computed here by two independent routes:

* ``map_charpoly``: the characteristic polynomial det(y - M_T) of the n x n
  matrix of multiplication by T in K[z]/(A), by Berkowitz's division-free
  recursion over the leading principal minors (Berkowitz, *Inf. Process.
  Lett.* 18, 1984), which forms no trace, so the route stays apart from the
  next one.  ``polynomials.columns_mod`` builds the matrix in the ring of
  ``polynomials``, column i + 1 being w times column i modulo A; each
  coefficient of C is exact or rounded once.  It is the package's one determinant
  routine: ``sylvester_resultant_with_factor`` routes B = c*y - T(z) here,
  and ``polynomial_resultant`` reads Res(P, Q) off the charpoly of Q mod P.
* ``transform_by_power_sums``: the power sums of C are the traces
  sum_i (T^j mod A)_i s_i(A), so only s_0..s_(n-1) of A are needed; Newton's
  identities rebuild C from them.  The powers T^j mod A come from
  ``polynomials.powers_mod``, the table's one builder;
  ``pipeline.dual_eliminate`` hands that table to the step it builds, whose
  certificate and inverse map read it again.  The route builds none: the
  table's vectors never leave the ring, where they are dotted with A's
  power sums (``polynomials.table_traces``), and Newton's identities run on
  those ints, each coefficient of C exact or rounded once.

The two routes are deliberately kept independent so tests can use each as an
oracle for the other.  They share the product modulo A, which is the
polynomial ring, but no table: the columns multiply by w, and the power sums
read T^j.

Conditions in free parameters come from ``image_elementary``: with each
coefficient of T affine in the parameters, the power sums of the images are
Hankel forms in the power sums of A (Adamchik & Jeffrey, "Polynomial
transformations of Tschirnhaus, Bring and Jerrard", SIGSAM Bull. 37(3),
2003), returned as dicts from exponent tuples to Scalars.  This module
keeps their combinatorics, the multisets of parameters, on Python ints;
the traces of the products come from ``polynomials.product_traces``,
modulo A, and Newton's identities on the forms from
``polynomials.newton_elementary``, which rounds each coefficient once.  The one
elimination that is not a map of roots, b between the two conditions of the
quartic obstruction, needs no determinant: the first condition is linear in
b (``pipeline.quartic_obstruction_G``).
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement
from math import factorial

from .polynomials import (Record, UniPoly, columns_mod, monic_from_traces, newton_elementary,
                          powers_mod, product_traces, table_traces)
from .scalars import ONE, Scalar, as_scalar, graded_monic, rat


class BiPoly(Record):
    """Polynomial in z whose coefficients are polynomials in y (ascending in z)."""

    __slots__ = _fields = ("z_coeffs",)

    def __init__(self, z_coeffs: tuple):
        self._set(z_coeffs=tuple(z_coeffs))

    @property
    def degree_z(self) -> int:
        return len(self.z_coeffs) - 1


def map_charpoly(A: UniPoly, t_coeffs) -> UniPoly:
    """det(y - M_T) = prod (y - T(z_i)) over the roots of A, repeated roots
    included, where M_T is the matrix of multiplication by T(z) (ascending
    Scalar coefficients ``t_coeffs``) on 1, z, ..., z^(n-1) in K[z]/(A).

    ``polynomials.columns_mod`` builds a matrix similar to M_T, as ints,
    with a second matrix of imaginary parts for a complex map, times one
    scale, ``_berkowitz`` takes its determinant and ``graded_monic`` reads
    it back; 1 when n = 0.
    """
    if not A.is_monic():
        raise ValueError("A must be monic (normalize first)")
    if not A.degree:
        return UniPoly._of([ONE], "y")
    cols, im, scale = columns_mod(t_coeffs, A)
    # the columns serve as rows: N and its transpose share det(x - N)
    p, pi = _berkowitz(cols, im)
    return UniPoly._of(graded_monic(p, pi, scale), "y")


def _berkowitz(N, I=None):
    """(p, pi): det(x - (N + I i)), highest first, its real parts p and
    its imaginary parts pi (None when I is None, for a real N), for square
    matrices of ints, with no division (Berkowitz, Inf. Process. Lett. 18,
    1984).

    With p the charpoly of the leading r x r block B, R and c the rest of
    row and column r + 1, and d the corner entry, the next block's charpoly
    is the convolution of p with (1, -d, -R c, -R B c, ..., -R B^(r-1) c).
    A complex matrix runs the same recursion on its two parts, a real one
    the int-only loop.
    """
    mul, p = operator.mul, [1]
    if I is None:
        for r, row in enumerate(N):
            # map stops at the end of c (r entries), so row and the rows
            # above serve as R and B unsliced
            above = N[:r]
            c = [x[r] for x in above]
            t = [-row[r]]
            for m in range(r):
                t.append(-sum(map(mul, row, c)))
                if m < r - 1:
                    c = [sum(map(mul, x, c)) for x in above]
            new = p + [0]
            for j, pj in enumerate(p):
                if pj:
                    for i, x in enumerate(t[:r + 1 - j], j + 1):
                        new[i] += x * pj
            p = new
        return p, None
    pi = [0]
    for r, (row, rowi) in enumerate(zip(N, I)):
        above, abovei = N[:r], I[:r]
        c, ci = [x[r] for x in above], [x[r] for x in abovei]
        t, ti = [-row[r]], [-rowi[r]]
        for m in range(r):
            t.append(sum(map(mul, rowi, ci)) - sum(map(mul, row, c)))
            ti.append(-sum(map(mul, row, ci)) - sum(map(mul, rowi, c)))
            if m < r - 1:
                c, ci = ([sum(map(mul, x, c)) - sum(map(mul, y, ci)) for x, y in zip(above, abovei)],
                         [sum(map(mul, x, ci)) + sum(map(mul, y, c)) for x, y in zip(above, abovei)])
        new, newi = p + [0], pi + [0]
        for j, (pj, qj) in enumerate(zip(p, pi)):
            if pj or qj:
                for i, (x, y) in enumerate(zip(t[:r + 1 - j], ti[:r + 1 - j]), j + 1):
                    new[i] += x * pj - y * qj
                    newi[i] += x * qj + y * pj
        p, pi = new, newi
    return p, pi


def polynomial_resultant(P: UniPoly, Q: UniPoly) -> Scalar:
    """Res(P, Q) = lc(P)^(deg Q) prod Q(z_i) over the roots z_i of P, that is
    lc(P)^(deg Q) (-1)^(deg P) times the constant term of the
    ``map_charpoly`` of Q modulo the monic P/lc(P); 0 when P or Q is zero."""
    if P.is_exact_zero() or Q.is_exact_zero():
        return rat(0)
    A, lc = P.monic()
    charpoly_at_0 = map_charpoly(A, Q.coeffs).coeff(0)
    value = lc ** Q.degree * charpoly_at_0
    return -value if P.degree % 2 else value


def sylvester_resultant_with_factor(A: UniPoly, B: BiPoly):
    """Res_z(A, B) as a monic polynomial in y, plus the leading coefficient
    that was divided out.

    B must have the shape c*y - T(z), with c a nonzero scalar, which is what
    every subsidiary relation produces.  Then Res_z(A, B) = c^n prod
    (y - T(z_i)/c), and the monic part is the ``map_charpoly`` of T/c.
    """
    n = A.degree
    k = B.degree_z
    if not A.is_monic():
        raise ValueError("A must be monic (normalize first)")
    if k < 1 or k >= n:
        raise ValueError("subsidiary degree must satisfy 1 <= k < deg A")
    rows = [e.coeffs for e in B.z_coeffs]
    if len(rows[0]) != 2 or any(len(cs) > 1 for cs in rows[1:]):
        raise ValueError("B must be c*y - T(z) with c a nonzero scalar")
    c = rows[0][1]
    t = [-(cs[0] if cs else rat(0)) / c for cs in rows]
    return map_charpoly(A, t), c ** n


def transform_by_power_sums(A: UniPoly, t_coeffs, table=None) -> UniPoly:
    """Transport route: power sums of C from power sums of A through y = T(z).

    s_j(C) = sum_i (T^j mod A)_i s_i(A) for j = 1..n, read off rows 1..n of
    the table ``powers_mod(T, A)``, so only s_0..s_(n-1) of A are needed.
    ``table`` is that table when the caller has built it (``dual_eliminate``
    keeps it for the step); otherwise ``powers_mod`` builds it.  Its row
    vectors, kept in the ring, are dotted with A's power sums on ints
    (``polynomials.table_traces``), and Newton's identities rebuild C from
    those ints, each coefficient exact or rounded once (``monic_from_traces``).
    """
    if not A.is_monic():
        raise ValueError("A must be monic (normalize first)")
    n = A.degree
    t = [as_scalar(c) for c in t_coeffs]
    k = max((j for j, c in enumerate(t) if not c.is_exact_zero()), default=-1)
    if k < 1 or k >= n:
        raise ValueError("map degree must satisfy 1 <= deg T < deg A")
    return monic_from_traces(*table_traces(table or powers_mod(UniPoly(t, A.var), A)), "y")


def image_elementary(A: UniPoly, xs, m: int, read=None):
    """e_1..e_m of the images y = sum_i x_i z^i of the roots of the monic A,
    or only the e_k for k in ``read`` (ascending), in that order.

    Each x_i is affine in free parameters t_1..t_P and is given as the
    sequence (x_i0, x_i1, ..., x_iP): x_i = x_i0 + sum_p x_ip t_p, so y =
    sum_p t_p X_p (t_0 = 1) with X_p = sum_i x_ip z^i.  The power sum
    s_k(y) is the Hankel form sum, over the k-multisets of parameters, of
    their count times the trace of the product of their X_p, which
    ``polynomials.product_traces`` takes modulo A from s_0..s_(n-1) of A,
    as Gaussian integers q^k times the trace; ``newton_elementary`` turns
    those forms into e_1..e_m, exactly when the traces are, otherwise each
    part rounded once, each a dict from exponent tuples of (t_1..t_P) to
    nonzero Scalars.  An e_k that is not read is never made: its form stays
    the ints of Newton's identities.
    """
    if not A.is_monic():
        raise ValueError("A must be monic (normalize first)")
    width = len(xs[0])
    traces, q, prec, bits = product_traces(A, [[x[p] for x in xs] for p in range(width)], m)
    sums = []
    for k in range(1, m + 1):
        sk = {}
        for combo in combinations_with_replacement(range(width), k):
            re, im, e = traces[combo]
            if re or im:
                # the multiset combo stands for k!/prod(mult!) ordered products
                count = factorial(k)
                for p in set(combo):
                    count //= factorial(combo.count(p))
                sk[tuple(combo.count(p) for p in range(1, width))] = re * count, im * count, e
        sums.append(sk)
    return newton_elementary(sums, q, prec, bits, width - 1, read)


def form_in(form, var: str) -> UniPoly:
    """A form in one parameter as a UniPoly in ``var``."""
    deg = max((key[0] for key in form), default=-1)
    return UniPoly([form.get((j,), rat(0)) for j in range(deg + 1)], var)
