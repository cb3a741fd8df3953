"""Eliminating the old variable from a transformation pair.

Given a monic A(z) = 0 and a map y = T(z), the transformed equation C(y) = 0
satisfied by the images of A's roots, C(y) = Res_z(A, y - T) = prod (y - T(z_i)),
is computed here by two independent routes:

* ``map_charpoly``: the characteristic polynomial det(y - M_T) of the n x n
  scalar matrix of multiplication by T in K[z]/(A), by reduction to
  Hessenberg form and the Hessenberg recurrence (Cohen, *A Course in
  Computational Algebraic Number Theory*, Alg. 2.2.9).  The similarity
  transforms are exact ``Fraction`` arithmetic when every entry is rational
  and pivot by magnitude otherwise.  ``sylvester_resultant_with_factor``
  routes a subsidiary relation B = c*y - T(z) here.
* ``transform_by_power_sums``: transport of Newton power sums through the
  map y = T(z), then reconstruction of C from its power sums.

The two routes are deliberately kept independent so tests can use each as an
oracle for the other.  ``polynomial_resultant`` evaluates a Sylvester
determinant over a coefficient ring that may itself be polynomial, for the
eliminations that are not a map of roots (the reciprocal cross-check and the
quartic obstruction).
"""

from __future__ import annotations

from dataclasses import dataclass

from .polynomials import (UniPoly, _lift, _one_like, _zero_like, power_sums,
                          poly_from_power_sums, rem_monic)
from .scalars import Scalar, rat


@dataclass(frozen=True)
class BiPoly:
    """Polynomial in z whose coefficients are polynomials in y (ascending in z)."""

    z_coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "z_coeffs", tuple(self.z_coeffs))

    @property
    def degree_z(self) -> int:
        return len(self.z_coeffs) - 1


def _exdiv(num, den):
    if isinstance(num, Scalar):
        return num / den
    return num.exact_div(den)


def _bareiss_det(M):
    """Fraction-free elimination; exact over rational polynomial entries."""
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = None
    for k in range(n - 1):
        if M[k][k].is_exact_zero():
            piv = next((i for i in range(k + 1, n) if not M[i][k].is_exact_zero()), None)
            if piv is None:
                return _zero_like(M[0][0])
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[k][k] * M[i][j] - M[i][k] * M[k][j]
                M[i][j] = num if prev is None else _exdiv(num, prev)
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return -det if sign < 0 else det


def _minor_det(M):
    """Division-free cofactor expansion with memoized minors."""
    n = len(M)
    memo = {}

    def det(cols):
        if len(cols) == 1:
            return M[n - 1][cols[0]]
        got = memo.get(cols)
        if got is not None:
            return got
        r = n - len(cols)
        acc = None
        for idx, c in enumerate(cols):
            e = M[r][c]
            if e.is_exact_zero():
                continue
            term = e * det(cols[:idx] + cols[idx + 1:])
            if acc is None:
                acc = term if idx % 2 == 0 else -term
            elif idx % 2 == 0:
                acc = acc + term
            else:
                acc = acc - term
        if acc is None:
            acc = _zero_like(M[0][0])
        memo[cols] = acc
        return acc

    return det(tuple(range(n)))


def _entries_rational(M) -> bool:
    for row in M:
        for e in row:
            if isinstance(e, Scalar):
                if not e.is_rational:
                    return False
            elif not e.is_rational_tree():
                return False
    return True


def poly_matrix_det(M):
    """Determinant of a square matrix of ring elements (UniPoly or Scalar)."""
    if _entries_rational(M):
        return _bareiss_det(M)
    return _minor_det(M)


def _sylvester_matrix(p_desc, q_desc, zero):
    dp, dq = len(p_desc) - 1, len(q_desc) - 1
    size = dp + dq
    rows = []
    for i in range(dq):
        rows.append([zero] * i + list(p_desc) + [zero] * (size - dp - 1 - i))
    for i in range(dp):
        rows.append([zero] * i + list(q_desc) + [zero] * (size - dq - 1 - i))
    return rows


def polynomial_resultant(P: UniPoly, Q: UniPoly):
    """Resultant of two univariate polynomials over a shared coefficient ring.

    Returns an element of the coefficient ring (a Scalar, or a UniPoly when
    the coefficients are themselves polynomials).
    """
    if P.is_zero() or Q.is_zero():
        sample = (P.coeffs or Q.coeffs or (rat(0),))[0]
        return _zero_like(sample)
    dp, dq = P.degree, Q.degree
    if dp == 0:
        return P.coeffs[0] ** dq
    if dq == 0:
        return Q.coeffs[0] ** dp
    zero = _zero_like(P.coeffs[0])
    M = _sylvester_matrix(list(reversed(P.coeffs)), list(reversed(Q.coeffs)), zero)
    return poly_matrix_det(M)


def map_charpoly(A: UniPoly, t_coeffs) -> UniPoly:
    """det(y - M_T), monic of degree n = deg A, where M_T is the matrix of
    multiplication by T(z) (ascending Scalar coefficients ``t_coeffs``) on
    the basis 1, z, ..., z^(n-1) of K[z]/(A).

    This is prod (y - T(z_i)) over the roots of A, repeated roots included.
    Exact when every entry of M_T is rational.
    """
    if not A.is_monic():
        raise ValueError("A must be monic (normalize first)")
    n = A.degree
    col = rem_monic(UniPoly(t_coeffs, A.var), A)
    cols = [col]
    while len(cols) < n:
        col = rem_monic(UniPoly([rat(0)] + col, A.var), A)
        cols.append(col)
    H = [[cols[j][i] for j in range(n)] for i in range(n)]
    exact = all(e.is_rational for c in cols for e in c)
    # Hessenberg reduction: clear column m-1 below the subdiagonal by row
    # operations, each paired with the inverse column operation.  Entries
    # below the subdiagonal are never read again, so they are not cleared.
    for m in range(1, n - 1):
        cands = [i for i in range(m, n) if not H[i][m - 1].is_exact_zero()]
        if not cands:
            continue
        p = cands[0] if exact else max(cands, key=lambda i: H[i][m - 1].mag())
        if p != m:
            H[p], H[m] = H[m], H[p]
            for row in H:
                row[p], row[m] = row[m], row[p]
        pivot = H[m][m - 1]
        for i in range(m + 1, n):
            u = H[i][m - 1] / pivot
            if u.is_exact_zero():
                continue
            for j in range(m, n):
                H[i][j] = H[i][j] - u * H[m][j]
            for row in H:
                row[m] = row[m] + u * row[i]
    # p_m(y) = (y - h_mm) p_{m-1} - sum_i h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}
    polys = [[rat(1)]]
    for m in range(n):
        prev = polys[m]
        new = [rat(0)] + prev
        for k, c in enumerate(prev):
            new[k] = new[k] - H[m][m] * c
        t = rat(1)
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i]
            if t.is_exact_zero():
                break
            f = H[i][m] * t
            if f.is_exact_zero():
                continue
            for k, c in enumerate(polys[i]):
                new[k] = new[k] - f * c
        polys.append(new)
    return UniPoly(polys[n], "y")


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
    if (len(rows[0]) != 2 or any(len(cs) > 1 for cs in rows[1:])
            or not all(isinstance(e, Scalar) for cs in rows for e in cs)):
        raise ValueError("B must be c*y - T(z) with c a nonzero scalar")
    c = rows[0][1]
    t = [-(cs[0] if cs else rat(0)) / c for cs in rows]
    return map_charpoly(A, t), c ** n


def transform_by_power_sums(A: UniPoly, t_coeffs) -> UniPoly:
    """Transport route: power sums of C from power sums of A through y = T(z).

    ``t_coeffs`` are the ascending coefficients of T; they may be Scalars or
    UniPoly values in a formal parameter, in which case C's coefficients come
    back as polynomials in that parameter.  Exact for rational inputs.
    """
    if not A.is_monic():
        raise ValueError("A must be monic (normalize first)")
    n = A.degree
    els = [_lift(c) for c in t_coeffs]
    pvar = next((e.var for e in els if isinstance(e, UniPoly)), None)
    if pvar is not None:
        els = [e if isinstance(e, UniPoly) else UniPoly((e,), pvar) for e in els]
    T = UniPoly(els, A.var)
    k = T.degree
    if k < 1 or k >= n:
        raise ValueError("map degree must satisfy 1 <= deg T < deg A")
    s = power_sums(A, n * k)
    one = _one_like(T.coeffs[0])
    P = UniPoly((one,), A.var)
    sums = []
    for _ in range(n):
        P = P * T
        acc = None
        for j, cj in enumerate(P.coeffs):
            term = cj * s.s(j)
            acc = term if acc is None else acc + term
        sums.append(acc)
    return poly_from_power_sums(sums, "y", one=one)
