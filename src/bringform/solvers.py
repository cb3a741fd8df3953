"""Closed-form solvers for degrees one through four.

The cubic follows Cardano's radical formula with a forced branch pairing:
after choosing the first cube root u, the second is taken as -p/(3u) rather
than as an independent principal value, so the product of the two radicals is
exactly -p/3 on every branch.  For real coefficients with three real roots
(negative discriminant radicand) this makes the imaginary parts cancel to
rounding level instead of leaking whole conjugate terms.

The quartic is solved the long way around on purpose: two quadratic
Tschirnhaus transformations strip the cubic and linear terms, the survivor is
a quadratic in y^2, and the roots are pulled back through the two subsidiary
relations.  No degree-three resolvent is formed; every auxiliary equation
solved anywhere in this module has degree at most three.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import mpmath

from .polynomials import UniPoly, deflate
from .scalars import (DEFAULT_PRECISION_BITS, Scalar, as_scalar, context, rat,
                      sort_key)


@functools.cache
def _omega(prec: int) -> Scalar:
    """Primitive cube root of unity at the given precision."""
    ctx = context(prec)
    return Scalar.from_mpc(ctx.mpc(ctx.mpf(-1) / 2, ctx.sqrt(3) / 2), prec)


def _residuals(poly: UniPoly, roots):
    return tuple(poly.eval(r).mag() for r in roots)


@dataclass(frozen=True)
class SolveResult:
    """Roots of one polynomial: the root multiset, how it was obtained, and
    the absolute residuals |A(root)|."""

    roots: tuple
    method: str
    residuals: tuple

    def max_residual(self):
        return max(self.residuals) if self.residuals else mpmath.mpf(0)


def _finish(poly: UniPoly, roots, method: str) -> SolveResult:
    roots = tuple(sorted(roots, key=sort_key))
    return SolveResult(roots, method, _residuals(poly, roots))


def solve_quadratic(m, n, *, prec: int = None) -> SolveResult:
    """Roots of z^2 + m z + n; exact when the discriminant is a rational square."""
    m, n = as_scalar(m), as_scalar(n)
    prec = prec or DEFAULT_PRECISION_BITS
    poly = UniPoly([n, m, rat(1)])
    sq = (m * m - 4 * n).sqrt(prec)
    half = rat(1, 2)
    roots = ((-m + sq) * half, (-m - sq) * half)
    return _finish(poly, roots, "quadratic")


def solve_cubic_cardano(p, q, *, prec: int = None) -> SolveResult:
    """Roots of the depressed cubic z^3 + p z + q by Cardano's formula."""
    p, q = as_scalar(p), as_scalar(q)
    prec = prec or DEFAULT_PRECISION_BITS
    poly = UniPoly([q, p, rat(0), rat(1)])
    om = _omega(prec)
    omc = om.conjugate()
    if p.is_exact_zero():
        # z^3 = -q: one cube root and its rotations (conjugate pair for real q)
        r0 = (-q).cbrt(prec)
        roots = (r0, r0 * om, r0 * omc)
        return _finish(poly, roots, "cardano")
    if q.is_exact_zero():
        s = (-p).sqrt(prec)
        roots = (rat(0), s, -s)
        return _finish(poly, roots, "cardano")
    radicand = q * q * rat(1, 4) + (p ** 3) * rat(1, 27)
    sq = radicand.sqrt(prec)
    u3 = -q * rat(1, 2) + sq
    if u3.is_exact_zero():
        u3 = -q * rat(1, 2) - sq
    u = u3.cbrt(prec)
    v = -p / (u * 3)  # forced pairing: u*v == -p/3 exactly on this branch
    roots = (u + v, om * u + omc * v, omc * u + om * v)
    return _finish(poly, roots, "cardano")


def solve_cubic_general(m, n, p, *, prec: int = None) -> SolveResult:
    """Roots of z^3 + m z^2 + n z + p, via the depressed form and a shift back."""
    m, n, p = as_scalar(m), as_scalar(n), as_scalar(p)
    prec = prec or DEFAULT_PRECISION_BITS
    poly = UniPoly([p, n, m, rat(1)])
    third = m * rat(1, 3)
    dp = n - m * m * rat(1, 3)
    dq = m ** 3 * rat(2, 27) - m * n * rat(1, 3) + p
    dep = solve_cubic_cardano(dp, dq, prec=prec)
    roots = tuple(r - third for r in dep.roots)
    return _finish(poly, roots, "cardano-shifted")


def _biquadratic_roots(n, q, prec):
    """Roots of z^4 + n z^2 + q, as a quadratic in z^2."""
    us = solve_quadratic(n, q, prec=prec).roots
    out = []
    for u in us:
        s = u.sqrt(prec)
        out.extend((s, -s))
    return out


def solve_quartic(n, p, q, *, prec: int = None, tol=None) -> SolveResult:
    """Roots of the depressed quartic z^4 + n z^2 + p z + q.

    Route: strip terms two and three (if the z^2 term is present), then strip
    terms two and four, solve the surviving quadratic in y^2, and pull the
    roots back through each step (``TransformStep.preimages``).
    """
    from .pipeline import quartic_remove_2_3, quartic_remove_2_4

    n, p, q = as_scalar(n), as_scalar(p), as_scalar(q)
    prec = prec or DEFAULT_PRECISION_BITS
    poly = UniPoly([q, p, n, rat(0), rat(1)])
    if p.is_exact_zero():
        return _finish(poly, _biquadratic_roots(n, q, prec), "biquadratic")
    steps = []
    cur_p, cur_q = p, q
    if not n.is_exact_zero():
        st1 = quartic_remove_2_3(n, p, q, prec=prec, tol=tol)
        steps.append(st1)
        cur_p, cur_q = st1.output.coeff(1), st1.output.coeff(0)
    if cur_p.is_exact_zero():
        ys = _biquadratic_roots(steps[-1].output.coeff(2) if steps else n, cur_q, prec)
    else:
        st2 = quartic_remove_2_4(cur_p, cur_q, prec=prec, tol=tol)
        steps.append(st2)
        ys = _biquadratic_roots(st2.output.coeff(2), st2.output.coeff(0), prec)
    for step in reversed(steps):
        ys = step.preimages(ys, prec=prec, tol=tol)
    return _finish(poly, ys, "tschirnhaus-biquadratic")


def solve_monic(poly: UniPoly, *, prec: int = None, tol=None) -> SolveResult:
    """Dispatch a monic polynomial of degree one to four to its closed form."""
    if not poly.is_monic():
        raise ValueError("polynomial must be monic")
    d = poly.degree
    if d == 1:
        r = -poly.coeff(0)
        return SolveResult((r,), "linear", _residuals(poly, (r,)))
    if d == 2:
        return solve_quadratic(poly.coeff(1), poly.coeff(0), prec=prec)
    if d == 3:
        return solve_cubic_general(poly.coeff(2), poly.coeff(1), poly.coeff(0), prec=prec)
    if d == 4:
        m = poly.coeff(3)
        if m.is_exact_zero():
            return solve_quartic(poly.coeff(2), poly.coeff(1), poly.coeff(0),
                                 prec=prec, tol=tol)
        quarter = m * rat(1, 4)
        from .polynomials import shift_substitute
        dep = shift_substitute(poly, quarter)
        inner = solve_quartic(dep.coeff(2), dep.coeff(1), dep.coeff(0),
                              prec=prec, tol=tol)
        roots = tuple(r - quarter for r in inner.roots)
        return _finish(poly, roots, inner.method)
    raise ValueError("no closed form dispatched for degree %d" % d)


def solve_condition(cond: UniPoly, *, prec: int = None, tol=None):
    """Solve an auxiliary coefficient condition of effective degree <= 3.

    Returns (effective_degree, roots).  Degree -1 means the condition holds
    identically (any value works); degree 0 means it is unsatisfiable and the
    caller raises its structured error.
    """
    d = cond.effective_degree(tol)
    if d <= 0:
        return d, []
    mon = UniPoly(cond.coeffs[:d + 1]).monic()[0]
    res = solve_monic(mon, prec=prec, tol=tol)
    return d, list(res.roots)


def assemble_preimages(target: UniPoly, y_roots, step, *, prec: int = None, tol=None):
    """Pick one preimage per image root so the multiset of preimages matches
    the root multiset of ``target``, greedily against the deflated remainder."""
    from .pipeline import back_solve

    R = target
    out = []
    for y in y_roots:
        cands = back_solve(step, y, prec=prec, tol=tol)
        pick = min(cands, key=lambda z: (R.eval(z).mag(),) + sort_key(z))
        out.append(pick)
        if R.degree > 1:
            R = deflate(R, pick)
    return out
