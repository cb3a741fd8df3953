"""Bring's radical as a second route to the roots of y^5 + P y + Q.

With y = lambda x and lambda^4 = P the trinomial becomes x^5 + x + a, with
a = Q / lambda^5, and one root of that is the Bring radical
BR(a) = -a 4F3(1/5, 2/5, 3/5, 4/5; 1/2, 3/4, 5/4; -3125 a^4 / 256)
(King, *Beyond the Quartic Equation*, 1996; Glasser, "The quadratic formula
made hard", 1994).  mpmath's ``hyper`` continues the series past its radius
|a| < 4 / 5^(5/4).  The one radical root, deflated away, leaves a quartic
that ``solve_monic`` solves in closed form, so all five roots come without
the root finder, which they must match.
"""

import random

import mpmath

from bringform import (Scalar, UniPoly, deflate, find_roots, match_roots, rat,
                       reduce_general_quintic, solve_monic)

PREC = 256
TOL = "1e-60"


def bring_radical_root(P, Q):
    """-lambda a 4F3(...) for the trinomial y^5 + P y + Q (P != 0), at PREC
    bits, the parameters exact rationals."""
    with mpmath.workprec(PREC):
        lam = mpmath.root(P.to_mpc(PREC), 4)
        a = Q.to_mpc(PREC) / lam ** 5
        F = mpmath.hyper([(1, 5), (2, 5), (3, 5), (4, 5)], [(1, 2), (3, 4), (5, 4)],
                         -3125 * a ** 4 / 256)
        return Scalar.from_mpc(-lam * a * F, PREC)


def test_bring_radical_and_a_quartic_give_the_roots_of_the_final_trinomial():
    rng = random.Random(20260818)  # the acceptance batch
    for _ in range(40):
        A = UniPoly([rat(rng.randint(-10, 10)) for _ in range(5)] + [rat(1)], "z")
        trace = reduce_general_quintic(A)
        found = find_roots(trace.final).roots
        y = bring_radical_root(trace.bring_p, trace.bring_q)
        scale = max(mpmath.mpf(1), y.mag())
        assert min((y - r).mag() for r in found) <= mpmath.mpf(TOL) * scale, A
        rest = solve_monic(deflate(trace.final, y), prec=PREC).roots
        ok, dist = match_roots(found, (y,) + tuple(rest), tol=TOL)
        assert ok, (A, dist)
