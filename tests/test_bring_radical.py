"""Bring's radical as a second route to the roots of y^5 + P y + Q.

With y = lambda x and lambda^4 = P the trinomial becomes x^5 + x + a, with
a = Q / lambda^5, and one root of that is the Bring radical
BR(a) = -a 4F3(1/5, 2/5, 3/5, 4/5; 1/2, 3/4, 5/4; -3125 a^4 / 256)
(King, *Beyond the Quartic Equation*, 1996; Glasser, "The quadratic formula
made hard", 1994).  mpmath's ``hyper`` continues the series past its radius
|a| < 4 / 5^(5/4).  The one radical root, deflated away, leaves a quartic
that ``solve_monic`` solves in closed form, so all five roots come without
the root finder, which they must match.  Pulled back through every step by
a Horner of its own on the Scalar operations, they give the original
quintic's roots by a route that shares no code with ``find_roots`` or
``TransformStep.pull_back``, which ``recover_roots`` must match too.
"""

import functools
import random

import mpmath
import pytest

from bringform import (Scalar, UniPoly, deflate, find_roots, match_roots, rat,
                       recover_roots, reduce_general_quintic, solve_monic)

PREC = 256
TOL = "1e-60"
SEEDS = (20260818, 20261017)  # the acceptance batch and the held-out seed
COUNT = 100


def bring_radical_root(P, Q):
    """-lambda a 4F3(...) for the trinomial y^5 + P y + Q (P != 0), at PREC
    bits, the parameters exact rationals."""
    with mpmath.workprec(PREC):
        lam = mpmath.root(P.to_mpc(PREC), 4)
        a = Q.to_mpc(PREC) / lam ** 5
        F = mpmath.hyper([(1, 5), (2, 5), (3, 5), (4, 5)], [(1, 2), (3, 4), (5, 4)],
                         -3125 * a ** 4 / 256)
        return Scalar.from_mpc(-lam * a * F, PREC)


@functools.cache
def _batch(seed):
    """(quintic, trace, radical root, the deflated quartic's roots) for the
    first COUNT batch quintics of seed."""
    rng = random.Random(seed)
    out = []
    for _ in range(COUNT):
        A = UniPoly([rat(rng.randint(-10, 10)) for _ in range(5)] + [rat(1)], "z")
        trace = reduce_general_quintic(A)
        y = bring_radical_root(trace.bring_p, trace.bring_q)
        rest = solve_monic(deflate(trace.final, y), prec=PREC).roots
        out.append((A, trace, y, rest))
    return out


def _horner(U, x):
    """U(x) on the Scalar operations, highest coefficient first."""
    acc = U.coeffs[-1]
    for c in reversed(U.coeffs[:-1]):
        acc = acc * x + c
    return acc


def test_bring_radical_and_a_quartic_give_the_roots_of_the_final_trinomial():
    for A, trace, y, rest in _batch(SEEDS[0])[:40]:
        found = find_roots(trace.final).roots
        scale = max(mpmath.mpf(1), y.mag())
        assert min((y - r).mag() for r in found) <= mpmath.mpf(TOL) * scale, A
        ok, dist = match_roots(found, (y,) + tuple(rest), tol=TOL)
        assert ok, (A, dist)


@pytest.mark.parametrize("seed", SEEDS)
def test_the_radical_roots_pulled_back_are_the_recovered_roots(seed):
    for A, trace, y, rest in _batch(seed):
        zs = [y, *rest]
        for step in reversed(trace.steps):
            zs = [_horner(step.inverse, z) for z in zs]
        ok, dist = match_roots(recover_roots(trace), zs, tol=TOL)
        assert ok, (A, dist)
