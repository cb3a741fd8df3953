"""Correctness checks that share no code with the package under test.

Each check returns a list of failure messages; an empty list means the
output is correct.  The checks read the package's result objects (traces,
polynomials, reports) only as data and recompute everything they compare
against with mpmath and sympy.  They run outside the timed region.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from itertools import permutations
from math import lcm

import mpmath
from sympy import ZZ, Poly, symbols
from sympy.polys.rings import ring

PRECISION_BITS = 256
MATCH_TOL = mpmath.mpf("1e-25")
CURVE_TOL = mpmath.mpf("1e-28")
REDUCTION_TOL = mpmath.mpf("1e-30")
MAX_AUX_DEGREE = 3

_X = symbols("x")


def _mpc(scalar):
    with mpmath.workprec(PRECISION_BITS):
        return mpmath.mpc(scalar.to_mpc(PRECISION_BITS))


@functools.cache
def reference_roots(coeffs):
    """Roots of an integer polynomial (ascending coefficients), with
    multiplicity: sympy's square-free split, then mpmath.polyroots on each
    square-free factor, so repeated roots cost no precision."""
    _, factors = Poly(list(reversed(coeffs)), _X).sqf_list()
    roots = []
    with mpmath.workprec(PRECISION_BITS):
        for factor, mult in factors:
            desc = [mpmath.mpf(int(c)) for c in factor.all_coeffs()]
            found = mpmath.polyroots(desc, maxsteps=200, extraprec=PRECISION_BITS)
            roots.extend(mpmath.mpc(r) for r in found for _ in range(mult))
    return tuple(roots)


def pairing_distance(xs, ys):
    """Smallest achievable largest distance over all pairings of two root
    lists of equal length (exhaustive; quintics have 120 pairings)."""
    dist = [[abs(x - y) for y in ys] for x in xs]
    return min(max(dist[i][j] for i, j in enumerate(perm))
               for perm in permutations(range(len(ys))))


def _map_step(step, zs):
    """Images of the points zs under one trace step (rescaling, then T)."""
    if step.rescue_scaling is not None:
        lam = _mpc(step.rescue_scaling)
        zs = [z / lam for z in zs]
    if step.kind == "reciprocal":
        return [1 / z for z in zs]
    sub = step.subsidiary
    cs = [_mpc(c) for c in sub.coeffs]
    if sub.k == 1:
        return [z + cs[0] for z in zs]
    # T = -(z^k + ... + b z + a) with coefficients (a, b, ...) ascending
    return [-(z ** sub.k + sum(c * z ** i for i, c in enumerate(cs))) for z in zs]


def check_quintic(coeffs, trace, recovered):
    """The claims a verified quintic result makes, against mpmath and sympy."""
    bad = []
    with mpmath.workprec(PRECISION_BITS):
        ref = reference_roots(coeffs)
        got = [_mpc(r) for r in recovered]
        if len(got) != 5:
            bad.append("recovered %d roots, expected 5" % len(got))
        else:
            scale = max([1] + [abs(r) for r in ref])
            d = pairing_distance(ref, got)
            if d > MATCH_TOL * scale:
                bad.append("recovered roots off by %s" % mpmath.nstr(d, 5))
        final = [_mpc(c) for c in trace.final.coeffs]
        fscale = max([mpmath.mpf(1)] + [abs(c) for c in final])
        for k in (4, 3, 2):
            c = final[k] if k < len(final) else mpmath.mpf(0)
            if abs(c) > REDUCTION_TOL * fscale:
                bad.append("final c%d = %s relative" % (k, mpmath.nstr(abs(c) / fscale, 5)))
        P, Q = _mpc(trace.bring_p), _mpc(trace.bring_q)
        tscale = max(1, abs(P), abs(Q))
        ys = ref
        for step in trace.steps:
            ys = _map_step(step, ys)
        for y in ys:
            rel = abs(y ** 5 + P * y + Q) / (tscale * max(1, abs(y)) ** 5)
            if rel > CURVE_TOL:
                bad.append("transported root off the trinomial by %s" % mpmath.nstr(rel, 5))
                break
    for step in trace.steps:
        for aux in step.aux:
            if aux.degree > MAX_AUX_DEGREE:
                bad.append("auxiliary %s of degree %d" % (aux.kind, aux.degree))
    return bad


def _int_coeffs(fracs):
    """Integer multiples of a list of Fractions, by the lcm of denominators."""
    d = lcm(*(f.denominator for f in fracs))
    return [int(f * d) for f in fracs], d


_RY, _Y = ring("y", ZZ)
_Z = ring("z", _RY)[1]


def _monic_fractions(poly, gen, degree):
    lead = poly.coeff(gen ** degree)
    return [Fraction(int(poly.coeff(gen ** j)), int(lead)) for j in range(degree + 1)]


@functools.cache
def resultant_monic(A, sub):
    """Res_z(A, B) made monic in y, as ascending Fractions.

    A is monic (ascending Fractions); sub = (a, b, ...) gives B = z + a - y
    when it has one entry, else B = z^k + ... + b z + a + y.  Denominators
    are cleared first, which scales the resultant by a constant only.
    """
    ai, _ = _int_coeffs(A)
    Az = sum(c * _Z ** i for i, c in enumerate(ai))
    k = len(sub)
    if k == 1:
        bi, d = _int_coeffs([sub[0], Fraction(1)])
        Bz = bi[1] * _Z + bi[0] - d * _Y
    else:
        bi, d = _int_coeffs(list(sub) + [Fraction(1)])
        Bz = sum(c * _Z ** i for i, c in enumerate(bi)) + d * _Y
    res = _RY(Az.resultant(Bz))
    return _monic_fractions(res, _Y, len(A) - 1)


def check_elimination(A, sub, C):
    """dual_eliminate's C must be the monic resultant, exactly."""
    if not all(c.is_rational for c in C.coeffs):
        return ["exact input gave inexact coefficients"]
    want = resultant_monic(A, sub)
    got = [c.fraction for c in C.coeffs]
    return [] if got == want else ["resultant mismatch: %s vs %s" % (got, want)]


_RYBC, _Y3, _B3, _C3 = ring("y,b,c", ZZ)
_Z3 = ring("z", _RYBC)[1]
_RC, _CC = ring("c", ZZ)
_RB, _BB = ring("b", _RC)


@functools.cache
def obstruction_sextic(p, q):
    """The obstruction of z^4 + p z + q recomputed independently: eliminate z
    from B = z^3 + c z^2 + b z + a + y with a = 3p/4, check that y^3 is gone,
    and eliminate b between the y^2 and y^1 coefficients.  Returns (monic
    ascending Fractions in c, whether the y^3 coefficient vanished)."""
    ai, _ = _int_coeffs([q, p, Fraction(0), Fraction(0), Fraction(1)])
    Az = sum(c * _Z3 ** i for i, c in enumerate(ai))
    dB = 4 * p.denominator
    Bz = dB * (_Z3 ** 3 + _C3 * _Z3 ** 2 + _B3 * _Z3 + _Y3) + 3 * p.numerator
    res = _RYBC(Az.resultant(Bz))
    rows = {1: _RB(0), 2: _RB(0), 3: _RB(0)}
    for (i, j, k), v in res.terms():
        if i in rows:
            rows[i] += _RB(_RC(int(v)) * _CC ** k) * _BB ** j
    G = _RC(rows[2].resultant(rows[1]))
    return _monic_fractions(G, _CC, G.degree()), rows[3] == 0


def check_obstruction(p, q, report):
    want, y3_gone = obstruction_sextic(p, q)
    bad = [] if y3_gone else ["a = 3p/4 left a y^3 term"]
    if report.a.fraction != p * Fraction(3, 4):
        bad.append("a = %s, expected 3p/4" % report.a)
    G = report.obstruction
    if not all(c.is_rational for c in G.coeffs):
        return bad + ["exact input gave an inexact obstruction"]
    lead = G.coeffs[-1].fraction
    got = [c.fraction / lead for c in G.coeffs]
    if got != want:
        bad.append("obstruction mismatch: %s vs %s" % (got, want))
    if report.degree != len(want) - 1:
        bad.append("degree %d, expected %d" % (report.degree, len(want) - 1))
    return bad


def check_cli(stdout, expected_p, expected_q):
    """A `reduce` run that exited 0 must say it verified and print the
    library's P and Q."""
    doc = json.loads(stdout)
    bad = []
    if doc["verify"]["matched"] is not True:
        bad.append("verify.matched is not true")
    if doc["trace"]["bring_p"] != expected_p or doc["trace"]["bring_q"] != expected_q:
        bad.append("bring_p/bring_q differ from the in-process result")
    return bad
