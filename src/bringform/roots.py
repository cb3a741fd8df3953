"""Verification of traces by algebra, recovery of roots, and the root finder.

Verification finds no roots: each step certifies itself (``verify_transform``)
and the final polynomial must be the trinomial the trace claims.  The root
finder serves recovery, the obstruction report and the tests.  It is a
simultaneous Aberth-Ehrlich iteration with a seeded, deterministically
perturbed circle of starting points, so identical inputs give bit-identical
root sets.  The circle sits inside Fujiwara's bound on the root moduli, so
it has the size of the roots rather than of the largest coefficient (Bini,
Numer. Algorithms 13, 1996).  Precision is staged as in MPSolve (Bini &
Robol, J. Comput. Appl. Math. 272, 2014): the circle, rounded to floats, is
first iterated in double precision, using + - * / and comparisons only, and
the working precision takes over from there, or from the circle itself when
a coefficient or an iterate does not fit a float or two iterates coincide.
``find_roots`` is the one place that merges multiple roots: it parks every
copy of one on the same value, so root sets compare by plain optimal
pairing.

Nothing here depends on what kind a step is.  Each ``TransformStep`` redoes
itself (``redo``) and moves roots through itself forward (``image``) and
back (``preimages``); verification and recovery only walk the chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from math import isfinite

import mpmath

from .errors import ConsistencyError, DegenerateDenominator
from .polynomials import (UniPoly, coeff_mismatch, coeff_scale, power_sums,
                          relative_residual, rem_monic)
from .scalars import (DEFAULT_PRECISION_BITS, DEFAULT_TOLERANCE, Scalar,
                      as_tol, context, negligible, rat, sort_key)
from .solvers import solve_condition

DEFAULT_MATCH_TOLERANCE = "1e-25"
MAX_ITERATIONS = 400
FLOAT_SWEEPS = 40       # cap on the float warm start
FLOAT_STEP = 1e-14      # its stopping rule on the largest relative step
FLOAT_RANGE = 1e300     # larger coefficients skip it


@dataclass(frozen=True)
class RootConfig:
    precision_bits: int = DEFAULT_PRECISION_BITS
    tol: str = DEFAULT_TOLERANCE
    seed: int = 0


@dataclass(frozen=True)
class RootSet:
    roots: tuple
    converged: bool
    iterations: int


@dataclass(frozen=True)
class VerifyReport:
    max_forward_residual: object  # mpf
    matched: bool
    bring_residuals: tuple

    def to_json(self):
        return {
            "max_forward_residual": mpmath.nstr(self.max_forward_residual, 25),
            "matched": bool(self.matched),
            "bring_residuals": [mpmath.nstr(b, 25) for b in self.bring_residuals],
        }


def find_roots(poly: UniPoly, config: RootConfig = None) -> RootSet:
    """All complex roots of a polynomial with numeric coefficients.

    Exact zero roots are stripped first so the iteration never stalls at the
    origin.  The start points lie at 1/2 to 3/4 of Fujiwara's bound
    2 max(|c_{n-1}|, |c_{n-2}|^(1/2), ..., |c_1|^(1/(n-1)), |c_0/2|^(1/n))
    on the root moduli of the monic remainder.  They are rounded to floats
    and iterated in double precision first (``_float_aberth``), with + - * /
    and comparisons only, so the bits are the same on every machine; where
    that stage falls back, the working precision starts from the circle
    itself.  Residuals are measured against a per-root noise floor
    2^(6-prec) * sum |c_j| |z|^j, the best any root of this polynomial can
    do in this precision.  ``iterations`` counts full-precision sweeps only,
    not those of the float stage.
    """
    cfg = config or RootConfig()
    if poly.degree < 1:
        raise ValueError("need degree >= 1 to have roots")
    monic = poly if poly.is_monic() else poly.monic()[0]
    coeffs = list(monic.coeffs)
    zeros = 0
    while len(coeffs) > 1 and coeffs[0].is_exact_zero():
        zeros += 1
        coeffs.pop(0)
    prec = cfg.precision_bits
    found = []
    iterations = 0
    converged = True
    n = len(coeffs) - 1
    if n >= 1:
        ctx = context(prec)
        cs = [ctx.make_mpc(c.to_mpc(prec)._mpc_) for c in coeffs]  # not rounded
        eps = ctx.mpf(2) ** (6 - prec)
        # Fujiwara's bound on the root moduli (c_0 != 0 once zero roots
        # are stripped), so the start circle has the roots' own size
        terms = [abs(cs[n - k]) ** (ctx.mpf(1) / k) for k in range(1, n)]
        terms.append((abs(cs[0]) / 2) ** (ctx.mpf(1) / n))
        bound = 2 * max(terms)
        rng = random.Random(cfg.seed)
        zs = []
        for j in range(n):
            ang = 2 * ctx.pi * (j + ctx.mpf(rng.random()) / 4 + rat(1, 3).fraction) / n
            rad = bound * (ctx.mpf(1) / 2 + ctx.mpf(rng.random()) / 4)
            zs.append(rad * ctx.exp(ctx.mpc(0, 1) * ang))
        warm = _float_aberth(cs, zs)
        if warm is not None:
            zs = [ctx.mpc(re, im) for re, im in warm]
        dcs = [cs[i] * i for i in range(1, n + 1)]
        acs = [abs(c) for c in cs]

        def horner(csl, z):
            acc = csl[-1]
            for c in reversed(csl[:-1]):
                acc = acc * z + c
            return acc

        def noise_floor(z):
            az = abs(z)
            t = ctx.mpf(0)
            w = ctx.mpf(1)
            for a in acs:
                t += a * w
                w *= az
            return eps * t

        for it in range(MAX_ITERATIONS):
            iterations = it + 1
            settled = True
            max_step = ctx.mpf(0)
            nxt = list(zs)
            for i, z in enumerate(zs):
                pv = horner(cs, z)
                if abs(pv) <= 16 * noise_floor(z):
                    continue
                settled = False
                dv = horner(dcs, z)
                if dv == 0:
                    nxt[i] = z + eps * (1 + abs(z))
                    continue
                w = pv / dv
                s = ctx.mpc(0)
                for j, zj in enumerate(zs):
                    if j != i:
                        s += 1 / (z - zj)
                den = 1 - w * s
                corr = w if den == 0 else w / den
                nxt[i] = z - corr
                rel = abs(corr) / max(1, abs(z))
                if rel > max_step:
                    max_step = rel
            zs = nxt
            if settled or (it > 0 and max_step <= eps):
                break
        zs = _polish_multiple(zs, cs, ctx)
        converged = all(abs(horner(cs, z)) <= 64 * noise_floor(z) for z in zs)
        found = [Scalar.from_mpc(z, prec) for z in zs]
    roots = tuple(sorted([rat(0)] * zeros + found, key=sort_key))
    return RootSet(roots, converged, iterations)


def _float_aberth(cs, zs):
    """Aberth in double precision from the start points zs, for the monic
    mpc coefficients cs (ascending); the points as (re, im) float pairs once
    the largest relative step (|Re| + |Im|) / max(1, |Re z| + |Im z|) falls
    below FLOAT_STEP, or after FLOAT_SWEEPS sweeps.  None, so that mpmath
    starts from zs itself, when a coefficient lies beyond FLOAT_RANGE, an
    iterate is no longer finite, or a divisor is zero (two iterates that
    coincide).  Complex values are float pairs under + - * / and comparisons
    only, each rounded on its own by IEEE 754, so every machine gets the
    same bits."""
    c = [(float(v.real), float(v.imag)) for v in cs]
    if any(abs(x) > FLOAT_RANGE for pair in c for x in pair):
        return None
    dc = [(re * i, im * i) for i, (re, im) in enumerate(c)][1:]
    z = [(float(v.real), float(v.imag)) for v in zs]

    def horner(coeffs, xr, xi):
        ar, ai = coeffs[-1]
        for cr, ci in reversed(coeffs[:-1]):
            ar, ai = ar * xr - ai * xi + cr, ar * xi + ai * xr + ci
        return ar, ai

    def div(ar, ai, br, bi):  # Smith's division: no overflow in |b|^2
        if abs(br) >= abs(bi):
            r = bi / br
            d = br + bi * r
            return (ar + ai * r) / d, (ai - ar * r) / d
        r = br / bi
        d = br * r + bi
        return (ar * r + ai) / d, (ai * r - ar) / d

    try:
        for _ in range(FLOAT_SWEEPS):
            nxt = list(z)
            worst = 0.0
            for i, (xr, xi) in enumerate(z):
                pr, pi = horner(c, xr, xi)
                if pr == 0 and pi == 0:
                    continue
                wr, wi = div(pr, pi, *horner(dc, xr, xi))
                sr = si = 0.0
                for j, (yr, yi) in enumerate(z):
                    if j != i:
                        qr, qi = div(1.0, 0.0, xr - yr, xi - yi)
                        sr, si = sr + qr, si + qi
                dr, di = 1 - (wr * sr - wi * si), -(wr * si + wi * sr)
                cr, ci = (wr, wi) if dr == 0 and di == 0 else div(wr, wi, dr, di)
                nxt[i] = (xr - cr, xi - ci)
                worst = max(worst, (abs(cr) + abs(ci)) / max(1.0, abs(xr) + abs(xi)))
            z = nxt
            if not all(isfinite(re) and isfinite(im) for re, im in z):
                return None
            if worst < FLOAT_STEP:
                break
    except ZeroDivisionError:
        return None
    return z


def _clusters(zs, ctx):
    """Index groups of the mpc values zs (at least one, in the context ctx)
    joined, transitively, whenever |z_i - z_j| <= tau * max(1, |z_i|, |z_j|),
    where tau = 64 * 2^(-prec/n) at the context's precision is the resolution
    limit of an n-fold root; groups come in order of their first member.
    """
    n = len(zs)
    tau = (ctx.mpf(2) ** (-ctx.prec)) ** (ctx.mpf(1) / n) * 64
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(zs[i] - zs[j]) <= tau * max(1, abs(zs[i]), abs(zs[j])):
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _polish_multiple(zs, cs, ctx):
    """Park every Aberth cluster on the exact multiple root it surrounds.

    A root of multiplicity m is a simple root of the (m-1)th derivative, so a
    few Newton steps from the cluster centroid recover it to full precision;
    all m members are replaced by that one value.  zs and cs are mpc values
    in the context ctx.
    """
    if len(zs) < 2:
        return zs
    out = list(zs)
    eps = ctx.mpf(2) ** (2 - ctx.prec)
    for members in _clusters(zs, ctx):
        m = len(members)
        if m < 2:
            continue
        q = list(cs)
        for _ in range(m - 1):
            q = [q[i] * i for i in range(1, len(q))]
        dq = [q[i] * i for i in range(1, len(q))]
        x = sum(zs[i] for i in members) / m
        for _ in range(60):
            fx = x * 0
            for c in reversed(q):
                fx = fx * x + c
            dfx = x * 0
            for c in reversed(dq):
                dfx = dfx * x + c
            if dfx == 0:
                break
            step = fx / dfx
            x = x - step
            if abs(step) <= eps * max(1, abs(x)):
                break
        for i in members:
            out[i] = x
    return out


def _best_pairing(xs, ys):
    """Smallest achievable max pairwise distance; exact for small sets."""
    n = len(xs)
    if n == 0:
        return mpmath.mpf(0)
    dist = [[(x - y).mag() for y in ys] for x in xs]
    if n <= 6:
        best = None
        for perm in permutations(range(n)):
            worst = max(dist[i][perm[i]] for i in range(n))
            if best is None or worst < best:
                best = worst
        return best
    # greedy nearest-neighbour for larger sets
    free = set(range(n))
    worst = mpmath.mpf(0)
    for i in range(n):
        j = min(free, key=lambda jj: dist[i][jj])
        free.remove(j)
        if dist[i][j] > worst:
            worst = dist[i][j]
    return worst


def match_roots(xs, ys, *, tol=DEFAULT_MATCH_TOLERANCE):
    """Do two root multisets agree within tol * max(1, largest |root|)?
    Returns (matched, distance), the distance being the largest gap of the
    optimal pairing.  A multiple root needs no special case: ``find_roots``
    returns every copy of it as one value.
    """
    if len(xs) != len(ys):
        return False, mpmath.inf
    scale = max([1] + [v.mag() for v in xs] + [v.mag() for v in ys])
    direct = _best_pairing(xs, ys)
    return direct <= as_tol(tol) * scale, direct


def verify_transform(step, config: RootConfig = None):
    """Certify one step with no roots: a monic input, an output that ``redo``
    reproduces (its power-sum route proves C = prod (y - T(z_i))), and an
    inverse map U with U(T) = z mod the input A, so T keeps distinct roots
    apart.  U is the step's one inverse map (``TransformStep.inverse``), the
    same that ``preimages`` pulls roots back with; U(T) is evaluated by
    Horner, not taken from the solve.  Returns (largest |coefficient| of
    U(T) - z relative to ``coeff_scale(A)``, 0 for a step without U, ok)."""
    cfg = config or RootConfig()
    A = step.input
    if not A.is_monic():
        return mpmath.inf, False
    try:
        ok = coeff_mismatch(step.redo(cfg.tol), step.output, cfg.tol) is None
    except (ConsistencyError, DegenerateDenominator, ValueError):
        ok = False  # ValueError: a map of too high a degree for its input
    if step.subsidiary is None or step.is_identity:
        return mpmath.mpf(0), ok
    U = step.inverse
    if U is None:
        return mpmath.inf, False
    T = step.subsidiary.map_in_z()
    UT = UniPoly([], "z")
    for u in reversed(U.coeffs):
        UT = UniPoly(rem_monic(UT * T + u, A), "z")
    miss = (UT - UniPoly([rat(0), rat(1)], "z")).coeffs
    scale = coeff_scale(A)
    residual = max([mpmath.mpf(0)] + [c.mag() for c in miss]) / scale
    return residual, ok and all(negligible(c, cfg.tol, scale) for c in miss)


def bring_curve_residual(roots):
    """|s1|, |s2|, |s3| of a degree-5 root set; all three vanish exactly when
    the set solves some y^5 + P y + Q."""
    if len(roots) != 5:
        raise ValueError("expected the five roots of a quintic")
    out = []
    for k in (1, 2, 3):
        acc = None
        for r in roots:
            t = r ** k
            acc = t if acc is None else acc + t
        out.append(acc.mag())
    return tuple(out)


def verify_trace(trace, config: RootConfig = None) -> VerifyReport:
    """matched when each step takes the previous output, is certified
    (``verify_transform``), and the chain ends at a final polynomial equal
    to the claimed y^n + bring_p y + bring_q (exactly in rational mode); it
    reports the worst step residual and |s1|, |s2|,
    |s3| of a quintic final polynomial.  Nothing raises for a bad trace."""
    cfg = config or RootConfig()
    ok, worst, prev = True, mpmath.mpf(0), trace.original
    for step in trace.steps:
        residual, step_ok = verify_transform(step, cfg)
        ok = ok and step_ok and coeff_mismatch(prev, step.input, cfg.tol) is None
        worst = max(worst, residual)
        prev = step.output
    final = trace.final
    claim = UniPoly([trace.bring_q, trace.bring_p] + [rat(0)] * (final.degree - 2)
                    + [rat(1)], final.var)
    ok = (ok and coeff_mismatch(prev, final, cfg.tol) is None
          and coeff_mismatch(claim, final, cfg.tol) is None)
    bring = () if final.degree != 5 else tuple(
        power_sums(final, 3).s(k).mag() for k in (1, 2, 3))
    return VerifyReport(worst, ok, bring)


def recover_roots(trace, config: RootConfig = None):
    """Roots of the original polynomial, recovered by walking the trace
    backward from the roots of the final trinomial, each step pulling them
    back through itself (``TransformStep.preimages``)."""
    cfg = config or RootConfig()
    ys = list(find_roots(trace.final, cfg).roots)
    for step in reversed(trace.steps):
        ys = step.preimages(ys, prec=cfg.precision_bits, tol=cfg.tol)
    return tuple(sorted(ys, key=sort_key))


def obstruction_consistency(report, config: RootConfig = None):
    """For each root c* of the obstruction polynomial, solving the y^2
    condition for b must also kill the y^1 condition; returns the worst
    relative slack |F(b*, c*)|."""
    cfg = config or RootConfig()
    G = report.obstruction
    if G.degree < 1:
        return mpmath.mpf(0)
    cstars = find_roots(G, cfg).roots
    worst = mpmath.mpf(0)
    for cstar in cstars:
        Eb, Fb = report.conditions_at(cstar)
        _, bs = solve_condition(Eb, prec=cfg.precision_bits, tol=cfg.tol)
        if bs:
            worst = max(worst, min(relative_residual(Fb, b) for b in bs))
    return worst
