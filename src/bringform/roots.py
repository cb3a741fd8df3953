"""Numerical verification of transformation steps and whole traces.

Nothing in here feeds back into the algebra: the root finder, the matcher,
and the transports exist so that every claim a trace makes (each output is
the image of the input, the final trinomial really carries the original
roots) can be checked against independently computed root sets.

The root finder is a simultaneous Aberth-Ehrlich iteration with a seeded,
deterministically perturbed circle of starting points, so identical inputs
give bit-identical root sets.  The circle sits inside Fujiwara's bound on the
root moduli, so it has the size of the roots rather than of the largest
coefficient (Bini, Numer. Algorithms 13, 1996).  Multiple roots converge to
tight clusters rather than single points; the matcher compares cluster
centroids and sizes, where the symmetric placement error of a cluster
cancels.

Root recovery inverts each step by its map U with U(T(z)) = z on the roots
of the step's input (``pipeline.step_inverse``), and solves the subsidiary
relation root by root only for a step that has no such U.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations

import mpmath

from .errors import ConsistencyError
from .pipeline import (dual_eliminate, expected_step_input, lies_on,
                       reciprocal_transform, step_inverse)
from .polynomials import UniPoly, coeff_mismatch, relative_residual
from .scalars import (DEFAULT_PRECISION_BITS, DEFAULT_TOLERANCE, Scalar,
                      as_tol, context, rat, sort_key)
from .solvers import assemble_preimages, solve_condition

DEFAULT_MATCH_TOLERANCE = "1e-25"
MAX_ITERATIONS = 400


@dataclass(frozen=True)
class RootConfig:
    precision_bits: int = DEFAULT_PRECISION_BITS
    tol: str = DEFAULT_TOLERANCE
    seed: int = 0


def _match_tol(cfg: RootConfig):
    """Root sets match within the larger of ``DEFAULT_MATCH_TOLERANCE`` and
    the configured tol, so a tol loosened for a low precision loosens the
    matching too."""
    return max(as_tol(DEFAULT_MATCH_TOLERANCE), as_tol(cfg.tol))


@dataclass(frozen=True)
class RootSet:
    roots: tuple
    residuals: tuple
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
    on the root moduli of the monic remainder.  Residuals are measured
    against a per-root noise floor 2^(6-prec) * sum |c_j| |z|^j, the best
    any root of this polynomial can do in this precision.
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
        dcs = [cs[i] * i for i in range(1, n + 1)]

        def horner(csl, z):
            acc = csl[-1]
            for c in reversed(csl[:-1]):
                acc = acc * z + c
            return acc

        def noise_floor(z):
            az = abs(z)
            t = ctx.mpf(0)
            w = ctx.mpf(1)
            for c in cs:
                t += abs(c) * w
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
    residuals = tuple(monic.eval(r).mag() for r in roots)
    return RootSet(roots, residuals, converged, iterations)


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


def _distance(x: Scalar, y: Scalar):
    return (x - y).mag()


def _best_pairing(xs, ys):
    """Smallest achievable max pairwise distance; exact for small sets."""
    n = len(xs)
    if n == 0:
        return mpmath.mpf(0)
    dist = [[_distance(x, y) for y in ys] for x in xs]
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


def _centroids(roots, prec):
    """(centroid, size) of each cluster of the Scalar roots (``_clusters``)."""
    ctx = context(prec)
    groups = _clusters([ctx.make_mpc(r.to_mpc(prec)._mpc_) for r in roots], ctx)
    out = []
    for members in groups:
        acc = None
        for i in members:
            acc = roots[i] if acc is None else acc + roots[i]
        centroid = acc * rat(1, len(members))
        out.append((centroid, len(members)))
    return out


def match_roots(xs, ys, *, tol=DEFAULT_MATCH_TOLERANCE,
                prec=DEFAULT_PRECISION_BITS):
    """Do two root multisets agree within tol?  Returns (matched, distance).

    Plain optimal pairing first; if that misses, both sides are clustered and
    centroids compared, which forgives the symmetric scatter of a multiple
    root without forgiving a genuinely different root.
    """
    if len(xs) != len(ys):
        return False, mpmath.inf
    if not xs:
        return True, mpmath.mpf(0)
    scale = max([1] + [v.mag() for v in xs] + [v.mag() for v in ys])
    thr = as_tol(tol) * scale
    direct = _best_pairing(xs, ys)
    if direct <= thr:
        return True, direct
    cx = _centroids(xs, prec)
    cy = _centroids(ys, prec)
    if sorted(k for _, k in cx) != sorted(k for _, k in cy):
        return False, direct
    if len(cx) == len(xs):  # no clustering happened, the distance is real
        return False, direct
    # pair clusters of equal size by centroid distance
    worst = mpmath.mpf(0)
    free = list(range(len(cy)))
    for cen, size in cx:
        cands = [j for j in free if cy[j][1] == size]
        if not cands:
            return False, direct
        j = min(cands, key=lambda jj: _distance(cen, cy[jj][0]))
        free.remove(j)
        d = _distance(cen, cy[j][0])
        if d > worst:
            worst = d
    return worst <= thr, worst


def _transport_once(step, zs):
    """Image of each root under one step's map."""
    if step.kind == "reciprocal":
        return [rat(1) / z for z in zs]
    T = step.subsidiary.map_in_z()
    return [T.eval(z) for z in zs]


def verify_transform(step, config: RootConfig = None):
    """Check one step: transported input roots must sit on the output within
    the noise floor and agree with the output's own roots.  Returns
    (max relative forward residual, matched)."""
    cfg = config or RootConfig()
    if step.is_identity:
        return mpmath.mpf(0), True
    zs = find_roots(step.input, cfg).roots
    ys = _transport_once(step, zs)
    worst = max([mpmath.mpf(0)] + [relative_residual(step.output, y) for y in ys])
    direct = find_roots(step.output, cfg).roots
    ok, _ = match_roots(ys, direct, tol=_match_tol(cfg), prec=cfg.precision_bits)
    return worst, ok


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
    """Re-run every elimination in a trace and transport the original roots
    through it, comparing against directly computed roots of the final form.

    matched goes false if any structural re-check fails, if either root set
    (original or final) fails to converge, or if the final multiset
    comparison fails; nothing raises for a corrupted trace, it just reports.
    """
    cfg = config or RootConfig()
    ok = True
    prev = trace.original
    for step in trace.steps:
        expect_in = expected_step_input(prev.with_var("z"), step)
        if coeff_mismatch(expect_in, step.input, cfg.tol) is not None:
            ok = False
        if step.is_identity:
            if coeff_mismatch(step.input, step.output, cfg.tol) is not None:
                ok = False
        elif step.kind == "reciprocal":
            try:
                redo = reciprocal_transform(step.input, tol=cfg.tol)
                if coeff_mismatch(redo.output, step.output, cfg.tol) is not None:
                    ok = False
            except Exception:
                ok = False
        else:
            try:
                C, _ = dual_eliminate(step.input, step.subsidiary, cfg.tol)
                if coeff_mismatch(C, step.output, cfg.tol) is not None:
                    ok = False
            except ConsistencyError:
                ok = False
        prev = step.output
    original_roots = find_roots(trace.original.with_var("z"), cfg)
    zs = list(original_roots.roots)
    worst = mpmath.mpf(0)
    for step in trace.steps:
        if step.rescue_scaling is not None:
            zs = [z / step.rescue_scaling for z in zs]
        ys = _transport_once(step, zs)
        worst = max([worst] + [relative_residual(step.output, y) for y in ys])
        zs = ys
    direct = find_roots(trace.final, cfg)
    m_ok, _ = match_roots(zs, direct.roots, tol=_match_tol(cfg), prec=cfg.precision_bits)
    ok = ok and m_ok and original_roots.converged and direct.converged
    bring = bring_curve_residual(zs) if trace.final.degree == 5 else ()
    return VerifyReport(worst, ok, bring)


def recover_roots(trace, config: RootConfig = None):
    """Roots of the original polynomial, recovered by walking the trace
    backward from the roots of the final trinomial.

    Each step's image roots go back through its inverse map U
    (``step_inverse``), one polynomial evaluation per root, and every U(y)
    must pass ``back_solve``'s test of lying on the step's input.  A step
    whose map is not one-to-one on the input's roots has no U; it, or a step
    whose U(y) fails that test, falls back to solving the subsidiary relation
    for the preimages of each root (``assemble_preimages``).
    """
    cfg = config or RootConfig()
    ys = list(find_roots(trace.final, cfg).roots)
    for step in reversed(trace.steps):
        if step.kind == "reciprocal":
            ys = [rat(1) / y for y in ys]
        else:
            ys = _pull_back(step, ys, cfg)
        if step.rescue_scaling is not None:
            ys = [y * step.rescue_scaling for y in ys]
    return tuple(sorted(ys, key=sort_key))


def _pull_back(step, ys, cfg):
    U = step_inverse(step, cfg.tol)
    if U is not None:
        zs = [U.eval(y) for y in ys]
        if all(lies_on(step.input, z, cfg.tol) for z in zs):
            return zs
    return assemble_preimages(step.input, ys, step,
                              prec=cfg.precision_bits, tol=cfg.tol)


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
