"""Verification of traces by algebra, recovery of roots, and the root finder.

Verification finds no roots and eliminates nothing: each step certifies
itself by C(T) = 0 and U(T) = z modulo its input (``TransformStep.certify``),
and the polynomial the chain ends at must be the trinomial the trace
claims.  The root finder serves recovery, the obstruction report and the
tests.  It is a simultaneous Aberth-Ehrlich iteration with a seeded,
deterministically perturbed circle of starting points, so identical inputs
give bit-identical root sets.  The circle sits inside Fujiwara's bound on
the root moduli, so it has the size of the roots rather than of the largest
coefficient (Bini, Numer. Algorithms 13, 1996).  Precision is staged as in
MPSolve (Bini & Robol, J. Comput. Appl. Math. 272, 2014), in three stages:

1. The circle, made at 53 bits, is iterated in double precision, using
   + - * / and comparisons only.
2. Newton refines each of those roots at doubling precision, 116, 222, ...
   bits and last the working precision, over the terms each stage can see.
3. Full-precision Aberth sweeps take over.  Inclusion discs alone decide
   whether the Newton points go on, which points form a cluster to polish
   into a multiple root, and when the roots have converged.  From polished
   points the first sweep usually finds every root settled.

The Newton stages and the judgment that draws the discs evaluate on one
graded Horner on Python ints, ``polynomials.graded_horner``: each point is
graded by its own size, so a small root keeps its relative bits, and every
term is held on a grid 16 bits finer than the stage's precision below the
largest term at that point.  The judgment's |p(z)| and noise floor come
from squared magnitudes on those ints, rounded up with the Horner's stated
error, so its disc bounds are upper bounds.  The Aberth sweeps and the
cluster polish run on raw libmp pairs through the fused kernels of
``scalars`` (``cadd``, ``csub``, ``cmul``), with p(z) from a libmp Horner
of their own.  It keeps each part's own relative bits, so a sweep can
drive the imaginary part of a real root far below the last bit of its
real part, where a grid shared by both parts stops.  Every |z| here (the
start circle's moduli, the sweeps' steps, the polish and the discs'
distances) is ``scalars.hypot``, libmp's bits from one integer square
root.  ``find_roots`` is the one place that merges multiple roots: it
parks every copy of one on the same value, so root sets compare by plain
optimal pairing, and it hands its prec-bit points out as they are.

Nothing here depends on what kind a step is.  Each ``TransformStep``
certifies itself (``certify``) and moves roots back through itself
(``pull_back``, on the same graded Horner); verification and recovery only
walk the chain, and recovery refuses a chain that does not walk back.
Recovery tests each pulled-back root on the original once, exactly
(``polynomials.lies_on``); a miss quotes that residual rounded once.
"""

from __future__ import annotations

import functools
import random
from math import isfinite
from typing import NamedTuple

import mpmath
from mpmath.libmp import (finf, fone, from_float, from_int, from_man_exp, fzero,
                          mpc_add_mpf, mpc_div, mpc_div_mpf, mpc_mpf_div, mpc_mul_int,
                          mpf_add, mpf_cmp, mpf_cos_sin, mpf_div, mpf_gt, mpf_le, mpf_lt,
                          mpf_mul, mpf_mul_int, mpf_nthroot, mpf_pi, mpf_shift, mpf_sub,
                          round_down, round_nearest, round_up, to_float)

from .errors import ConsistencyError
from .polynomials import (UniPoly, ceil_abs, coeff_mismatch, graded_horner, lies_on,
                          power_sums, relative_residual)
from .scalars import (DEFAULT_PRECISION_BITS, DEFAULT_TOLERANCE, Scalar, as_tol,
                      cadd, cmul, csub, hypot, mag_binades, rat, sort_key)
from .solvers import solve_condition

DEFAULT_MATCH_TOLERANCE = "1e-25"
MAX_ITERATIONS = 400
FLOAT_SWEEPS = 40       # cap on the float warm start
FLOAT_STEP = 1e-14      # its stopping rule on the largest relative step
FLOAT_RANGE = 1e300     # larger coefficients skip it
RND = round_nearest
UP, DOWN = round_up, round_down  # away from and towards zero
CZERO = (fzero, fzero)
CONE = (fone, fzero)


class RootConfig(NamedTuple):
    precision_bits: int = DEFAULT_PRECISION_BITS
    tol: str = DEFAULT_TOLERANCE
    seed: int = 0


class RootSet(NamedTuple):
    roots: tuple
    converged: bool
    iterations: int


class VerifyReport(NamedTuple):
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
    on the root moduli of the monic remainder, made at 53 bits, and go
    through the float stage (``_float_aberth``, the same bits on every
    machine) and the Newton stages (``_newton_stages``).

    Each full-precision sweep judges its points first: p at each point,
    plus a noise floor 2^(6-prec) sum |c_j| |z|^j, gives the inclusion
    discs (``_clusters``).  An isolated disc whose |p(z)| is within 16
    noise floors is a settled simple root.  A component of k >= 2 discs
    that is the same as in the sweep before goes to ``_polish_multiple``;
    it is settled, its k points parked on the polished value, if that
    value passes the same residual test.  Aberth steps move the rest.  The
    Newton points go on only if their discs are all isolated; the sweeps
    start from the float roots otherwise, and from the circle where the
    float stage fell back.  ``converged`` says that every component
    settled before the steps stalled (none above 2^(6-prec) relative) or
    MAX_ITERATIONS sweeps ran.  ``iterations`` counts full-precision
    sweeps only.
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
    found, iterations, converged = [], 0, True
    n = len(coeffs) - 1
    if n >= 1:
        cs = [c._raw(prec) for c in coeffs]  # not rounded
        eps = mpf_shift(fone, 6 - prec)
        dcs = [mpc_mul_int(cs[i], i, prec, RND) for i in range(1, n + 1)]
        polishes = {}  # by cluster, its polished value if that passed, else None

        def judge(zs, prev):
            """The components of the points' discs (``_evaluate``), the
            polished value of each member of a settled cluster, and the
            points not settled; prev are the components of the sweep before."""
            evals = _evaluate(coeffs, zs, prec)
            groups = _clusters(zs, [e[0] for e in evals])
            parked, todo = {}, []
            for g in groups:
                if len(g) == 1 and evals[g[0]][1]:
                    continue
                key = tuple(g)
                if len(g) > 1 and g in prev and key not in polishes:  # it stopped splitting
                    x = _polish_multiple([zs[i] for i in g], cs, prec)
                    polishes[key] = x if _evaluate(coeffs, [x], prec)[0][1] else None
                if polishes.get(key):
                    parked.update((i, polishes[key]) for i in g)
                else:
                    todo.extend(g)
            return groups, parked, todo

        zs = _start_circle([hypot(c, 53) for c in cs], cfg.seed)
        warm = _float_aberth(cs, zs)
        first = None  # the judgment of zs, when already made
        if warm is not None:
            zs = [(from_float(re), from_float(im)) for re, im in warm]
            polished = _newton_stages(zs, coeffs, prec)
            # Newton may draw two points onto one root, where the sweep
            # below would divide by their difference
            first = judge(polished, [])
            zs, first = (polished, first) if len(first[0]) == n else (zs, None)
        groups = []
        for it in range(MAX_ITERATIONS):
            iterations = it + 1
            groups, parked, todo = first or judge(zs, groups)
            first = None
            if not todo:
                break
            max_step = fzero
            nxt = list(zs)
            for i in todo:
                z = zs[i]
                pv, dv, az = _horner(cs, z, prec), _horner(dcs, z, prec), hypot(z, prec)
                if dv == CZERO:
                    nxt[i] = mpc_add_mpf(z, mpf_mul(eps, mpf_add(az, fone, prec, RND), prec, RND),
                                         prec, RND)
                    continue
                w = mpc_div(pv, dv, prec, RND)
                s = CZERO
                for j, zj in enumerate(zs):
                    if j != i:
                        s = cadd(s, mpc_mpf_div(fone, csub(z, zj, prec), prec, RND), prec)
                den = csub(CONE, cmul(w, s, prec), prec)
                corr = w if den == CZERO else mpc_div(w, den, prec, RND)
                nxt[i] = csub(z, corr, prec)
                rel = mpf_div(hypot(corr, prec), _at_least_one(az), prec, RND)
                if mpf_gt(rel, max_step):
                    max_step = rel
            zs = nxt
            if it > 0 and mpf_le(max_step, eps):
                break
        if todo:  # the steps stalled or the sweeps ran out: judge where they ended,
            polishes.clear()  # polishing each cluster afresh from there
            _, parked, todo = judge(zs, groups)
        converged = not todo
        found = [Scalar.from_raw(parked.get(i, z), prec) for i, z in enumerate(zs)]
    roots = tuple(sorted([rat(0)] * zeros + found, key=sort_key))
    return RootSet(roots, converged, iterations)


def _start_circle(mags, seed):
    """n seeded start points, as raw pairs at 53 bits, from the moduli mags
    (raw mpfs, ascending, m_n = 1, m_0 != 0) of a monic polynomial's
    coefficients: angles 2 pi (j + u/4 + 1/3) / n and radii (1/2 + u/4)
    times Fujiwara's bound, u drawn from ``random.Random(seed)``.  The angle
    and radius factors are float + - * /, the rest libmp at 53 bits, so the
    bits are the same on every machine; the factors depend on (n, seed)
    alone and are made once (``_circle``).  The points only seed the float
    stage or, where it falls back, the working precision."""
    n = len(mags) - 1
    terms = [mpf_nthroot(mags[n - k], k, 53, RND) for k in range(1, n)]
    terms.append(mpf_nthroot(mpf_shift(mags[0], -1), n, 53, RND))
    bound = mpf_shift(max(terms, key=functools.cmp_to_key(mpf_cmp)), 1)
    zs = []
    for f, cos, sin in _circle(n, seed):
        rad = mpf_mul(bound, f, 53, RND)
        zs.append((mpf_mul(rad, cos, 53, RND), mpf_mul(rad, sin, 53, RND)))
    return zs


@functools.lru_cache(maxsize=256)
def _circle(n, seed):
    """The radius factor, cosine and sine of each of ``_start_circle``'s n
    points, raw mpfs at 53 bits, u drawn in the order angle, radius."""
    two_pi = mpf_shift(mpf_pi(53), 1)
    rng = random.Random(seed)
    out = []
    for j in range(n):
        turn = from_float((j + rng.random() / 4 + 1 / 3) / n)
        f = from_float(0.5 + rng.random() / 4)
        out.append((f, *mpf_cos_sin(mpf_mul(two_pi, turn, 53, RND), 53, RND)))
    return tuple(out)


def _newton_stages(zs, coeffs, prec):
    """The raw pairs zs, roots to about 53 bits of the polynomial with the
    ascending Scalar coefficients coeffs, refined by one Newton step at each
    of 116, 222, ... bits (double the accuracy plus 10 guard bits) and last
    at exactly prec, then rounded to prec.  p and p' at every point come
    from one ``graded_horner`` pass at the stage's bits, whose grid drops
    the terms too small for the stage to see: an exact zero never enters,
    and rounding noise in a coefficient only in the stages fine enough to
    see it.  Each step is one Gaussian division, and the points stay the
    Gaussian integers the pass graded them to until the last stage.  A
    point where the derivative vanishes stays where it is."""
    bits = 53
    while True:
        bits *= 2
        wp = min(bits + 10, prec)
        out = []
        for v in graded_horner(coeffs, zs, wp, derivative=True):
            (pr, pi, _, e), (dr, di, f), (x, y, g) = v.p, v.dp, v.point
            m = dr * dr + di * di
            if m:  # z - p / p' on z's grid: 2^(e - f - g) = 2^F, F the pass's bits
                k, h = e - f - g, m >> 1
                x -= ((pr * dr + pi * di << k) + h) // m
                y -= ((pi * dr - pr * di << k) + h) // m
            out.append((x, y, g))
        zs = out
        if wp == prec:
            return [(from_man_exp(x, g, prec, RND), from_man_exp(y, g, prec, RND))
                    for x, y, g in zs]


def _evaluate(coeffs, zs, prec):
    """Per raw pair z of zs, for the polynomial p with the ascending Scalar
    coefficients coeffs: a bound on |p(z)| plus the noise floor 2^(6-prec)
    sum |c_j| |z|^j, a raw mpf at 53 bits rounded up, and whether |p(z)| is
    within 16 noise floors.  Both come from one ``graded_horner`` pass at
    prec, on its ints: the magnitudes from squared magnitudes, rounded up,
    and the bound from |p(z)| plus the pass's stated error, so that it stays
    an upper bound."""
    k = len(coeffs) ** 2  # the stated error bound, on the pass's grid
    out = []
    for v in graded_horner(coeffs, zs, prec, size=True):
        re, im, _, e = v.p
        ap = ceil_abs(re, im)
        floor = (v.size << 6 >> prec) + 1
        out.append((from_man_exp(ap + k + floor, e, 53, UP), ap << prec <= v.size << 10))
    return out


def _at_least_one(x):
    """max(1, x) for a raw mpf x, as the raw mpf that Python's max hands on."""
    return x if mpf_gt(x, fone) else fone


def _horner(cs, x, prec):
    """The polynomial with ascending raw-pair coefficients cs (at least one)
    at the raw pair x."""
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = cadd(cmul(acc, x, prec), c, prec)
    return acc


def _float_aberth(cs, zs):
    """Aberth in double precision from the start points zs, for the monic
    coefficients cs (ascending), all raw pairs; the points as (re, im) float
    pairs once the largest relative step (|Re| + |Im|) / max(1, |Re z| + |Im z|) falls
    below FLOAT_STEP, or after FLOAT_SWEEPS sweeps.  None, so that mpmath
    starts from zs itself, when a coefficient lies beyond FLOAT_RANGE, an
    iterate is no longer finite, or a divisor is zero (two iterates that
    coincide).  Complex values are float pairs under + - * / and comparisons
    only, each rounded on its own by IEEE 754, so every machine gets the
    same bits."""
    c = [(to_float(re, rnd=RND), to_float(im, rnd=RND)) for re, im in cs]
    if any(abs(x) > FLOAT_RANGE for pair in c for x in pair):
        return None
    dc = [(re * i, im * i) for i, (re, im) in enumerate(c)][1:]
    z = [(to_float(re, rnd=RND), to_float(im, rnd=RND)) for re, im in zs]

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


def _clusters(zs, bounds):
    """Index groups of the raw pairs zs (at least one), in order of their
    first member: the components of the inclusion discs |z - z_i| <= r_i,
    r_i = n bounds[i] / prod_{j != i} |z_i - z_j|, where bounds[i] (a raw
    mpf) bounds |p(z_i)| for the monic p of degree n = len(zs).  A
    component of k discs holds exactly k roots of p (Carstensen, Numer.
    Math. 59, 1991; Bini & Fiorentino, Numer. Algorithms 23, 2000).  It
    works at 53 bits, distances rounded down (``scalars.hypot`` of the
    differences, each part rounded down) and radii up; a point that
    coincides with another has an infinite radius."""
    n = len(zs)
    dist, prods = {}, [fone] * n
    for i in range(n):
        for j in range(i + 1, n):
            (a, b), (c, d) = zs[i], zs[j]
            dist[i, j] = hypot((mpf_sub(a, c, 53, DOWN), mpf_sub(b, d, 53, DOWN)), 53, DOWN)
            prods[i] = mpf_mul(prods[i], dist[i, j], 53, DOWN)
            prods[j] = mpf_mul(prods[j], dist[i, j], 53, DOWN)
    radii = [finf if p == fzero else mpf_div(mpf_mul_int(b, n, 53, UP), p, 53, UP)
             for b, p in zip(bounds, prods)]
    label = list(range(n))  # a component's label is one of its members
    for (i, j), d in dist.items():
        if label[i] != label[j] and mpf_le(d, mpf_add(radii[i], radii[j], 53, UP)):
            old = label[i]
            label = [label[j] if x == old else x for x in label]
    return [[i for i in range(n) if label[i] == x] for x in dict.fromkeys(label)]


def _polish_multiple(cluster, cs, prec):
    """The multiple root that the raw pairs cluster (m >= 2 points at prec
    bits) surround, of the polynomial with ascending raw-pair coefficients
    cs.  A root of multiplicity m is a simple root of the (m-1)th
    derivative, so a few Newton steps on it from the cluster's centroid
    recover the root to full precision.  Those steps shrink quadratically
    until they reach rounding noise, so the polish stops at a step that is
    not below half the one before, without taking it."""
    m = len(cluster)
    q = list(cs)
    for _ in range(m - 1):
        q = [mpc_mul_int(q[i], i, prec, RND) for i in range(1, len(q))]
    dq = [mpc_mul_int(q[i], i, prec, RND) for i in range(1, len(q))]
    eps = mpf_shift(fone, 2 - prec)
    x = cluster[0]
    for z in cluster[1:]:
        x = cadd(x, z, prec)
    x = mpc_div_mpf(x, from_int(m), prec, RND)
    last = finf
    for _ in range(60):
        fx, dfx = _horner(q, x, prec), _horner(dq, x, prec)
        if dfx == CZERO:
            break
        step = mpc_div(fx, dfx, prec, RND)
        size = hypot(step, prec)
        if not mpf_lt(size, mpf_shift(last, -1)):
            break
        x = csub(x, step, prec)
        if mpf_le(size, mpf_mul(eps, _at_least_one(hypot(x, prec)), prec, RND)):
            break
        last = size
    return x


def _best_pairing(xs, ys):
    """Smallest achievable max pairwise distance over all pairings of xs
    with ys (equally many): the bottleneck matching, the least distance at
    which augmenting paths (Kuhn) pair every x."""
    dist = [[(x - y).mag() for y in ys] for x in xs]
    n = len(dist)

    def perfect(limit):
        owner = [None] * n  # the x paired with each y

        def augment(i, seen):
            for j in range(n):
                if dist[i][j] <= limit and j not in seen:
                    seen.add(j)
                    if owner[j] is None or augment(owner[j], seen):
                        owner[j] = i
                        return True
            return False

        return all(augment(i, set()) for i in range(n))

    return next((d for d in sorted(d for row in dist for d in row) if perfect(d)),
                mpmath.mpf(0))


def match_roots(xs, ys, *, tol=DEFAULT_MATCH_TOLERANCE):
    """Do two root multisets agree within tol * max(1, largest |root|)?
    Returns (matched, distance), the distance being the largest gap of the
    optimal pairing.  A multiple root needs no special case: ``find_roots``
    returns every copy of it as one value.
    """
    if len(xs) != len(ys):
        return False, mpmath.inf
    scale = max([mpmath.mpf(1)] + [v.mag() for v in xs] + [v.mag() for v in ys])
    direct = _best_pairing(xs, ys)
    return direct <= as_tol(tol, scale), direct


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
    """matched when each step takes the previous output and is certified
    (``TransformStep.certify``), and the chain ends at a final polynomial
    equal to the claimed y^n + bring_p y + bring_q (exactly in rational
    mode); it reports the worst step residual and |s1|, |s2|, |s3| of a
    quintic final polynomial, nan for one with an infinite or nan
    coefficient.  Nothing raises for a bad trace."""
    cfg = config or RootConfig()
    ok, worst, prev = True, mpmath.mpf(0), trace.original
    for step in trace.steps:
        residual, step_ok = step.certify(cfg.tol)
        ok = ok and step_ok and coeff_mismatch(prev, step.input, cfg.tol) is None
        worst = max(worst, residual)
        prev = step.output
    final = trace.final
    claim = UniPoly([trace.bring_q, trace.bring_p] + [rat(0)] * (final.degree - 2)
                    + [rat(1)], final.var)
    ok = ok and coeff_mismatch(claim, final, cfg.tol) is None
    bring = ()
    if final.degree == 5:  # power sums run on finite values alone
        bring = ((mpmath.nan,) * 3 if None in map(mag_binades, final.coeffs)
                 else tuple(s.mag() for s in power_sums(final, 3)[1:]))
    return VerifyReport(worst, ok, bring)


def recover_roots(trace, config: RootConfig = None):
    """Roots of the original polynomial: the roots of the final trinomial
    pulled back through every step by its inverse map
    (``TransformStep.pull_back``), then tested once, each on the original
    (``lies_on``).  ConsistencyError, rather than a guess, when a step or
    the final polynomial has a coefficient that is not finite (checked
    before any root is found), when a step has no inverse map or fails its
    certificate at cfg.tol (``certify``), or when a pulled-back root
    misses: a map that merges roots, as on a quintic with a
    repeated root, cannot be walked back.  The certificate is what proves
    the multiset: ``lies_on`` tests each root alone, and five copies of 1
    all lie on (z - 1)^2 (z^3 + 2z + 3)."""
    cfg = config or RootConfig()
    for i, step in enumerate(trace.steps):
        if not step.is_finite:
            raise ConsistencyError("step %d (%s) has a coefficient that is not finite"
                                   % (i, step.kind))
    if None in map(mag_binades, trace.final.coeffs):
        raise ConsistencyError("the final polynomial %s has a coefficient that is not finite"
                               % trace.final)
    zs = list(find_roots(trace.final, cfg).roots)
    for i in reversed(range(len(trace.steps))):
        step = trace.steps[i]
        zs = step.pull_back(zs)
        if zs is None:
            raise ConsistencyError("step %d (%s) has no inverse map: it merges roots"
                                   % (i, step.kind))
        if not step.certify(cfg.tol)[1]:
            raise ConsistencyError("step %d (%s) fails its certificate: it merges roots"
                                   % (i, step.kind))
    for z in zs:
        if not lies_on(trace.original, z, cfg.tol):
            raise ConsistencyError("recovered root %s misses the original: relative residual %s"
                                   % (z, mpmath.nstr(relative_residual(trace.original, z), 5)))
    return tuple(sorted(zs, key=sort_key))


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
