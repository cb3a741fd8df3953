"""Simultaneous root iteration, multiset matching, and trace verification.

The root finder is checked against polynomials with planted roots, never
against itself.  Verification tests include a deliberately corrupted trace:
the harness must flag it rather than raise.
"""

import functools
import json
import random
import sys
import threading
from fractions import Fraction
from math import isfinite

import mpmath
import pytest
from mpmath.libmp import (fone, from_float, mpf_cmp, mpf_cos_sin, mpf_mul, mpf_nthroot,
                          mpf_pi, mpf_shift, round_nearest)

from bringform import (ConsistencyError, DegenerateDenominator, RootConfig, Scalar,
                       UniPoly, bring_curve_residual, coeff_scale, cx, find_roots,
                       match_roots, obstruction_consistency, quartic_obstruction_G,
                       quartic_remove_2_4, quintic_bring_ansatz, rat,
                       recover_roots, reduce_general_quintic, verify_trace)
from bringform import elimination, pipeline, polynomials, roots, solvers
from bringform.pipeline import (ReductionTrace, Subsidiary, TransformStep,
                                depress, quintic_to_bring_jerrard,
                                step_inverse, to_principal)
from bringform.polynomials import powers_mod
from bringform.scalars import sort_key
from helpers import rand_monic, rand_scalar

TINY = mpmath.mpf("1e-60")
README_QUINTIC = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])


def _batch_quintics(count):
    rng = random.Random(20260818)  # the acceptance batch
    return [UniPoly([rat(rng.randint(-10, 10)) for _ in range(5)] + [rat(1)])
            for _ in range(count)]


def _poly_from_roots(roots, var="z"):
    P = UniPoly([rat(1)], var)
    for r in roots:
        P = P * UniPoly([-r, rat(1)], var)
    return P


def test_planted_rational_roots_recovered():
    rng = random.Random(61)
    for _ in range(20):
        roots = [rand_scalar(rng, -5, 5, 4) for _ in range(rng.randint(2, 6))]
        P = _poly_from_roots(roots)
        rs = find_roots(P)
        assert rs.converged
        ok, dist = match_roots(rs.roots, roots, tol="1e-50")
        assert ok, "planted roots not recovered: %s" % dist


def test_wilkinson_style_integer_roots():
    P = _poly_from_roots([rat(k) for k in range(1, 11)])
    rs = find_roots(P)
    ok, _ = match_roots(rs.roots, [rat(k) for k in range(1, 11)], tol="1e-40")
    assert ok


def test_same_seed_reproduces_bits():
    rng = random.Random(62)
    P = rand_monic(rng, 5)
    a = find_roots(P, RootConfig(seed=3))
    b = find_roots(P, RootConfig(seed=3))
    assert [r.to_json() for r in a.roots] == [r.to_json() for r in b.roots]


def test_different_seed_same_values():
    rng = random.Random(63)
    P = rand_monic(rng, 5)
    a = find_roots(P, RootConfig(seed=0))
    b = find_roots(P, RootConfig(seed=99))
    ok, _ = match_roots(a.roots, b.roots, tol="1e-50")
    assert ok


def test_multiple_roots_polished_to_cluster_center():
    # (z-1)^5: a plain simultaneous iteration smears this; the polish pass
    # must put every copy at the same point, essentially exactly, as soon
    # as two sweeps agree on the one component that the five discs make
    P = _poly_from_roots([rat(1)] * 5)
    for prec in (256, 1024):
        rs = find_roots(P, RootConfig(precision_bits=prec))
        assert rs.converged and rs.iterations <= 10
        for r in rs.roots:
            assert (r - rat(1)).mag() <= TINY


def test_the_cluster_polish_stops_at_rounding_noise(monkeypatch):
    # (z - 1 + 3i)^3 (z + 2)^4 (z - 1/3)^3 with 256-bit coefficients, solved
    # at 512 bits: each polish's Newton steps shrink quadratically down to
    # about 1e-153 and stall there, so the polish must stop at that step
    # rather than run on rounding noise
    planted = [cx(1, -3)] * 3 + [rat(-2)] * 4 + [rat(1, 3)] * 3
    P = _poly_from_roots(planted)
    P = UniPoly([Scalar.from_mpc(c.to_mpc(), 256) for c in P.coeffs])
    polish, horner = roots._polish_multiple, roots._horner
    steps = []

    def counted(cluster, cs, prec):
        calls = []

        def evaluate(q, x, p):
            calls.append(q)
            return horner(q, x, p)

        monkeypatch.setattr(roots, "_horner", evaluate)
        try:
            return polish(cluster, cs, prec)
        finally:
            monkeypatch.setattr(roots, "_horner", horner)
            steps.append(len(calls) // 2)  # f and f' at each step

    monkeypatch.setattr(roots, "_polish_multiple", counted)
    rs = find_roots(P, RootConfig(precision_bits=512))
    assert len(steps) == 3 and max(steps) <= 10, steps
    assert rs.converged
    ok, dist = match_roots(rs.roots, planted, tol="1e-15")
    assert ok, dist


def test_mixed_multiplicities():
    P = _poly_from_roots([rat(2), rat(2), rat(-1), rat(-1), rat(-1)])
    rs = find_roots(P)
    ok, _ = match_roots(rs.roots, [rat(2), rat(2), rat(-1), rat(-1), rat(-1)],
                        tol="1e-40")
    assert ok


def test_zero_roots_are_exact():
    P = UniPoly([rat(0), rat(0), rat(0), rat(-2), rat(1)])  # z^3 (z - 2)
    rs = find_roots(P)
    zeros = [r for r in rs.roots if r.mag() == 0]
    assert len(zeros) == 3


def test_match_roots_rejects_perturbation_beyond_tolerance():
    xs = [rat(1), rat(2), rat(3)]
    ys = [rat(1), rat(2), rat(3) + rat(1, 10 ** 10)]
    ok, dist = match_roots(xs, ys, tol="1e-25")
    assert not ok and dist > mpmath.mpf("1e-11")
    ok, _ = match_roots(xs, ys, tol="1e-5")
    assert ok


def test_match_roots_rejects_different_multiplicity_split():
    xs = [rat(1), rat(1), rat(2)]
    ys = [rat(1), rat(2), rat(2)]
    ok, _ = match_roots(xs, ys, tol="1e-25")
    assert not ok


def test_match_roots_of_sets_of_different_sizes_is_no_match():
    assert match_roots([rat(1)], [rat(1), rat(2)]) == (False, mpmath.inf)
    assert match_roots([rat(1), rat(2)], []) == (False, mpmath.inf)


def test_match_roots_pairs_seven_roots_optimally():
    # nearest-neighbour pairing would take 0 with 1, leaving 2 with -1.1
    # (3.1); the optimal pairing is 0 with -1.1 and 2 with 1
    xs = [rat(v) for v in (0, 2, 10, 20, 30, 40, 50)]
    ys = [rat(1), rat(-11, 10)] + [rat(v) for v in (10, 20, 30, 40, 50)]
    ok, dist = match_roots(xs, ys, tol="0.03")
    assert ok and dist == rat(11, 10).mag()


def test_verify_transform_on_single_step():
    rng = random.Random(64)
    P = rand_monic(rng, 4)
    step = depress(P)
    worst, ok = step.certify()
    assert ok and worst <= mpmath.mpf("1e-50")


def test_bring_curve_residual_flags_non_trinomial_roots():
    # roots of a trinomial quintic satisfy s1 = s2 = s3 = 0
    P = UniPoly([rat(3), rat(2), rat(0), rat(0), rat(0), rat(1)])
    rs = find_roots(P)
    r1, r2, r3 = bring_curve_residual(rs.roots)
    assert max(r1, r2, r3) <= mpmath.mpf("1e-50")
    Q = rand_monic(random.Random(65), 5)
    rq = find_roots(Q)
    assert max(bring_curve_residual(rq.roots)) > mpmath.mpf("1e-3")


def test_verify_trace_accepts_honest_reduction():
    P = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])
    trace = reduce_general_quintic(P)
    report = verify_trace(trace)
    assert report.matched
    assert report.max_forward_residual <= mpmath.mpf("1e-50")
    assert len(report.bring_residuals) == 3
    assert max(report.bring_residuals) <= mpmath.mpf("1e-40")


def test_verify_trace_flags_corrupted_subsidiary_without_raising():
    P = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])
    trace = reduce_general_quintic(P)
    steps = list(trace.steps)
    victim = steps[-1]
    sub = victim.subsidiary
    bad_sub = type(sub)(sub.k, (sub.coeffs[0] + rat(1, 1000),) + sub.coeffs[1:])
    steps[-1] = TransformStep(victim.kind, victim.input, bad_sub, victim.output,
                              victim.aux)
    bad = ReductionTrace(trace.original, tuple(steps), trace.bring_p, trace.bring_q)
    report = verify_trace(bad)
    assert not report.matched


def test_verify_trace_flags_tampered_output_polynomial():
    P = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])
    trace = reduce_general_quintic(P)
    steps = list(trace.steps)
    victim = steps[0]
    out = victim.output
    bumped = UniPoly([out.coeff(0) + rat(1, 100)] + [out.coeff(k) for k in range(1, out.degree + 1)],
                     out.var)
    steps[0] = TransformStep(victim.kind, victim.input, victim.subsidiary, bumped,
                             victim.aux)
    bad = ReductionTrace(trace.original, tuple(steps), trace.bring_p, trace.bring_q)
    report = verify_trace(bad)
    assert not report.matched


def test_recover_roots_inverts_the_whole_chain():
    P = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])
    trace = reduce_general_quintic(P)
    direct = find_roots(P).roots
    recovered = recover_roots(trace)
    ok, dist = match_roots(direct, recovered, tol="1e-40")
    assert ok, "recovered roots drifted: %s" % dist


def test_recover_roots_through_a_rescued_step():
    # 15p + 20q = 0: the step solves the ansatz at halved roots
    with pytest.raises(DegenerateDenominator):
        quintic_bring_ansatz(rat(4), rat(-3), rat(1))
    P = UniPoly([rat(1), rat(-3), rat(4), rat(0), rat(0), rat(1)])
    trace = reduce_general_quintic(P)
    assert [s.input for s in trace.steps] == [P]
    report = verify_trace(trace)
    assert report.matched
    direct = find_roots(P).roots
    recovered = recover_roots(trace)
    ok, _ = match_roots(direct, recovered, tol="1e-40")
    assert ok


def test_low_precision_traces_verify_at_a_matching_tolerance():
    # each step certificate is measured against tol, so a tol fitted to 64
    # bits verifies
    cfg = RootConfig(precision_bits=64, tol="1e-12")
    rng = random.Random(20260818)  # the acceptance batch
    for _ in range(20):
        P = UniPoly([rat(rng.randint(-10, 10)) for _ in range(5)] + [rat(1)])
        trace = reduce_general_quintic(P, prec=cfg.precision_bits, tol=cfg.tol)
        assert verify_trace(trace, cfg).matched, P


def test_low_precision_recovery_inverts_every_step_by_its_map(monkeypatch):
    # at 64 bits the pivots of a fine map can be tiny relative to the largest
    # entry; U is still right, so recover neither refuses nor solves per root
    cfg = RootConfig(precision_bits=64, tol="1e-12")
    rng = random.Random(20260818)  # the acceptance batch
    polys = [UniPoly([rat(rng.randint(-10, 10)) for _ in range(5)] + [rat(1)])
             for _ in range(20)]
    traces = [reduce_general_quintic(P, prec=cfg.precision_bits, tol=cfg.tol)
              for P in polys]
    fallback = solvers.assemble_preimages
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return fallback(*args, **kwargs)

    for module in (pipeline, roots, solvers):  # wherever the name is bound
        if hasattr(module, "assemble_preimages"):
            monkeypatch.setattr(module, "assemble_preimages", counted)
    for P, trace in zip(polys, traces):
        ok, dist = match_roots(recover_roots(trace, cfg), find_roots(P, cfg).roots,
                               tol=cfg.tol)
        assert ok, (P, dist)
    assert calls == []


def test_depress_step_certifies_its_own_output_only():
    step = depress(_poly_from_roots([rat(1), rat(-2), rat(5)]))
    assert step.certify() == (0, True)
    # the same input and map with another output: C(T) mod A misses zero
    bad = TransformStep(step.kind, step.input, step.subsidiary,
                        _poly_from_roots([rat(0), rat(0), rat(1)], "y"), ())
    assert bad.certify() == (0, False)


def test_depress_step_maps_roots_forward_by_its_shift():
    zs = [rat(1), rat(-2), rat(5)]
    step = depress(_poly_from_roots(zs))
    T = step.subsidiary.map_in_z()
    ys = [T.eval(z) for z in zs]
    assert ys == [rat(-1, 3), rat(-10, 3), rat(11, 3)]
    assert all(step.output.eval(y).is_exact_zero() for y in ys)


def test_depress_step_pulls_roots_back_exactly():
    zs = [rat(1), rat(-2), rat(5)]
    step = depress(_poly_from_roots(zs))
    assert step.pull_back([rat(-1, 3), rat(-10, 3), rat(11, 3)]) == zs


def test_obstruction_consistency_on_generic_quartic():
    rep = quartic_obstruction_G(rat(1), rat(1))
    slack = obstruction_consistency(rep)
    assert slack <= mpmath.mpf("1e-25")


@pytest.mark.parametrize("zero", [rat(0), cx(0, 0, 256)])
def test_obstruction_of_z4_is_the_zero_polynomial(zero):
    # every power sum of z^4 vanishes, so both conditions are empty forms
    rep = quartic_obstruction_G(zero, zero)
    assert rep.degree == -1 and rep.degenerate
    assert rep.obstruction.is_exact_zero()
    assert obstruction_consistency(rep) == 0


def test_final_trinomial_needs_few_aberth_iterations():
    # a start circle of the roots' own size needs few Aberth iterations
    trace = reduce_general_quintic(README_QUINTIC)
    rs = find_roots(trace.final)
    # the float stage and the Newton stages leave one or two full-precision
    # sweeps, which is all ``iterations`` counts
    assert rs.converged and rs.iterations <= 2
    zs = find_roots(README_QUINTIC).roots
    for step in trace.steps:
        T = step.subsidiary.map_in_z()
        zs = [T.eval(z) for z in zs]
    ok, dist = match_roots(rs.roots, zs, tol="1e-40")
    assert ok, "final roots drifted from the transported ones: %s" % dist


def _spy_float_stage(monkeypatch):
    """Record what each float warm start returns (None: the fallback)."""
    results = []
    stage = roots._float_aberth

    def spy(cs, zs):
        results.append(stage(cs, zs))
        return results[-1]

    monkeypatch.setattr(roots, "_float_aberth", spy)
    return results


def test_float_stage_skips_coefficients_beyond_float_range(monkeypatch):
    results = _spy_float_stage(monkeypatch)
    P = UniPoly([rat(1), rat(10 ** 310), rat(0), rat(0), rat(0), rat(1)])
    rs = find_roots(P)
    assert results == [None]
    assert rs.converged and len(rs.roots) == 5


def test_float_stage_falls_back_on_a_non_finite_iterate(monkeypatch):
    # every coefficient fits a float, but the start points near 1e299 square
    # to infinity, so the float stage must give up and mpmath start afresh
    results = _spy_float_stage(monkeypatch)
    seen = []

    def finite(x):
        seen.append(isfinite(x))
        return seen[-1]

    monkeypatch.setattr(roots, "isfinite", finite)
    P = UniPoly([rat(1), rat(10 ** 299), rat(1)])
    rs = find_roots(P)
    assert results == [None] and False in seen
    assert rs.converged
    ok, dist = match_roots(rs.roots, [rat(-10 ** 299), rat(-1, 10 ** 299)], tol="1e-100")
    assert ok, dist


def test_float_stage_keeps_the_seed_bit_exact(monkeypatch):
    results = _spy_float_stage(monkeypatch)
    guards = _spy_newton_guard(monkeypatch)
    final = reduce_general_quintic(README_QUINTIC).final
    a = find_roots(final, RootConfig(seed=3))
    b = find_roots(final, RootConfig(seed=3))
    assert all(r is not None for r in results)
    assert guards == [5, 5]  # the Newton stages ran and handed their points on
    assert [r.to_json() for r in a.roots] == [r.to_json() for r in b.roots]


def _spy_newton_guard(monkeypatch):
    """Record how many components the inclusion discs of the points each
    Newton stage returns make (fewer than the points: the guard's
    fallback)."""
    found, polished = [], []
    stages, clusters = roots._newton_stages, roots._clusters

    def newton(zs, cs, prec):
        polished.append(stages(zs, cs, prec))
        return polished[-1]

    def spy(zs, bounds):
        groups = clusters(zs, bounds)
        if polished and zs is polished[-1]:
            found.append(len(groups))
        return groups

    monkeypatch.setattr(roots, "_newton_stages", newton)
    monkeypatch.setattr(roots, "_clusters", spy)
    return found


@pytest.mark.parametrize("prec,tol", [(64, "1e-12"), (256, "1e-60"), (1024, "1e-60")])
def test_newton_stages_agree_with_a_run_without_them(monkeypatch, prec, tol):
    # the Newton stages only move where the full-precision sweeps start, so
    # both runs end at the same roots (to the tolerance 64 bits can hold)
    finals = [reduce_general_quintic(P, prec=prec, tol="1e-12" if prec == 64 else None).final
              for P in _batch_quintics(20)]
    cfg = RootConfig(precision_bits=prec)
    staged = [find_roots(f, cfg) for f in finals]
    monkeypatch.setattr(roots, "_newton_stages", lambda zs, cs, prec: zs)
    for f, got in zip(finals, staged):
        plain = find_roots(f, cfg)
        assert got.converged and plain.converged
        assert got.iterations <= 2 and got.iterations <= plain.iterations, f
        ok, dist = match_roots(got.roots, plain.roots, tol=tol)
        assert ok, (f, dist)


@pytest.mark.parametrize("prec,tol", [(64, "1e-14"), (128, "1e-30"), (256, "1e-30")])
def test_every_batch_trinomial_settles_at_its_first_judgment(prec, tol):
    # the Newton points of each final trinomial pass the first judgment, so
    # no Aberth sweep steps: the count the libmp Newton stages gave
    for seed in (20260818, 20261017):
        rng = random.Random(seed)
        for _ in range(40):
            P = UniPoly([rat(rng.randint(-10, 10)) for _ in range(5)] + [rat(1)])
            final = reduce_general_quintic(P, prec=prec, tol=tol).final
            rs = find_roots(final, RootConfig(precision_bits=prec, tol=tol))
            assert rs.converged and rs.iterations == 1, (seed, P)


def test_newton_stages_see_terms_at_the_size_of_the_roots():
    # the roots 10^20 .. 5 * 10^20 make c_0 ~ 10^102 dwarf c_4 ~ 10^21 by
    # far more than 2^124, yet every term is as large as c_0 there: a stage
    # that dropped c_4 as small would pull the points away from the roots
    planted = [rat(k * 10 ** 20) for k in range(1, 6)]
    rs = find_roots(_poly_from_roots(planted))
    assert rs.converged and rs.iterations == 1
    ok, dist = match_roots(rs.roots, planted, tol="1e-70")
    assert ok, dist


def _near_double(k):
    """(z - 1)(z - 1 - 10^-k)(z + 2)(z^2 + 1) and its five planted roots."""
    planted = [rat(1), rat(10 ** k + 1, 10 ** k), rat(-2), cx(0, 1), cx(0, -1)]
    return _poly_from_roots(planted[:3]) * UniPoly([rat(1), rat(0), rat(1)]), planted


def _distinct(rs):
    return len({tuple(r.to_json()) for r in rs.roots})


def test_a_near_double_root_takes_the_guards_fallback(monkeypatch):
    # 128 bits pin the roots 1 and 1 + 10^-20 only to about 1e-17, so the
    # discs of the Newton points there overlap and the guard hands the
    # sweeps the float points; the pair is one double root at this
    # precision, polished onto one value between the two
    guards = _spy_newton_guard(monkeypatch)
    P, planted = _near_double(20)
    rs = find_roots(P, RootConfig(precision_bits=128))
    assert guards and guards[0] < 5
    assert rs.converged and _distinct(rs) == 4
    ok, dist = match_roots(rs.roots, planted, tol="1e-19")
    assert ok, dist


@pytest.mark.parametrize("k,prec,tol", [(3, 64, "1e-12"), (5, 64, "1e-12"),
                                        (20, 256, "1e-50")])
def test_near_double_roots_that_the_precision_resolves_stay_apart(k, prec, tol):
    # the discs of 1 and 1 + 10^-k are disjoint once the precision pins
    # each root far inside 10^-k, so neither is parked on the other
    P, planted = _near_double(k)
    rs = find_roots(P, RootConfig(precision_bits=prec))
    assert rs.converged and _distinct(rs) == 5
    ok, dist = match_roots(rs.roots, planted, tol=tol)
    assert ok, dist


def test_roots_of_unity_stay_apart_at_64_bits():
    # 16 simple roots 0.39 apart: each disc is isolated at any precision
    rs = find_roots(UniPoly([rat(-1)] + [rat(0)] * 15 + [rat(1)]),
                    RootConfig(precision_bits=64))
    assert rs.converged and _distinct(rs) == 16
    unity = [Scalar.from_mpc(mpmath.expjpi(mpmath.mpf(2 * j) / 16), 64) for j in range(16)]
    ok, dist = match_roots(rs.roots, unity, tol="1e-15")
    assert ok, dist


def test_random_integer_polynomials_converge_at_64_bits():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(6, 12)
        P = UniPoly([rat(rng.randint(-10, 10)) for _ in range(n)] + [rat(1)])
        rs = find_roots(P, RootConfig(precision_bits=64))
        assert rs.converged and _distinct(rs) == n, P
        ok, dist = match_roots(rs.roots, find_roots(P).roots, tol="1e-12")
        assert ok, (P, dist)


def test_float_stage_agrees_with_a_pure_mpmath_run(monkeypatch):
    finals = [reduce_general_quintic(P).final for P in _batch_quintics(20)]
    staged = [find_roots(f) for f in finals]
    monkeypatch.setattr(roots, "_float_aberth", lambda cs, zs: None)
    for f, got in zip(finals, staged):
        pure = find_roots(f)  # mpmath from the same circle
        assert got.converged and pure.converged
        ok, dist = match_roots(got.roots, pure.roots, tol="1e-60")
        assert ok, (f, dist)


def test_each_step_builds_its_inverse_map_once(monkeypatch):
    # counted from reduce on, whose certificates build every inverse map
    calls = []

    def counted(step):
        calls.append(step)
        return step_inverse(step)

    for module in (pipeline, roots):  # wherever the name is bound
        if hasattr(module, "step_inverse"):
            monkeypatch.setattr(module, "step_inverse", counted)
    trace = reduce_general_quintic(README_QUINTIC)
    assert verify_trace(trace).matched
    recover_roots(trace)
    mapped = [s for s in trace.steps if not s.is_identity]
    assert len(mapped) == 3
    for step in mapped:
        assert sum(c is step for c in calls) == 1, step.kind


def test_threads_sharing_one_trace_fill_its_memos_consistently():
    # a re-read trace starts with empty memo slots (powers, inverse maps,
    # max_mag, power sums); four threads fill them at once and must give
    # the bytes of a run on a trace of its own
    text = reduce_general_quintic(README_QUINTIC).to_json()

    def run(trace):
        report = verify_trace(trace)
        found = recover_roots(trace)
        return json.dumps(report.to_json()), json.dumps([z.to_json() for z in found])

    serial = run(ReductionTrace.from_json(text))
    shared = ReductionTrace.from_json(text)
    start = threading.Barrier(4)
    results = [None] * 4

    def work(i):
        start.wait()
        try:
            results[i] = run(shared)
        except Exception as exc:  # a race surfaces as a failed check
            results[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4
    assert run(shared) == serial


def _count_calls(monkeypatch, name, modules):
    """Wrap the function ``name`` wherever one of ``modules`` binds it; the
    list of the calls' positional arguments."""
    original = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_each_step_builds_its_powers_of_T_once(monkeypatch):
    # reduce's power-sum route builds the table and the step keeps it, so
    # verify and recover build none; a step read from JSON builds its own
    calls = _count_calls(monkeypatch, "powers_mod",
                         [polynomials, elimination, pipeline, roots])
    trace = reduce_general_quintic(README_QUINTIC)
    assert verify_trace(trace).matched
    recover_roots(trace)
    assert len(calls) == 3
    copy = ReductionTrace.from_json(trace.to_json())
    assert verify_trace(copy).matched
    recover_roots(copy)
    assert len(calls) == 6
    for step, read in zip(trace.steps, copy.steps):
        assert read.powers == powers_mod(read.subsidiary.map_in_z(), read.input).rows
        if read.input == step.input:
            assert read.powers == step.powers, step.kind
        else:
            # the bring-jerrard input of a trace file keeps the principal
            # output's vanished z^4, z^3 coefficients as rounding noise
            # (ROADMAP item 4), so its table differs in that noise only
            assert step.kind == "bring-jerrard"
            scale = max(c.mag() for row in step.powers for c in row)
            assert all((a - b).mag() <= TINY * scale
                       for ra, rb in zip(step.powers, read.powers)
                       for a, b in zip(ra, rb))


def test_the_powers_table_stays_out_of_equality_repr_and_json(monkeypatch):
    # the table and the kept certificates; reduce certifies each step it
    # keeps once, and verify reads those verdicts until the tolerance
    # changes: mpmath's global precision does not enter them
    runs = _count_calls(monkeypatch, "_certificate", [TransformStep])
    trace = reduce_general_quintic(README_QUINTIC)
    assert len(runs) == 3
    before = [(repr(s), s.to_json()) for s in trace.steps]
    assert verify_trace(trace).matched and verify_trace(trace).matched
    assert len(runs) == 3
    dyadic = RootConfig(tol=mpmath.ldexp(1, -100))  # the same mpf at every precision
    verify_trace(trace, dyadic)
    assert len(runs) == 6
    with mpmath.workprec(300):
        verify_trace(trace, dyadic)
    assert len(runs) == 6
    assert [(repr(s), s.to_json()) for s in trace.steps] == before
    copy = ReductionTrace.from_json(trace.to_json())
    assert all(not s._verdicts for s in copy.steps)
    assert verify_trace(copy).matched and len(runs) == 9
    step = trace.steps[0]
    bare = TransformStep(step.kind, step.input, step.subsidiary, step.output, step.aux)
    assert "table" in vars(step) and "table" not in vars(bare)
    assert step._verdicts and not bare._verdicts
    assert step == bare and repr(step) == repr(bare)
    assert step.to_json() == bare.to_json()
    assert isinstance(step.powers, tuple) and all(isinstance(r, tuple) for r in step.powers)
    assert bare.powers == step.powers and "table" in vars(bare)


@pytest.mark.parametrize("mode", ["rational", "complex"])
@pytest.mark.parametrize("prec, tol", [(64, "1e-14"), (256, "1e-30")])
def test_a_step_without_a_table_builds_one_with_the_same_inverse_and_verdicts(prec, tol, mode):
    # a step made by hand, or read from JSON onto the same input, builds its
    # table on first use, and its U and certificates are the ones of the
    # step reduce built with the table of its power-sum route
    tols = (tol, "1e-8", "1e-%d" % (prec * 3 // 10))
    for P in [README_QUINTIC] + _batch_quintics(3):
        if mode == "complex":
            P = UniPoly([cx(c.fraction, 0, prec) for c in P.coeffs[:-1]] + [rat(1)])
        trace = reduce_general_quintic(P, prec=prec, tol=tol)
        copy = ReductionTrace.from_json(json.loads(json.dumps(trace.to_json())), prec)
        for step, read in zip(trace.steps, copy.steps):
            bare = TransformStep(step.kind, step.input, step.subsidiary, step.output, step.aux)
            for other in [bare] + [read] * (read.input == step.input):
                assert "table" not in vars(other)
                assert other.inverse.to_json() == step.inverse.to_json(), step.kind
                assert [other.certify(t) for t in tols] == [step.certify(t) for t in tols]
                assert "table" in vars(other)


def test_recover_tests_each_root_once_on_the_original(monkeypatch):
    for P in [README_QUINTIC] + _batch_quintics(3):
        trace = reduce_general_quintic(P)
        tested = _count_calls(monkeypatch, "lies_on", [pipeline, roots])
        solved = _count_calls(monkeypatch, "assemble_preimages",
                              [solvers, pipeline, roots])
        recover_roots(trace)
        assert len(tested) == 5 and all(args[0] is trace.original for args in tested), P
        assert solved == [], P
        monkeypatch.undo()


@pytest.mark.parametrize("ascending", [
    (3, -4, -1, 3, -2, 1),  # (z - 1)^2 (z^3 + 2z + 3): pulled-back roots miss
    (0, 0, 0, 1, 2, 1),     # z^3 (z + 1)^2: the principal step has no U
])
def test_recover_refuses_a_chain_past_the_refusal(ascending):
    # walking back cannot separate roots the map merged; stepwise solving
    # gave five copies of 1 for the first, so recover refuses instead
    trace = _chain_past_the_refusal(ascending)
    with pytest.raises(ConsistencyError):
        recover_roots(trace)


def test_step_inverse_undoes_every_readme_step():
    trace = reduce_general_quintic(README_QUINTIC)
    assert trace.steps[0].kind == "depress"
    for step in trace.steps:
        U = step_inverse(step)
        assert U is not None
        T = step.subsidiary.map_in_z()
        for z in find_roots(step.input).roots:
            err = (U.eval(T.eval(z)) - z).mag()
            assert err <= TINY * max(1, z.mag()), (step.kind, err)
    U = step_inverse(trace.steps[0])
    assert U.is_rational_tree()
    assert U == UniPoly([-trace.steps[0].subsidiary.coeffs[0], rat(1)], "y")


def test_step_inverse_refuses_a_map_that_merges_roots():
    # z^4 + z -> y^4 + 3y^2 sends two roots to y = 0
    step = quartic_remove_2_4(rat(1), rat(0))
    assert step_inverse(step) is None
    # solving the subsidiary relation root by root still pulls the roots
    # back (``solve_quartic`` walks this way) ...
    ok, dist = match_roots(solvers.assemble_preimages(step, find_roots(step.output).roots),
                           find_roots(step.input).roots, tol="1e-40")
    assert ok, dist
    # ... but recover_roots, which walks inverse maps only, refuses and
    # names the step
    trace = ReductionTrace(step.input, (step,), rat(0), rat(0))
    with pytest.raises(ConsistencyError, match="step 0 .*no inverse map"):
        recover_roots(trace)


def _chain_past_the_refusal(P):
    """The trace ``reduce_general_quintic`` would give the quintic P (a
    UniPoly, or its ascending integer coefficients) with a repeated root if
    it did not refuse it: depress, principal shape and the bring-jerrard
    step, identities elided, up to the first step that is itself
    degenerate."""
    if not isinstance(P, UniPoly):
        P = UniPoly([rat(c) for c in P])
    with pytest.raises(DegenerateDenominator):
        reduce_general_quintic(P)
    steps, cur = [], P
    for make in (depress, to_principal,
                 lambda A: quintic_to_bring_jerrard(A.coeff(2), A.coeff(1), A.coeff(0))):
        try:
            st = make(cur)
        except DegenerateDenominator:
            break
        if not st.is_identity:
            steps.append(st)
            cur = st.output.with_var("z")
    return ReductionTrace(P, tuple(steps), cur.coeff(1), cur.coeff(0))


@pytest.mark.parametrize("gaussian", [False, True], ids=["rational", "gaussian"])
@pytest.mark.parametrize("shape", [(2, 1, 1, 1), (3, 1, 1), (2, 2, 1), (2, 3), (4, 1)],
                         ids=str)
def test_planted_repeated_roots_are_refused_not_guessed(shape, gaussian):
    # rational roots exactly, Gaussian integers as complex floats: reduce
    # refuses both, and on the chain past the refusal recover either
    # refuses too or returns the roots, never another multiset
    rng = random.Random("%s %s" % (shape, gaussian))
    for _ in range(4):
        vals = []
        while len(vals) < len(shape):
            v = (cx(rng.randint(-3, 3), rng.randint(-3, 3)) if gaussian
                 else rat(rng.randint(-4, 4), rng.randint(1, 2)))
            if all(v != w for w in vals):
                vals.append(v)
        P = _poly_from_roots([v for v, m in zip(vals, shape) for _ in range(m)])
        trace = _chain_past_the_refusal(P)
        try:
            got = recover_roots(trace)
        except ConsistencyError:
            continue
        ok, dist = match_roots(got, find_roots(P).roots, tol="1e-25")
        assert ok, (P, dist)


@pytest.mark.parametrize("ascending", [
    (0, 0, 1, 1, -1, 1),
    (3, -4, -1, 3, -2, 1),  # (z - 1)^2 (z^3 + 2z + 3)
    (0, 0, 1, 1, 0, 1),     # z^2 (z^3 + z + 1)
])
def test_verify_trace_rejects_a_collapsed_chain(ascending):
    # the bring-jerrard map collapses the planted repeated root: the final
    # polynomial is y^5 plus rounding noise, whose five roots, all within
    # 1e-20 of 0, the discs find apart; verify rejects the step itself,
    # because U(T) mod A, its inverse map evaluated, misses z
    trace = _chain_past_the_refusal(ascending)
    rs = find_roots(trace.final)
    assert rs.converged and all(r.mag() <= mpmath.mpf("1e-20") for r in rs.roots)
    assert verify_trace(trace).matched is False


@pytest.mark.parametrize("ascending", [
    (0, 0, 0, 1, 2, 1),     # z^3 (z + 1)^2
    (3, -4, -1, 3, -2, 1),  # (z - 1)^2 (z^3 + 2z + 3)
    (0, 0, 1, 1, -1, 1),
])
def test_verify_transform_refuses_a_step_that_merges_roots(ascending):
    trace = _chain_past_the_refusal(ascending)
    verdicts = [step.certify() for step in trace.steps]
    assert [ok for _, ok in verdicts][:-1] == [True] * (len(verdicts) - 1)
    residual, ok = verdicts[-1]
    assert not ok and residual > mpmath.mpf("1e-3")
    assert verify_trace(trace).matched is False


def test_verify_trace_finds_no_roots(monkeypatch):
    # the verdict is algebraic: neither the root finder nor the matcher runs
    def refuse(*args, **kwargs):
        raise AssertionError("root finding in verify")

    monkeypatch.setattr(roots, "find_roots", refuse)
    monkeypatch.setattr(roots, "match_roots", refuse)
    for ascending in [(3, -2, 1, 4, -1, 1), (1, -3, 4, 0, 0, 1)]:
        trace = reduce_general_quintic(UniPoly([rat(c) for c in ascending]))
        report = verify_trace(trace)
        assert report.matched, ascending
        assert report.max_forward_residual <= mpmath.mpf("1e-60")
        assert all(step.certify()[1] for step in trace.steps)


def test_verify_trace_runs_no_elimination(monkeypatch):
    # C(T) = 0 and U(T) = z mod A certify a step: it is never eliminated again
    trace = reduce_general_quintic(README_QUINTIC)

    def refuse(*args, **kwargs):
        raise AssertionError("elimination in verify")

    for module in (pipeline, elimination):
        for name in ("dual_eliminate", "map_charpoly", "transform_by_power_sums"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert verify_trace(trace).matched
    assert verify_trace(ReductionTrace.from_json(trace.to_json())).matched


def test_a_step_output_moved_by_1e_20_of_its_scale_fails():
    for P in [README_QUINTIC] + _batch_quintics(3):
        trace = reduce_general_quintic(P)
        for i, step in enumerate(trace.steps):
            C = step.output
            nudge = cx(mpmath.mpf("1e-20") * coeff_scale(C))
            for j in range(C.degree):
                cs = list(C.coeffs)
                cs[j] = cs[j] + nudge
                bad = TransformStep(step.kind, step.input, step.subsidiary,
                                    UniPoly(cs, C.var), step.aux)
                assert bad.certify()[1] is False, (P, step.kind, j)
                # the next step reads the moved output, so the chain links up
                steps = list(trace.steps)
                steps[i] = bad
                if i + 1 < len(steps):
                    nxt = steps[i + 1]
                    steps[i + 1] = TransformStep(nxt.kind, bad.output.with_var("z"),
                                                 nxt.subsidiary, nxt.output, nxt.aux)
                final = steps[-1].output
                moved = ReductionTrace(trace.original, tuple(steps),
                                       final.coeff(1), final.coeff(0))
                assert verify_trace(moved).matched is False, (P, step.kind, j)


def test_verify_trace_reports_a_step_of_the_wrong_shape():
    # library traces skip the shape checks of from_json; verify must report
    trace = reduce_general_quintic(README_QUINTIC)
    steps = list(trace.steps)
    victim = steps[0]
    lifted = UniPoly(victim.input.coeffs[:-1] + (rat(2),), "z")
    steps[0] = TransformStep(victim.kind, lifted, victim.subsidiary, victim.output,
                             victim.aux)
    bad = ReductionTrace(trace.original, tuple(steps), trace.bring_p, trace.bring_q)
    assert verify_trace(bad).matched is False
    assert steps[0].certify()[1] is False
    # a quadratic map on a quadratic input
    A = _poly_from_roots([rat(1), rat(2)])
    step = TransformStep("principal", A, Subsidiary(2, (rat(1), rat(0))), A, ())
    assert step.certify()[1] is False


def test_verify_trace_checks_the_claimed_trinomial():
    trace = reduce_general_quintic(README_QUINTIC)
    wrong_p = ReductionTrace(trace.original, trace.steps,
                             trace.bring_p + rat(1, 10 ** 20), trace.bring_q)
    assert verify_trace(wrong_p).matched is False
    # no steps: the final polynomial is the original, which is no trinomial
    bare = ReductionTrace(README_QUINTIC, (), README_QUINTIC.coeff(1), README_QUINTIC.coeff(0))
    assert verify_trace(bare).matched is False
    # a chain that stops short of the trinomial, claiming its P and Q
    short = ReductionTrace(trace.original, trace.steps[:-1], trace.bring_p, trace.bring_q)
    assert short.final == trace.steps[-2].output
    assert verify_trace(short).matched is False


def test_a_nan_never_verifies():
    nan = Scalar.complex_(mpmath.nan, 0, 256)
    trace = reduce_general_quintic(README_QUINTIC)
    nan_p = ReductionTrace(trace.original, trace.steps, nan, trace.bring_q)
    assert verify_trace(nan_p).matched is False
    # no steps: y^5 + nan y^4 + y + 1 is no trinomial
    final = UniPoly([rat(1), rat(1), rat(0), rat(0), nan, rat(1)], "y")
    bare = ReductionTrace(final, (), rat(1), rat(1))
    assert verify_trace(bare).matched is False


@pytest.mark.parametrize("sign", [1, -1])
def test_an_infinite_coefficient_never_verifies(sign):
    # an infinity scales its own tolerance to infinity, so the comparison
    # refuses any difference that is not finite
    inf = Scalar.complex_(sign * mpmath.inf, 0, 256)
    assert polynomials.coeff_mismatch(UniPoly([rat(1), inf]), UniPoly([rat(1), rat(0)]),
                                      "1e-30") is not None
    # no steps: y^5 + inf y^4 + y + 1 is no trinomial
    final = UniPoly([rat(1), rat(1), rat(0), rat(0), inf, rat(1)], "y")
    bare = ReductionTrace(final, (), rat(1), rat(1))
    assert verify_trace(bare).matched is False


def test_a_step_input_sharing_an_infinite_coefficient_is_refused():
    # a step's input holds the output before it as the same objects
    # (``with_var``), which ``coeff_mismatch`` passes unread only when
    # finite: an infinity shared with the original is still refused
    inf = Scalar.complex_(mpmath.inf, 0, 256)
    original = UniPoly([rat(1), rat(1), rat(0), inf, rat(0), rat(1)])
    A = original.with_var("z")
    assert A.coeffs[3] is inf
    assert polynomials.coeff_mismatch(original, A, "1e-30")[0] == 3
    assert polynomials.coeff_mismatch(A, A, "1e-30")[0] == 3
    finite = reduce_general_quintic(UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)]))
    out = finite.steps[0].output
    assert polynomials.coeff_mismatch(out, out.with_var("z"), "1e-30") is None
    C = UniPoly([rat(1), rat(1), rat(0), rat(0), rat(0), rat(1)], "y")
    step = TransformStep("depress", A, Subsidiary(1, (rat(1),)), C, ())
    assert step.certify("1e-30") == (mpmath.inf, False)
    report = verify_trace(ReductionTrace(original, (step,), rat(1), rat(1)))
    assert report.matched is False and report.max_forward_residual == mpmath.inf


def test_recover_names_a_step_with_an_infinite_coefficient_before_walking_it():
    # depress of z^5 + 3z^4 + 7z^3 + z + 1, rebuilt with an infinite z^3
    # coefficient in its input, then with an infinite subsidiary: verify
    # refuses both with no exception, and recover names the step before
    # its table is built, which would raise a bare ValueError
    P = UniPoly([rat(c) for c in (1, 1, 0, 7, 3, 1)])
    step = depress(P)
    inf = Scalar.complex_(mpmath.inf, 0, 256)
    cs = list(step.input.coeffs)
    cs[3] = inf
    for bad in (TransformStep(step.kind, UniPoly(cs), step.subsidiary, step.output, step.aux),
                TransformStep(step.kind, step.input, Subsidiary(1, (inf,)), step.output,
                              step.aux)):
        assert bad.certify("1e-30") == (mpmath.inf, False)
        trace = ReductionTrace(P, (bad,), step.output.coeff(1), step.output.coeff(0))
        assert verify_trace(trace).matched is False
        with pytest.raises(ConsistencyError,
                           match=r"^step 0 \(depress\) has a coefficient that is not finite$"):
            recover_roots(trace)


def test_recover_names_a_final_polynomial_with_an_infinite_coefficient_before_finding_roots(
        monkeypatch):
    # no steps: the original z^5 + inf z^3 + z + 1 is the final polynomial,
    # which recover refuses by name before find_roots could raise a bare
    # ValueError on it
    inf = Scalar.complex_(mpmath.inf, 0, 256)
    P = UniPoly([rat(1), rat(1), rat(0), inf, rat(0), rat(1)])
    trace = ReductionTrace(P, (), rat(1), rat(1))
    assert verify_trace(trace).matched is False

    def unreachable(*a):
        raise AssertionError("find_roots ran on a polynomial that is not finite")
    monkeypatch.setattr(roots, "find_roots", unreachable)
    with pytest.raises(ConsistencyError, match=r"^the final polynomial .*inf.* has a "
                                               r"coefficient that is not finite$"):
        recover_roots(trace)


def _old_start_circle(mags, seed):
    """``roots._start_circle`` as it ran when it drew its factors on every
    call."""
    n = len(mags) - 1
    terms = [mpf_nthroot(mags[n - k], k, 53, round_nearest) for k in range(1, n)]
    terms.append(mpf_nthroot(mpf_shift(mags[0], -1), n, 53, round_nearest))
    bound = mpf_shift(max(terms, key=functools.cmp_to_key(mpf_cmp)), 1)
    two_pi = mpf_shift(mpf_pi(53), 1)
    rng = random.Random(seed)
    zs = []
    for j in range(n):
        turn = from_float((j + rng.random() / 4 + 1 / 3) / n)
        rad = mpf_mul(bound, from_float(0.5 + rng.random() / 4), 53, round_nearest)
        cos, sin = mpf_cos_sin(mpf_mul(two_pi, turn, 53, round_nearest), 53, round_nearest)
        zs.append((mpf_mul(rad, cos, 53, round_nearest), mpf_mul(rad, sin, 53, round_nearest)))
    return zs


def test_the_start_circle_keeps_its_bits_with_its_factors_made_once():
    rng = random.Random(7)
    for n in range(1, 17):
        for seed in range(21):
            mags = [from_float(rng.uniform(0.5, 2) * 10.0 ** rng.randint(-30, 30))
                    for _ in range(n)] + [fone]
            for _ in range(2):  # made, then read from the cache
                assert roots._start_circle(mags, seed) == _old_start_circle(mags, seed), (n, seed)
