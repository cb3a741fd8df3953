"""Simultaneous root iteration, multiset matching, and trace verification.

The root finder is checked against polynomials with planted roots, never
against itself.  Verification tests include a deliberately corrupted trace:
the harness must flag it rather than raise.
"""

import random
from fractions import Fraction
from math import isfinite

import mpmath
import pytest

from bringform import (DegenerateDenominator, RootConfig, UniPoly,
                       bring_curve_residual, find_roots, match_roots,
                       obstruction_consistency, quartic_obstruction_G,
                       quartic_remove_2_4, quintic_bring_ansatz, rat,
                       recover_roots, reduce_general_quintic, verify_trace,
                       verify_transform)
from bringform import pipeline, roots, solvers
from bringform.pipeline import (ReductionTrace, Subsidiary, TransformStep,
                                depress, quintic_to_bring_jerrard,
                                reciprocal_transform, step_inverse,
                                to_principal)
from helpers import rand_monic, rand_scalar

TINY = mpmath.mpf("1e-60")
README_QUINTIC = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])


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
    # must put every copy at the same point, essentially exactly
    P = _poly_from_roots([rat(1)] * 5)
    rs = find_roots(P)
    for r in rs.roots:
        assert (r - rat(1)).mag() <= TINY


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


def test_verify_transform_on_single_step():
    rng = random.Random(64)
    P = rand_monic(rng, 4)
    step = depress(P)
    worst, ok = verify_transform(step)
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
    bad = ReductionTrace(trace.original, tuple(steps), trace.final,
                         trace.bring_p, trace.bring_q)
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
    bad = ReductionTrace(trace.original, tuple(steps), trace.final,
                         trace.bring_p, trace.bring_q)
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
    # entry; U is still right, so no step falls back to a solve per root
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


def test_reciprocal_step_verifies_and_recovers():
    A = _poly_from_roots([rat(2), rat(3)])
    step = reciprocal_transform(A)
    final = step.output
    trace = ReductionTrace(A, (step,), final, final.coeff(1), final.coeff(0))
    assert verify_trace(trace).matched
    got = recover_roots(trace)
    assert len(got) == 2
    for g, want in zip(got, (rat(2), rat(3))):
        assert (g - want).mag() <= TINY, got


def test_depress_step_redoes_itself():
    step = depress(_poly_from_roots([rat(1), rat(-2), rat(5)]))
    assert step.redo() == step.output
    # the output is recomputed from the input and the map, never copied
    bad = TransformStep(step.kind, step.input, step.subsidiary,
                        _poly_from_roots([rat(0), rat(0), rat(1)], "y"), ())
    assert bad.redo() == step.output


def test_depress_step_maps_roots_forward_by_its_shift():
    zs = [rat(1), rat(-2), rat(5)]
    step = depress(_poly_from_roots(zs))
    ys = step.image(zs)
    assert ys == [rat(-1, 3), rat(-10, 3), rat(11, 3)]
    assert all(step.output.eval(y).is_exact_zero() for y in ys)


def test_depress_step_pulls_roots_back_exactly():
    zs = [rat(1), rat(-2), rat(5)]
    step = depress(_poly_from_roots(zs))
    assert step.preimages([rat(-1, 3), rat(-10, 3), rat(11, 3)]) == zs


def test_obstruction_consistency_on_generic_quartic():
    rep = quartic_obstruction_G(rat(1), rat(1))
    slack = obstruction_consistency(rep)
    assert slack <= mpmath.mpf("1e-25")


def test_final_trinomial_needs_few_aberth_iterations():
    # a start circle of the roots' own size needs few Aberth iterations
    trace = reduce_general_quintic(README_QUINTIC)
    rs = find_roots(trace.final)
    # the float stage leaves a few full-precision sweeps, which is all
    # ``iterations`` counts
    assert rs.converged and rs.iterations <= 4
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
    final = reduce_general_quintic(README_QUINTIC).final
    a = find_roots(final, RootConfig(seed=3))
    b = find_roots(final, RootConfig(seed=3))
    assert all(r is not None for r in results)
    assert [r.to_json() for r in a.roots] == [r.to_json() for r in b.roots]


def test_float_stage_agrees_with_a_pure_mpmath_run(monkeypatch):
    rng = random.Random(20260818)  # the acceptance batch
    finals = [reduce_general_quintic(
        UniPoly([rat(rng.randint(-10, 10)) for _ in range(5)] + [rat(1)])).final
        for _ in range(20)]
    staged = [find_roots(f) for f in finals]
    monkeypatch.setattr(roots, "_float_aberth", lambda cs, zs: None)
    for f, got in zip(finals, staged):
        pure = find_roots(f)  # mpmath from the same circle
        assert got.converged and pure.converged
        ok, dist = match_roots(got.roots, pure.roots, tol="1e-60")
        assert ok, (f, dist)


def test_each_step_builds_its_inverse_map_once(monkeypatch):
    trace = reduce_general_quintic(README_QUINTIC)
    calls = []

    def counted(step):
        calls.append(step)
        return step_inverse(step)

    for module in (pipeline, roots):  # wherever the name is bound
        if hasattr(module, "step_inverse"):
            monkeypatch.setattr(module, "step_inverse", counted)
    assert verify_trace(trace).matched
    recover_roots(trace)
    mapped = [s for s in trace.steps if s.subsidiary is not None and not s.is_identity]
    assert len(mapped) == 3
    for step in mapped:
        assert sum(c is step for c in calls) == 1, step.kind


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
    # recover_roots then solves the subsidiary relation root by root
    trace = ReductionTrace(step.input, (step,), step.output, rat(0), rat(0))
    ok, dist = match_roots(recover_roots(trace), find_roots(step.input).roots,
                           tol="1e-40")
    assert ok, dist


def _chain_past_the_refusal(ascending):
    """The trace ``reduce_general_quintic`` would give a quintic with a
    repeated root if it did not refuse it: depress, principal shape and the
    bring-jerrard step, identities elided."""
    P = UniPoly([rat(c) for c in ascending])
    with pytest.raises(DegenerateDenominator):
        reduce_general_quintic(P)
    steps, cur = [], P
    for make in (depress, to_principal,
                 lambda A: quintic_to_bring_jerrard(A.coeff(2), A.coeff(1), A.coeff(0))):
        st = make(cur)
        if not st.is_identity:
            steps.append(st)
            cur = st.output.with_var("z")
    final = cur.with_var("y")
    return ReductionTrace(P, tuple(steps), final, final.coeff(1), final.coeff(0))


@pytest.mark.parametrize("ascending", [
    (0, 0, 1, 1, -1, 1),
    (3, -4, -1, 3, -2, 1),  # (z - 1)^2 (z^3 + 2z + 3)
    (0, 0, 1, 1, 0, 1),     # z^2 (z^3 + z + 1)
])
def test_verify_trace_rejects_unconverged_root_sets(ascending):
    # the bring-jerrard map collapses the planted repeated root, so the
    # final trinomial's root set does not converge; verify rejects the step
    # itself, because U(T) mod A, its inverse map evaluated, misses z
    trace = _chain_past_the_refusal(ascending)
    assert not find_roots(trace.final).converged
    assert verify_trace(trace).matched is False


@pytest.mark.parametrize("ascending", [
    (0, 0, 0, 1, 2, 1),     # z^3 (z + 1)^2
    (3, -4, -1, 3, -2, 1),  # (z - 1)^2 (z^3 + 2z + 3)
    (0, 0, 1, 1, -1, 1),
])
def test_verify_transform_refuses_a_step_that_merges_roots(ascending):
    trace = _chain_past_the_refusal(ascending)
    verdicts = [verify_transform(step) for step in trace.steps]
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
        assert all(verify_transform(step)[1] for step in trace.steps)


def test_verify_trace_reports_a_step_of_the_wrong_shape():
    # library traces skip the shape checks of from_json; verify must report
    trace = reduce_general_quintic(README_QUINTIC)
    steps = list(trace.steps)
    victim = steps[0]
    lifted = UniPoly(victim.input.coeffs[:-1] + (rat(2),), "z")
    steps[0] = TransformStep(victim.kind, lifted, victim.subsidiary, victim.output,
                             victim.aux)
    bad = ReductionTrace(trace.original, tuple(steps), trace.final,
                         trace.bring_p, trace.bring_q)
    assert verify_trace(bad).matched is False
    assert verify_transform(steps[0])[1] is False
    # a quadratic map on a quadratic input
    A = _poly_from_roots([rat(1), rat(2)])
    step = TransformStep("principal", A, Subsidiary(2, (rat(1), rat(0))), A, ())
    assert verify_transform(step)[1] is False


def test_verify_trace_checks_the_claimed_trinomial():
    trace = reduce_general_quintic(README_QUINTIC)
    final = trace.final
    wrong_p = ReductionTrace(trace.original, trace.steps, final,
                             trace.bring_p + rat(1, 10 ** 20), trace.bring_q)
    assert verify_trace(wrong_p).matched is False
    # no steps: the final polynomial is the original, which is no trinomial
    bare = ReductionTrace(README_QUINTIC, (), README_QUINTIC,
                          README_QUINTIC.coeff(1), README_QUINTIC.coeff(0))
    assert verify_trace(bare).matched is False
    # a final polynomial that is not where the chain ends
    detached = ReductionTrace(trace.original, trace.steps[:-1], final,
                              trace.bring_p, trace.bring_q)
    assert verify_trace(detached).matched is False
