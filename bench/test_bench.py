"""The benchmark's own checks: pinned inputs, repeatable counts, oracles that
bite, and a clean refusal outside a full checkout.

    python -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest

import inputs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

# sha256 of the 100 coefficient lists of the acceptance batch
ACCEPTANCE_DIGEST = "3254c44da15856d069df04d21e74b7d76b5fd308fd0df30986f565e220c7d9a5"

REPEATABLE = (".calls", "scalars.ops.", "polynomials.UniPoly.mul.calls",
              "roots.find_roots.iterations", "roots.find_roots.nonconverged")


def test_default_seed_reproduces_the_acceptance_batch():
    batch = list(islice(inputs.quintics(inputs.ACCEPTANCE_SEED), 100))
    assert inputs.digest(batch) == ACCEPTANCE_DIGEST
    held_out = list(islice(inputs.quintics(inputs.HELDOUT_SEED), 100))
    assert inputs.digest(held_out) != ACCEPTANCE_DIGEST


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _result(workload, trace, seconds):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                 "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        _declared("per_layer" if trace else "end_to_end")
    return result["attempted"], {k: v["value"] for k, v in result["metrics"].items()}


def _traced(workload):
    return _result(workload, 1, 2)[1]


def test_end_to_end_run_reports_the_declared_metrics():
    attempted, metrics = _result("exact-steps", 0, 1)
    assert all(v > 0 for v in metrics.values())
    # The operation count follows from the arguments alone, not from the
    # speed of the machine, so equal runs attempt the same inputs.
    assert _result("exact-steps", 0, 1)[0] == attempted


@pytest.mark.parametrize("workload", ["quintic-batch", "exact-steps", "cli-reduce"])
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced(workload), _traced(workload)
    counted = [k for k in first if any(k.endswith(s) or k.startswith(s) for s in REPEATABLE)]
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}
    if workload == "exact-steps":
        assert first["scalars.ops.complex"] == 0
        assert first["scalars.ops.rational"] > 0
    else:
        assert first["scalars.ops.complex"] > 0
        assert first["roots.find_roots.calls"] > 0


def test_refuses_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(["--workload", "exact-steps", "--seed", "1", "--seconds", "1"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_oracles_reject_wrong_results():
    import bringform as bf
    import oracles

    A = (Fraction(1, 2), Fraction(-3), Fraction(2, 3), Fraction(1))
    sub = (Fraction(1, 3), Fraction(-2))
    Apoly = bf.UniPoly([bf.rat(c.numerator, c.denominator) for c in A], "z")
    C = bf.dual_eliminate(Apoly, bf.Subsidiary(2, tuple(bf.rat(c.numerator, c.denominator)
                                                         for c in sub)))[0]
    assert oracles.check_elimination(A, sub, C) == []
    wrong = bf.UniPoly(list(C.coeffs[:1]) + [C.coeffs[1] + bf.rat(1, 10**9)]
                       + list(C.coeffs[2:]), "y")
    assert oracles.check_elimination(A, sub, wrong)

    rep = bf.quartic_obstruction_G(bf.rat(1), bf.rat(1))
    assert oracles.check_obstruction(Fraction(1), Fraction(1), rep) == []
    assert oracles.check_obstruction(Fraction(1), Fraction(2), rep)

    coeffs = inputs.README_QUINTIC
    trace = bf.reduce_general_quintic(bf.UniPoly([bf.rat(c) for c in coeffs], "z"))
    roots = bf.recover_roots(trace)
    assert oracles.check_quintic(coeffs, trace, roots) == []
    nudged = (roots[0] + bf.cx("1e-20"),) + roots[1:]
    assert oracles.check_quintic(coeffs, trace, nudged)
