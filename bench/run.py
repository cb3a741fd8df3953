"""The bringform benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload quintic-batch --seed 20260818 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout the script sits in;
nothing needs installing.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the machine block, raw timings, sample counts and failures.
Both, and with ``--trace 1`` every span, are also written to
``bench/results/``.  Workloads are described in ``workloads.py``.

Every run makes a fixed number of operations, set by ``--seconds`` alone:
as many as take that long at the slow end of what the machine the benchmark
was built on showed (``OP_SIZING_MS``).  Runs with equal arguments then
attempt the same inputs and agree on which of them fail, whatever the speed
of the machine at the time.

``--trace 0`` runs them with tracing off.  End-to-end metrics, identical for
every workload:

* ``op_cost.p50``, ``op_cost.p75``: wall time of one operation (a quintic
  through reduce, verify and recover; an exact step; a CLI process) divided
  by the wall time of a fixed pure-Python reference work timed right before
  and after it (unit ``ref``).  On the 2-vCPU machine this was built on, the
  same inputs ran up to 40% slower from one run to the next, in phases of
  seconds to minutes; the reference slows down with them, and the ratio moved
  under 10% where raw milliseconds moved 15-40%.  Raw milliseconds are in
  the info line (``op_ms.p50``, ``op_ms.p75``, per-stage medians).
* ``setup_s``: median wall time of fresh processes that import the package
  and build the workload's first 100 inputs, sampled at even steps from
  before the first operation to after the last, so a slow phase of the
  machine weighs no more on it than on the operations.  Bytecode is compiled
  once before, as an install would.
* ``peak_rss_mb``: peak RSS of a fresh process that runs the workload's first
  operations, apart from the outputs this run keeps for checking.

``--trace 1`` runs half as many operations (so counts repeat exactly), first
untraced and then traced on the same inputs, and reports per-layer spans and
counts (see ``tracing.py``) and the tracing overhead, traced minus untraced
time.

Every output is checked by oracles that share no code with the package
(``oracles.py``).  An operation fails when it raises, when the program
itself reports failure (``verify_trace`` finds no match, the CLI exits
non-zero) or when an oracle rejects its output; ``failed`` counts all three.
``correct`` is false only for the last kind: an answer the program returned
as good that is wrong.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

# Set-up samples: one before every SETUP_CHUNKS-th part of the operations
# and one after the last.
SETUP_CHUNKS = 8
# Seconds of operations between two reference timings.
REF_EVERY_S = 0.2
PROBE_REPEATS = 5
# Untraced cost of one operation, at the slow end of what a 2-vCPU machine
# showed; sets how many operations a run of --seconds makes.
OP_SIZING_MS = {"quintic-batch": 950.0, "exact-steps": 6.0, "cli-reduce": 700.0}
# A traced run's untraced and traced passes together cost about this many
# untraced passes.
TRACE_SLOWDOWN = 2.0

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "workloads.prepare(sys.argv[2], int(sys.argv[3]))"
)
PROBE_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "print(workloads.memory_probe(sys.argv[2], int(sys.argv[3])))"
)


@dataclass
class Op:
    item: object
    ms: float = None
    output: object = None
    error: str = None
    ref: float = None  # ms of the reference work measured around this operation


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("quintic-batch", "exact-steps", "cli-reduce"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def git_commit():
    """The commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_block():
    import mpmath
    import mpmath.libmp
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
    }


def timed_child(args):
    """Wall seconds of one child process, which must exit 0."""
    from workloads import child_env
    t0 = perf_counter()
    proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("child %s failed: %s" % (args[:2], proc.stderr[-2000:]))
    return elapsed


def median_child(args, repeats):
    return statistics.median(timed_child(args) for _ in range(repeats))


def reference_ms():
    """Time one fixed piece of pure-Python work (integers, fractions, dicts,
    lists, strings) that shares no code with the package.  Operation times
    are divided by it: this box runs the same code up to 40% slower for
    seconds or minutes at a time, and the reference slows down with it."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 1) * (i % 7)
    table = {}
    for i in range(12000):
        table[i % 499] = (table.get(i % 499, 0) * 31 + i) % 1000003
        row = [i, i + 1, str(i)]
    del row
    return (perf_counter() - t0) * 1000


def op_count(name, seconds, slowdown=1.0):
    return max(1, int(seconds * 1000 / (OP_SIZING_MS[name] * slowdown)))


def run_ops(workload, bf, items, count, *, ref_every=None):
    """Closed loop: run ``count`` operations, one after the other.

    With ``ref_every`` the reference work runs first, last, and after every
    ``ref_every`` seconds of operations; each operation's ``ref`` is the mean
    of the two reference timings around it.  Returns the operations and the
    seconds spent in them."""
    ops, refs = [], []  # refs: (operations done before it, ms)

    def take_ref():
        refs.append((len(ops), reference_ms()))
        return perf_counter()

    gc.collect()
    start = perf_counter()
    last_ref = take_ref() if ref_every else None
    while len(ops) < count:
        op = Op(next(items))
        try:
            op.ms, op.output = workload.op(op.item, bf)
        except Exception:  # a failed operation is recorded and counted, never fatal
            op.error = traceback.format_exc(limit=3)
        ops.append(op)
        if ref_every and perf_counter() - last_ref >= ref_every:
            last_ref = take_ref()
    if ref_every and refs[-1][0] < len(ops):
        take_ref()
    for (b0, m0), (b1, m1) in zip(refs, refs[1:]):
        for op in ops[b0:b1]:
            op.ref = (m0 + m1) / 2
    return ops, perf_counter() - start - sum(m for _, m in refs) / 1000


def check(workload, ops):
    """Run the oracles; returns the failure messages, one list per operation."""
    done = [op for op in ops if op.error is None]
    verdicts = iter(workload.check(done))
    return [[op.error] if op.error is not None else next(verdicts) for op in ops]


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb(workload, seed):
    """Measured in a separate process, so the outputs this run keeps for its
    checks do not count."""
    from workloads import child_env
    proc = subprocess.run([sys.executable, "-c", PROBE_CODE, BENCH, workload, str(seed)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def end_to_end(workload, bf, args):
    """Operations sized to ``--seconds``, each timed and divided by the
    reference work timed beside it; set-up is sampled between them."""
    setup_args = ["-c", SETUP_CODE, BENCH, args.workload, str(args.seed)]
    rss = peak_rss_mb(args.workload, args.seed)
    workload.op(workload.warmup_item(), bf)
    count = op_count(workload.name, args.seconds)
    cuts = [count * i // SETUP_CHUNKS for i in range(SETUP_CHUNKS + 1)]
    items = workload.items(args.seed)
    ops, elapsed, setup = [], 0.0, []
    for start, stop in zip(cuts, cuts[1:]):
        setup.append(timed_child(setup_args))
        chunk, seconds = run_ops(workload, bf, items, stop - start, ref_every=REF_EVERY_S)
        ops += chunk
        elapsed += seconds
    setup.append(timed_child(setup_args))
    done = [op for op in ops if op.error is None]
    cost = [op.ms / op.ref for op in done]
    ms = [op.ms for op in done]
    metrics = {
        "op_cost.p50": (statistics.median(cost), "ref"),
        "op_cost.p75": (percentile(cost, 75), "ref"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {"samples": len(done), "op_ms.p50": statistics.median(ms),
            "op_ms.p75": percentile(ms, 75), "ops_per_s": len(done) / elapsed,
            "ref_ms.p50": statistics.median(op.ref for op in done)}
    if workload.name == "quintic-batch":
        info["stage_ms.p50"] = {s: statistics.median(op.output[2][s] for op in done)
                                for s in ("reduce", "verify", "recover")}
    return ops, metrics, info, None


def per_layer(workload, bf, args):
    from tracing import Tracer
    count = op_count(workload.name, args.seconds, TRACE_SLOWDOWN)
    plain, _ = run_ops(workload, bf, workload.items(args.seed), count)
    tracer = Tracer()
    tracer.install()
    items = workload.items(args.seed)

    def numbered():
        for i, item in enumerate(items):
            tracer.op = i
            yield item

    traced, _ = run_ops(workload, bf, numbered(), count)
    tracer.stop()
    plain_ms = sum(op.ms for op in plain if op.error is None)
    traced_ms = sum(op.ms for op in traced if op.error is None)
    metrics = {}
    for name, agg in tracer.layer_metrics().items():
        metrics[name + ".ms"] = (agg["ms"], "ms")
        metrics[name + ".self_ms"] = (agg["self_ms"], "ms")
        metrics[name + ".calls"] = (agg["calls"], "count")
    for name, value in tracer.counts.items():
        metrics[name] = (value, "count")
    metrics["cli.interpreter_ms"] = (1000 * median_child(["-c", "pass"], PROBE_REPEATS), "ms")
    metrics["cli.import_ms"] = (1000 * median_child(["-c", "import bringform"], PROBE_REPEATS),
                                "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_ms - plain_ms) / plain_ms, "%")
    info = {"samples": count, "untraced_ms_per_op": plain_ms / count,
            "traced_ms_per_op": traced_ms / count,
            "trace_overhead_ms_per_op": (traced_ms - plain_ms) / count}
    return plain + traced, metrics, info, tracer


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bringform", "__init__.py")):
        print("bench: no package source at src/bringform; run from a full checkout",
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    machine = machine_block()
    # One CPU for this process and its children: the reference work and the
    # operations it calibrates then run on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import bringform as bf
    import bringform.cli  # noqa: F401
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        if args.workload == "cli-reduce":
            workload.in_process = True  # spans can only see cli.main in this process
        workload.op(workload.warmup_item(), bf)
        ops, metrics, info, tracer = per_layer(workload, bf, args)
    else:
        ops, metrics, info, tracer = end_to_end(workload, bf, args)

    verdicts = check(workload, ops)
    failures = [(i, msgs) for i, msgs in enumerate(verdicts) if msgs]
    failed = len(failures)
    wrong = sum(1 for i, _ in failures if ops[i].error is None)
    result = {
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fail_rate": failed / len(ops),
        "failures": [{"op": i, "input": repr(ops[i].item), "why": msgs[:3]}
                     for i, msgs in failures[:10]],
        "machine": machine,
    })
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
