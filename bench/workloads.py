"""The three workloads: their inputs, one operation each, and its checks.

Every workload is a closed loop with one client in one thread: the next
operation starts when the previous one has returned.  ``op`` times only the
package calls (or the child process); building inputs and checking outputs
happen outside that timing.

* quintic-batch: integer quintics from the acceptance generator, each
  through reduce_general_quintic, verify_trace and recover_roots at the
  default 256 bits.  The paper's main use, and where the time goes.
* exact-steps: rational polynomials of degree 3 to 5 eliminated against
  rational subsidiaries with dual_eliminate, and rational (p, q) through
  quartic_obstruction_G.  Exact Fraction arithmetic with no complex scalar
  and no root finding: the control for complex-scalar and Aberth changes.
* cli-reduce: ``python -m bringform.cli reduce`` as a fresh process per
  quintic, the README example every eighth time.  The only workload where
  interpreter start, import, argparse and JSON output count.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from time import perf_counter_ns

import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _ms(t0, t1):
    return (t1 - t0) / 1e6


class ReportedFailure(Exception):
    """The program itself reported that an operation failed (a trace that
    does not verify, a non-zero exit code).  The operation counts as failed;
    its output is not a wrong answer, because the program did not claim it."""


class QuinticBatch:
    name = "quintic-batch"

    def items(self, seed):
        return inputs.quintics(seed)

    def warmup_item(self):
        return inputs.README_QUINTIC

    def op(self, item, bf):
        P = bf.UniPoly([bf.rat(c) for c in item], "z")
        t0 = perf_counter_ns()
        trace = bf.reduce_general_quintic(P)
        t1 = perf_counter_ns()
        report = bf.verify_trace(trace)
        t2 = perf_counter_ns()
        if not report.matched:
            raise ReportedFailure("verify_trace: no match for %s" % (item,))
        roots = bf.recover_roots(trace)
        t3 = perf_counter_ns()
        stages = {"reduce": _ms(t0, t1), "verify": _ms(t1, t2), "recover": _ms(t2, t3)}
        return _ms(t0, t3), (trace, roots, stages)

    def check(self, ops):
        import oracles
        return [oracles.check_quintic(op.item, *op.output[:2]) for op in ops]


class ExactSteps:
    name = "exact-steps"

    def items(self, seed):
        return inputs.exact_steps(seed)

    def warmup_item(self):
        return next(inputs.exact_steps(0))

    def op(self, item, bf):
        kind, x, y = item
        if kind == "eliminate":
            A = bf.UniPoly([bf.rat(c.numerator, c.denominator) for c in x], "z")
            sub = bf.Subsidiary(len(y), tuple(bf.rat(c.numerator, c.denominator) for c in y))
            t0 = perf_counter_ns()
            out = bf.dual_eliminate(A, sub)[0]
        else:
            p, q = (bf.rat(v.numerator, v.denominator) for v in (x, y))
            t0 = perf_counter_ns()
            out = bf.quartic_obstruction_G(p, q)
        t1 = perf_counter_ns()
        return _ms(t0, t1), out

    def check(self, ops):
        import oracles
        out = []
        for op in ops:
            kind, x, y = op.item
            if kind == "eliminate":
                out.append(oracles.check_elimination(x, y, op.output))
            else:
                out.append(oracles.check_obstruction(x, y, op.output))
        return out


README_EVERY = 8


class CliReduce:
    """One `reduce` process per operation; traced runs call cli.main in process."""

    name = "cli-reduce"
    in_process = False

    def items(self, seed):
        quintics = inputs.quintics(seed)
        i = 0
        while True:
            i += 1
            yield inputs.README_QUINTIC if i % README_EVERY == 0 else next(quintics)

    def warmup_item(self):
        return inputs.README_QUINTIC

    @staticmethod
    def argv(item):
        return ["reduce", "--coeffs"] + [str(c) for c in reversed(item)]

    def op(self, item, bf):
        if self.in_process:
            buf = io.StringIO()
            t0 = perf_counter_ns()
            with contextlib.redirect_stdout(buf):
                code = bf.cli.main(self.argv(item))
            t1 = perf_counter_ns()
            if code != 0:
                raise ReportedFailure("exit code %d" % code)
            return _ms(t0, t1), buf.getvalue()
        cmd = [sys.executable, "-m", "bringform.cli"] + self.argv(item)
        t0 = perf_counter_ns()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        t1 = perf_counter_ns()
        if proc.returncode != 0:
            raise ReportedFailure("exit code %d: %s" % (proc.returncode, proc.stderr.strip()))
        return _ms(t0, t1), proc.stdout

    def check(self, ops):
        import bringform as bf
        import oracles
        expected = {}
        readme_outputs = set()
        out = []
        for op in ops:
            stdout = op.output
            if op.item not in expected:
                P = bf.UniPoly([bf.rat(c) for c in op.item], "z")
                trace = bf.reduce_general_quintic(P)
                expected[op.item] = (trace.bring_p.to_json(), trace.bring_q.to_json())
            bad = oracles.check_cli(stdout, *expected[op.item])
            if op.item == inputs.README_QUINTIC:
                readme_outputs.add(stdout)
                if len(readme_outputs) > 1:
                    bad.append("output differs between invocations with equal arguments")
            out.append(bad)
        return out


WORKLOADS = {w.name: w for w in (QuinticBatch, ExactSteps, CliReduce)}


def prepare(name, seed, count=100):
    """What a run sets up before its first operation: import the package and
    build the first ``count`` inputs as package objects or argument lists."""
    import bringform as bf
    import bringform.cli  # noqa: F401  (cli-reduce's parser lives here)
    items = WORKLOADS[name]().items(seed)
    built = []
    for _ in range(count):
        item = next(items)
        if name == "exact-steps":
            kind, x, y = item
            built.append([bf.rat(v.numerator, v.denominator)
                          for v in (x + y if kind == "eliminate" else (x, y))])
        elif name == "quintic-batch":
            built.append(bf.UniPoly([bf.rat(c) for c in item], "z"))
        else:
            built.append(CliReduce.argv(item))
    return built


# Operations the memory probe runs: enough to pass through every code path
# of a typical operation, few enough that kept outputs stay negligible.
PROBE_OPS = {"quintic-batch": 2, "exact-steps": 300, "cli-reduce": 2}


def memory_probe(name, seed):
    """Peak RSS in MB of a fresh process that imports the package and runs
    the workload's first operations (cli-reduce: cli.main in process).

    Read from VmHWM, which starts afresh at exec; ``ru_maxrss`` would carry
    over the RSS of the parent that spawned this process."""
    import bringform as bf
    import bringform.cli  # noqa: F401
    workload = WORKLOADS[name]()
    workload.in_process = True
    items = workload.items(seed)
    for _ in range(PROBE_OPS[name]):
        try:
            workload.op(next(items), bf)
        except ReportedFailure:
            pass
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")
