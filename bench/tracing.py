"""Spans and counts recorded from outside the package.

``Tracer.install`` rebinds each traced public function, in every
``bringform`` module namespace that holds it and in the package root, to a
wrapper that records a span; it also wraps the arithmetic dunders of
``Scalar`` and the multiplication of ``UniPoly`` (aliases such as
``__radd__`` included) to count calls.  Nothing under ``src/`` changes.
Spans stay in memory until ``write`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# Span name -> (module, function).  The name's module is the layer.
SPANS = {
    "pipeline.reduce_general_quintic": ("pipeline", "reduce_general_quintic"),
    "pipeline.depress": ("pipeline", "depress"),
    "pipeline.to_principal": ("pipeline", "to_principal"),
    "pipeline.quintic_to_bring_jerrard": ("pipeline", "quintic_to_bring_jerrard"),
    "pipeline.quintic_bring_ansatz": ("pipeline", "quintic_bring_ansatz"),
    "pipeline.dual_eliminate": ("pipeline", "dual_eliminate"),
    "pipeline.back_solve": ("pipeline", "back_solve"),
    "pipeline.quartic_obstruction_G": ("pipeline", "quartic_obstruction_G"),
    "elimination.sylvester_resultant_with_factor":
        ("elimination", "sylvester_resultant_with_factor"),
    "elimination.transform_by_power_sums": ("elimination", "transform_by_power_sums"),
    "elimination.polynomial_resultant": ("elimination", "polynomial_resultant"),
    "polynomials.power_sums": ("polynomials", "power_sums"),
    "polynomials.poly_from_power_sums": ("polynomials", "poly_from_power_sums"),
    "solvers.solve_condition": ("solvers", "solve_condition"),
    "solvers.solve_monic": ("solvers", "solve_monic"),
    "solvers.assemble_preimages": ("solvers", "assemble_preimages"),
    "roots.find_roots": ("roots", "find_roots"),
    "roots.match_roots": ("roots", "match_roots"),
    "roots.verify_trace": ("roots", "verify_trace"),
    "roots.recover_roots": ("roots", "recover_roots"),
    "cli.main": ("cli", "main"),
}

SCALAR_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__")
UNIPOLY_MUL = ("__mul__", "__rmul__")

COUNTS = ("scalars.ops.complex", "scalars.ops.rational",
          "polynomials.UniPoly.mul.calls", "roots.find_roots.iterations",
          "roots.find_roots.nonconverged")


class Tracer:
    """Records spans (name, start, end, parent, operation id) and counts."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.op = -1
        self.active = True
        self._stack = []
        self._in_scalar_op = False

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap everything; the package must already be imported."""
        from bringform.polynomials import UniPoly
        from bringform.scalars import Scalar

        modules = [m for name, m in sys.modules.items()
                   if name == "bringform" or name.startswith("bringform.")]
        for name, (mod, attr) in SPANS.items():
            original = getattr(sys.modules["bringform." + mod], attr)
            wrapped = self._span(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        for attr in SCALAR_DUNDERS:
            setattr(Scalar, attr, self._count_scalar(Scalar.__dict__[attr]))
        for attr in UNIPOLY_MUL:
            setattr(UniPoly, attr, self._count_poly_mul(UniPoly.__dict__[attr]))

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        on_roots = name == "roots.find_roots"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            entry = [name, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(entry)
            stack.append(idx)
            entry[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = perf_counter_ns()
                stack.pop()
            if on_roots:
                self.counts["roots.find_roots.iterations"] += result.iterations
                self.counts["roots.find_roots.nonconverged"] += not result.converged
            return result

        return wrapper

    def _count_scalar(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            # __rsub__ and __rtruediv__ delegate to another dunder: count once
            if self._in_scalar_op or not self.active:
                return fn(*args)
            self._in_scalar_op = True
            try:
                result = fn(*args)
            finally:
                self._in_scalar_op = False
            if result is not NotImplemented:
                kind = "rational" if result.is_rational else "complex"
                counts["scalars.ops." + kind] += 1
            return result

        return wrapper

    def _count_poly_mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            if result is not NotImplemented and self.active:
                counts["polynomials.UniPoly.mul.calls"] += 1
            return result

        return wrapper

    def stop(self):
        """Record nothing more; later calls (the checks) run unobserved."""
        self.active = False

    # -- results --------------------------------------------------------------

    def layer_metrics(self):
        """Per span name: total ms, self ms (minus child spans) and calls."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for name in SPANS:
            out[name] = {"ms": 0.0, "self_ms": 0.0, "calls": 0}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["ms"] += (end - start) / 1e6
            agg["self_ms"] += (end - start - child_ns[i]) / 1e6
            agg["calls"] += 1
        return out

    def write(self, path):
        """Save every span as one JSON line (indices are line numbers)."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")
