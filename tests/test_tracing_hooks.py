"""The benchmark tracer's hooks, and the oracle's reads, still find what
they use.

``bench/tracing.py`` rebinds the arithmetic dunders of ``Scalar``, the
multiplication of ``UniPoly`` and every span target by name, and
``bench/oracles.py`` reads ``TransformStep.rescue_scaling``.  A rewrite
that inlines, renames, inherits or deletes one of them would crash
``bench/run.py`` while every other test stays green, so this file reads the
tracer's tables (it imports ``bench/tracing.py`` and changes nothing there)
and the oracle's source, and checks each name against the package.  The
fused kernels of ``scalars`` do the arithmetic that the dunders no longer
see; a tracer can count them only while they stay module-level functions
that every user imports by name.  The same holds for the one kernel of
``polynomials``, ``gauss_mul_mod``, which multiplies a ring vector by T
modulo A, exactly for rational input and on the fixed-point block for
complex input, for the power table, the certificate's Horner, the
charpoly's columns and the traces of ``image_elementary``; and for
``powers_mod``, which alone builds the power table.  Every Scalar
+ - * / reaches one of the module
kernels (``add``, ``sub``, ``mul``, ``div``), through the
dunders or directly, so a counter of operations counts at the kernels or
at the dunders, never at both.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

from bringform import Scalar, UniPoly
from bringform.pipeline import TransformStep

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_ORACLES = _TRACING.with_name("oracles.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("name", tracing.SCALAR_DUNDERS)
def test_scalar_dunder_is_an_own_entry(name):
    assert callable(Scalar.__dict__.get(name)), name


def test_unipoly_multiplication_is_an_own_entry():
    assert set(tracing.UNIPOLY_MUL) >= {"__mul__", "__rmul__"}
    for name in tracing.UNIPOLY_MUL:
        assert callable(UniPoly.__dict__.get(name)), name


@pytest.mark.parametrize("span", sorted(tracing.SPANS))
def test_span_target_resolves(span):
    module, attr = tracing.SPANS[span]
    assert callable(getattr(importlib.import_module("bringform." + module), attr, None)), span


def test_the_oracles_read_of_rescue_scaling_resolves():
    # the attribute is always None, kept for the oracle alone: it may go
    # once bench/oracles.py stops reading it
    if "step.rescue_scaling" in _ORACLES.read_text():
        assert hasattr(TransformStep, "rescue_scaling")


def test_dual_eliminate_still_runs_the_power_sum_route_span():
    # the tracer's ``elimination.transform_by_power_sums`` span only counts
    # while dual_eliminate calls that function by name, rebindable in every
    # module namespace that holds it
    from bringform import Subsidiary, dual_eliminate, rat

    module, attr = tracing.SPANS["elimination.transform_by_power_sums"]
    original = getattr(importlib.import_module("bringform." + module), attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    holders = [m for name, m in sys.modules.items()
               if name == "bringform" or name.startswith("bringform.")]
    with pytest.MonkeyPatch.context() as mp:
        for m in holders:
            for key, value in list(vars(m).items()):
                if value is original:
                    mp.setattr(m, key, counted)
        A = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])
        dual_eliminate(A, Subsidiary(2, (rat(1), rat(-2))))
    assert len(calls) == 1


KERNELS = ("add", "mul", "cadd", "csub", "cmul")


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == "bringform" or name.startswith("bringform.")]


@pytest.mark.parametrize("name", KERNELS)
def test_fused_kernel_is_a_module_function_imported_by_name(name):
    from bringform import scalars

    kernel = getattr(scalars, name)
    assert inspect.isfunction(kernel) and kernel.__module__ == "bringform.scalars"
    others = [m for m in _package_modules() if m is not scalars]
    # a bare call; a method of the same name (``set.add``) is not the kernel
    users = [m for m in others if re.search(r"(?<![.\w])%s\(" % name, inspect.getsource(m))]
    assert users, name
    for m in users:
        # called through its own name, which a tracer can rebind
        assert vars(m).get(name) is kernel, (m.__name__, name)
    for m in others:
        assert not re.search(r"\bscalars\.%s\(" % name, inspect.getsource(m)), (m.__name__, name)


def test_rebinding_the_fused_kernels_counts_their_calls():
    from bringform import Subsidiary, cx, dual_eliminate, rat, scalars

    calls = dict.fromkeys(("add", "mul"), 0)

    def counted(name, original):
        def kernel(*args):
            calls[name] += 1
            return original(*args)
        return kernel

    A = UniPoly([rat(3), rat(-2), rat(1), rat(4), rat(-1), rat(1)])
    sub = Subsidiary(2, (cx(1, 1), rat(-2)))
    C = dual_eliminate(A, sub)[0]
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            original = getattr(scalars, name)
            for m in _package_modules():
                if vars(m).get(name) is original:
                    mp.setattr(m, name, counted(name, original))
        # both routes of an elimination and a step's certificate run on
        # ints; UniPoly.__mul__ forms its coefficients on add and mul
        assert A * A
        assert TransformStep("test", A, sub, C, ()).certify()[1]
    assert all(calls.values()), calls


def _assert_called_by_its_own_name(name, holders):
    from bringform import polynomials

    kernel = getattr(polynomials, name)
    assert inspect.isfunction(kernel) and kernel.__module__ == "bringform.polynomials"
    users = {m.__name__: m for m in _package_modules()
             if re.search(r"\b%s\(" % name, inspect.getsource(m))}
    assert set(users) >= {"bringform." + h for h in holders}
    for m in users.values():
        # called through its own name, which a tracer can rebind
        assert vars(m).get(name) is kernel, m.__name__
        assert not re.search(r"\.%s\(" % name, inspect.getsource(m)), m.__name__


def test_block_kernel_is_a_module_function_imported_by_name():
    _assert_called_by_its_own_name("gauss_mul_mod", ("polynomials",))


def test_power_table_builder_is_a_module_function_imported_by_name():
    _assert_called_by_its_own_name("powers_mod", ("polynomials", "elimination", "pipeline"))


def test_rebinding_the_block_kernel_counts_the_table_and_the_horner(monkeypatch):
    # a complex step read from JSON builds its power table (one product per
    # row after the first) and runs the certificate's Horner (one product
    # with an addend per coefficient of U) through the rebound name
    from bringform import ReductionTrace, polynomials, rat, reduce_general_quintic

    original, calls = polynomials.gauss_mul_mod, []

    def counted(*args):
        calls.append(len(args))
        return original(*args)

    trace = reduce_general_quintic(UniPoly([rat(c) for c in (3, -2, 1, 4, -1, 1)]))
    step = ReductionTrace.from_json(trace.to_json()).steps[-1]
    assert not step.input.is_rational_tree()
    for m in _package_modules():
        if vars(m).get("gauss_mul_mod") is original:
            monkeypatch.setattr(m, "gauss_mul_mod", counted)
    assert step.certify()[1]
    assert calls.count(4) == step.input.degree
    assert calls.count(5) == len(step.inverse.coeffs)
