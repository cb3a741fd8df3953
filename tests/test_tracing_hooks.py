"""The benchmark tracer's hooks still find what they wrap.

``bench/tracing.py`` rebinds the arithmetic dunders of ``Scalar``, the
multiplication of ``UniPoly`` and every span target by name.  A rewrite
that inlines, renames or inherits one of them would crash ``bench/run.py
--trace 1`` while every other test stays green, so this file reads the
tracer's tables (it imports ``bench/tracing.py`` and changes nothing there)
and checks each name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from bringform import Scalar, UniPoly

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
