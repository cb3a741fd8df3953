"""Property round trips, reduce -> verify -> recover, over input families
that the seeded batches rarely reach.

The 15p + 20q = 0 family makes the Bring-Jerrard ansatz fail at the input
itself, so every example runs the retry at halved roots.  The precision
round trips run general quintics at 64 bits (tolerance 1e-12, the finest
the CLI accepts there), 128, 512 and 1024 bits, and quintics with complex
coefficients: the paths where exact rational operands meet complex ones at a
precision other than the default.  The large-coefficient round trips run
integer quintics with coefficients near +-1e8 at 256 bits and near +-1e12 at
512 bits, where a condition's true leading coefficient lies below the
acceptance tolerance times its scale.
sympy's discriminant is the outside oracle that keeps repeated roots, which
``reduce_general_quintic`` refuses, out of the examples.
"""

import json

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bringform import (DEFAULT_TOLERANCE, DegenerateDenominator,
                       ReductionTrace, RootConfig, UniPoly, cx, find_roots,
                       match_roots, quintic_bring_ansatz, rat,
                       recover_roots, reduce_general_quintic, verify_trace)

_X = sympy.Symbol("x")


def _round_trip(p, q, r):
    """The rescue-family checks on z^5 + p z^2 + q z + r."""
    with pytest.raises(DegenerateDenominator):
        quintic_bring_ansatz(p, q, r)
    P = UniPoly([r, q, p, rat(0), rat(0), rat(1)])
    trace = reduce_general_quintic(P)
    assert verify_trace(trace).matched
    cur = trace.original
    for step in trace.steps:
        assert step.input == cur
        cur = step.output
    ok, dist = match_roots(find_roots(P).roots, recover_roots(trace), tol="1e-40")
    assert ok, dist


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(p=st.fractions(-20, 20, max_denominator=8).filter(bool),
       r=st.fractions(-20, 20, max_denominator=8))
def test_rescue_family_round_trips(p, r):
    q = -3 * p / 4
    A = _X ** 5 + p * _X ** 2 + q * _X + r
    assume(sympy.discriminant(A, _X) != 0)
    _round_trip(*(rat(c.numerator, c.denominator) for c in (p, q, r)))


def test_complex_rescue_family_round_trips():
    p = cx("1.5", "-2")
    _round_trip(p, p * rat(-3, 4), cx("0.25", "0.5"))



def _precision_round_trip(P, prec, tol):
    """reduce -> verify -> recover at prec bits; the trace read back from
    its JSON verifies too, and the recovered roots match the input's own
    roots to half the precision's digits.  Returns the trace."""
    cfg = RootConfig(precision_bits=prec, tol=tol)
    trace = reduce_general_quintic(P, prec=prec, tol=tol)
    assert verify_trace(trace, cfg).matched
    back = ReductionTrace.from_json(json.loads(json.dumps(trace.to_json())), prec)
    assert verify_trace(back, cfg).matched
    ok, dist = match_roots(find_roots(P, cfg).roots, recover_roots(trace, cfg),
                           tol=2.0 ** (-prec // 2))
    assert ok, dist
    return trace


def _distinct_roots(coeffs):
    return sympy.discriminant(sum(c * _X ** k for k, c in enumerate(coeffs)), _X) != 0


@pytest.mark.parametrize("prec,tol", [(64, "1e-12"), (128, DEFAULT_TOLERANCE),
                                      (512, DEFAULT_TOLERANCE), (1024, DEFAULT_TOLERANCE)])
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(cs=st.lists(st.fractions(-10, 10, max_denominator=4), min_size=5, max_size=5))
def test_round_trips_across_precisions(prec, tol, cs):
    assume(_distinct_roots(cs + [1]))
    P = UniPoly([rat(c.numerator, c.denominator) for c in cs] + [rat(1)], "z")
    _precision_round_trip(P, prec, tol)


@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(parts=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                      min_size=5, max_size=5),
       prec=st.sampled_from([128, 256, 512]))
def test_complex_coefficient_round_trips(parts, prec):
    assume(_distinct_roots([a + b * sympy.I for a, b in parts] + [1]))
    P = UniPoly([cx(a, b, prec) for a, b in parts] + [rat(1)], "z")
    _precision_round_trip(P, prec, DEFAULT_TOLERANCE)


@pytest.mark.parametrize("ascending", [
    (0, -7, 9, 4, -3, 1),     # the acceptance batch (seed 20260818), #0
    (-1, -3, 9, 7, -1, 1),    # #41
    (9, -6, -7, -5, -3, 1),   # #57
    (-4, -10, 6, -6, 8, 1),   # #98
    (7, 4, 4, -4, 8, 1),      # the held-out seed 20261017, #99
])
def test_integer_quintics_round_trip_at_64_bits(ascending):
    # at tol 1e-14, finer than 64 bits resolve, each raises ConsistencyError
    P = UniPoly([rat(c) for c in ascending], "z")
    _precision_round_trip(P, 64, "1e-12")


def _near(bound):
    """Integers of magnitude bound/10 to bound, either sign."""
    return st.tuples(st.integers(bound // 10, bound), st.sampled_from([1, -1])).map(
        lambda t: t[0] * t[1])


@pytest.mark.parametrize("bound,prec", [(10 ** 8, 256), (10 ** 12, 512)])
@settings(max_examples=5, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_large_coefficient_round_trips(bound, prec, data):
    cs = data.draw(st.lists(_near(bound), min_size=5, max_size=5))
    assume(_distinct_roots(cs + [1]))
    P = UniPoly([rat(c) for c in cs] + [rat(1)], "z")
    trace = _precision_round_trip(P, prec, DEFAULT_TOLERANCE)
    # a leading coefficient kept at noise level would add one root huge
    # beside the others; no auxiliary solve may choose it
    for step in trace.steps:
        for aux in step.aux:
            mags = sorted(r.mag() for r in aux.roots)
            if len(mags) > 1 and mags[-1] > 10 ** 20 * max(1, mags[-2]):
                assert aux.roots[aux.chosen].mag() < mags[-1], (aux.kind, mags)
