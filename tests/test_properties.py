"""Property round trips, reduce -> verify -> recover, over input families
that the seeded batches rarely reach.

The 15p + 20q = 0 family makes the Bring-Jerrard ansatz fail at the input
itself, so every example runs the retry at halved roots.  sympy's
discriminant is the outside oracle that keeps repeated roots, which
``reduce_general_quintic`` refuses, out of the rational examples.
"""

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bringform import (DegenerateDenominator, UniPoly, cx, find_roots,
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

