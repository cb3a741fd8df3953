"""Seeded input generators for the three workloads.

Inputs are plain integers and ``Fraction`` values, so the generators need
nothing from the package and a workload can hand them over unchanged.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from itertools import count

# The seed of the acceptance batch in tests/test_acceptance.py.
ACCEPTANCE_SEED = 20260818
# A seed no claim was tuned on, for checking a claimed gain on fresh inputs.
HELDOUT_SEED = 20261017

# The README example: bringform reduce --coeffs 1 -1 4 1 -2 3
README_QUINTIC = (3, -2, 1, 4, -1, 1)


def quintics(seed):
    """Endless monic integer quintics, ascending coefficients, c0..c4 in [-10, 10].

    The recipe is the one of the acceptance ``batch`` fixture, so the first 100
    lists of ``ACCEPTANCE_SEED`` are that batch.
    """
    rng = random.Random(seed)
    while True:
        yield tuple(rng.randint(-10, 10) for _ in range(5)) + (1,)


def digest(coeff_lists) -> str:
    """sha256 of the lists as compact JSON; pins a generated batch."""
    text = json.dumps([list(cs) for cs in coeff_lists], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


# One obstruction report for every OBSTRUCTION_EVERY - 1 eliminations.
OBSTRUCTION_EVERY = 8


def exact_steps(seed):
    """Endless exact steps, each ("eliminate", A, sub) or ("obstruction", p, q).

    ``A`` is a monic rational polynomial of degree 3 to 5 (ascending
    ``Fraction`` coefficients); ``sub`` holds the k coefficients (a, b, ...)
    of a subsidiary of degree 1 <= k <= deg A - 1.  Obstruction pairs have
    p != 0: at p = 0 the report is degenerate by design and carries no sextic.
    """
    rng = random.Random(seed)
    for i in count():
        if i % OBSTRUCTION_EVERY == OBSTRUCTION_EVERY - 1:
            p = Fraction(0)
            while p == 0:
                p = _fraction(rng)
            yield ("obstruction", p, _fraction(rng))
        else:
            n = rng.randint(3, 5)
            A = tuple(_fraction(rng) for _ in range(n)) + (Fraction(1),)
            k = rng.randint(1, n - 1)
            yield ("eliminate", A, tuple(_fraction(rng) for _ in range(k)))
