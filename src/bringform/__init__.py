"""Polynomial reduction by low-degree subsidiary transformations.

The package turns a general monic quintic into the two-parameter trinomial
y^5 + P y + Q through a chain of coefficient-killing substitutions, each of
which only ever requires solving a linear, quadratic, or cubic auxiliary
equation.  Every elimination is computed twice, by independent routes, and
the emitted trace can be re-verified by algebra after the fact.
"""

from .elimination import (BiPoly, map_charpoly, polynomial_resultant,
                          sylvester_resultant_with_factor,
                          transform_by_power_sums)
from .errors import ConsistencyError, DegenerateDenominator
from .pipeline import (AuxSolve, BringAnsatz, ObstructionReport,
                       ReductionTrace, Subsidiary, TransformStep, back_solve,
                       cubic_b_quadratic, cubic_to_pure, depress,
                       dual_eliminate, quartic_obstruction_G,
                       quartic_remove_2_3, quartic_remove_2_4,
                       quintic_bring_ansatz, quintic_to_bring_jerrard,
                       reciprocal_transform, reduce_general_quintic,
                       step_inverse, to_principal)
from .polynomials import (UniPoly, coeff_scale, deflate, poly_from_power_sums,
                          power_sums, shift_substitute)
from .roots import (DEFAULT_MATCH_TOLERANCE, RootConfig, RootSet,
                    VerifyReport, bring_curve_residual, find_roots,
                    match_roots, obstruction_consistency, recover_roots,
                    verify_trace, verify_transform)
from .scalars import (DEFAULT_PRECISION_BITS, DEFAULT_TOLERANCE, Scalar, cx,
                      rat)
from .solvers import (SolveResult, assemble_preimages, solve_condition,
                      solve_cubic_cardano, solve_cubic_general, solve_monic,
                      solve_quadratic, solve_quartic)

__all__ = [
    "AuxSolve", "BiPoly", "BringAnsatz", "ConsistencyError",
    "DEFAULT_MATCH_TOLERANCE", "DEFAULT_PRECISION_BITS", "DEFAULT_TOLERANCE",
    "DegenerateDenominator", "ObstructionReport", "ReductionTrace",
    "RootConfig", "RootSet", "Scalar", "SolveResult", "Subsidiary",
    "TransformStep", "UniPoly", "VerifyReport",
    "assemble_preimages", "back_solve", "bring_curve_residual", "coeff_scale",
    "cubic_b_quadratic", "cubic_to_pure", "cx", "deflate", "depress",
    "dual_eliminate", "find_roots", "map_charpoly", "match_roots",
    "obstruction_consistency", "poly_from_power_sums", "polynomial_resultant",
    "power_sums",
    "quartic_obstruction_G", "quartic_remove_2_3", "quartic_remove_2_4",
    "quintic_bring_ansatz", "quintic_to_bring_jerrard", "rat",
    "reciprocal_transform", "recover_roots", "reduce_general_quintic",
    "shift_substitute", "solve_condition", "solve_cubic_cardano",
    "solve_cubic_general", "solve_monic", "solve_quadratic", "solve_quartic",
    "step_inverse", "sylvester_resultant_with_factor", "to_principal",
    "transform_by_power_sums", "verify_trace", "verify_transform",
]

__version__ = "0.1.0"
