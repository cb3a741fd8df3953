"""Structured errors shared across the transformation engine."""


class DegenerateDenominator(Exception):
    """The input is degenerate for the step: a quantity the step divides by,
    or needs to be nonzero, vanishes.

    Raised when a closed-form solve cannot proceed as stated because a
    denominator vanishes or cancels (the ansatz's 15p + 20q) or a condition
    is unsatisfiable, and, with no denominator (None) and the detail alone
    as its message, when a step the chain keeps merges the roots of a
    quintic with a repeated root (its certificate fails, in either mode).
    The Bring-Jerrard step retries once at halved roots before it lets this
    through; the command line maps it to exit 2.
    """

    def __init__(self, denominator, detail: str = ""):
        self.denominator = denominator
        self.detail = detail
        if denominator is None:
            msg = detail
        else:
            msg = "degenerate denominator: %s" % (denominator,)
            if detail:
                msg += " (" + detail + ")"
        super().__init__(msg)


class ConsistencyError(Exception):
    """An internal cross-check failed, indicating a broken transformation step."""
