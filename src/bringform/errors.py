"""Structured errors shared across the transformation engine."""


class DegenerateDenominator(Exception):
    """The input is degenerate for the step: a quantity the step divides by,
    or needs to be nonzero, vanishes.

    Raised when a closed-form solve cannot proceed as stated because a
    denominator (for example 3n - m^2, or 15p + 20q) vanishes, and when a
    rational quintic has a repeated root (its discriminant vanishes).  The
    Bring-Jerrard step retries once at halved roots before it lets this
    through; the command line maps it to exit 2.
    """

    def __init__(self, denominator, detail: str = ""):
        self.denominator = denominator
        self.detail = detail
        msg = "degenerate denominator: %s" % (denominator,)
        if detail:
            msg += " (" + detail + ")"
        super().__init__(msg)


class ConsistencyError(Exception):
    """An internal cross-check failed, indicating a broken transformation step."""
