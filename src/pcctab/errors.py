"""Exception hierarchy shared across the package."""


class PcctabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PcctabError, ValueError):
    """Invalid user input: bad coordinates, malformed files, bad options."""


class FeasibilityError(PcctabError, RuntimeError):
    """A computation would exceed a size cap: an exhaustive enumeration
    over its configured cap, a dense array of a table with more than
    ``MAX_DENSE_CELLS`` cells, or a table with more cells than an intp can
    number or more than ``MAX_VARIABLES`` variables.  ``size`` is the size
    that was refused."""

    def __init__(self, message: str, size: int):
        super().__init__(message)
        self.size = size


class DegeneracyError(PcctabError, ArithmeticError):
    """A ratio or statistic is undefined for the given data (e.g. a positive
    observed count over a zero expected count)."""
