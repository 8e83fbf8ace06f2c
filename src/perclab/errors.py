"""Exception types shared across the package."""


class PercLabError(Exception):
    """Base class for domain errors raised by this package."""


class InvalidParamsError(PercLabError, ValueError):
    """A parameter set violates its documented domain."""


class WindowTooSmallError(InvalidParamsError):
    """Windowed evaluation was asked for on a window spanning fewer than 8 levels."""


DEFAULT_CELL_BUDGET = 1 << 26  # candidate cells per level at most, unless the caller sets a budget


class BudgetExceededError(PercLabError):
    """Cell expansion passed the configured budget.

    Carries the level whose candidate count passed the budget, that count,
    and the budget.
    """

    def __init__(self, level: int, count: int, budget: int):
        self.level = level
        self.count = count
        self.budget = budget
        super().__init__(
            f"cell budget exceeded at level {level}: {count} candidate cells > budget {budget}"
        )


class AllExtinctError(PercLabError):
    """Fewer replicates than asked survived within the attempt budget of a conditioned estimator."""


class UnsupportedDimensionError(PercLabError):
    """Raster output is only defined for planar (n = 2) realizations."""


class RasterTooLargeError(PercLabError):
    """Requested raster side exceeds the supported maximum."""


class InternalInvariantError(PercLabError):
    """A post-computation consistency check failed; indicates a bug, not bad input."""
