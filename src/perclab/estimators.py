"""Monte Carlo estimators: expected volume, survival frequency, box dimension.

Every estimate reads only the level counts X_0..X_K of its replicates.
Replicate i is ``sample_counts(params, i)``: the counts of the realization
``generate`` would build on the Philox stream keyed (seed, i), drawn on the
same stream contract (one raw word per candidate, kept iff it is at most
the exact bound for p_k) but without building coordinates.  ``_replicates``
maps replicates 0..count-1 to streams 0..count-1 of one call of the
engine's draw loop, which builds the level bounds and the bit generator
once per estimator call.  All three estimators draw the replicates inline,
in stream order, and fold them in that order, so results are deterministic
for a fixed (seed, params, replicates) and a fixed numpy.  The engine, and
with it numpy, loads only once an estimator runs: the CSV rows of ``dims``
need neither.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from .dimensions import expected_measure
from .errors import AllExtinctError, InvalidParamsError
from .probseq import KIND_MFP

if TYPE_CHECKING:
    from .engine import PercolationParams

QUANTITY_MEASURE = "expected_measure"
QUANTITY_SURVIVAL = "survival_prob"
QUANTITY_BOXDIM = "box_dimension"

MIN_REPLICATES = 100

CSV_COLUMNS = (
    "quantity",
    "n",
    "m",
    "K",
    "family",
    "params",
    "replicates",
    "estimate",
    "std_error",
    "theory",
    "z_score",
)


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with its standard error and the matching theory value.

    ``theory`` is the depth-K truncated value (what the simulation actually
    estimates); ``theory_limit`` carries the infinite-depth limit for context
    when it has a closed form.
    """

    quantity: str
    estimate: float
    std_error: float
    replicates: int
    depth: int
    theory: float | None
    z_score: float | None
    theory_limit: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoxFitReport:
    """Box-counting regression over levels of surviving realizations.

    The slope of ln N_k against k ln m is fit per surviving replicate and the
    slopes are averaged (keeping replicates independent for the standard
    error); ``per_level_counts`` holds the mean N_k across those replicates.
    """

    levels_used: tuple[int, int]
    slope: float
    intercept: float
    r_squared: float
    per_level_counts: tuple[float, ...]
    conditioned_on_survival: bool
    attempts: int
    replicates_used: int
    slope_std_error: float

    def to_dict(self) -> dict:
        return asdict(self)


def branching_extinction_prob(
    p: float, offspring_n: int, depth: int | None = None, tol: float = 1e-15
) -> float:
    """Extinction probability of the Binomial(offspring_n, p) branching process.

    Iterates q <- (1 - p + p q)^offspring_n from q = 0.  With ``depth`` set,
    returns the depth-step value P(population dead by generation depth);
    otherwise iterates to the smallest fixed point.
    """
    if not 0.0 < p <= 1.0 or offspring_n < 1:
        raise InvalidParamsError("need p in (0, 1] and offspring_n >= 1")
    q = 0.0
    if depth is not None:
        for _ in range(depth):
            q = (1.0 - p + p * q) ** offspring_n
        return q
    for _ in range(1_000_000):
        nxt = (1.0 - p + p * q) ** offspring_n
        if abs(nxt - q) < tol:
            return nxt
        q = nxt
    return q


def _replicates(params: PercolationParams, count: int):
    """Level counts of replicates 0..count-1, drawn lazily in stream order."""
    from .engine import _replicate_counts

    return _replicate_counts(params, range(count))


def _z_score(estimate: float, theory: float | None, se: float) -> float | None:
    return (estimate - theory) / se if (theory is not None and se > 0.0) else None


def _check_replicates(replicates: int) -> None:
    if replicates < MIN_REPLICATES:
        raise InvalidParamsError(f"need at least {MIN_REPLICATES} replicates")


def _report(quantity: str, params: PercolationParams, replicates: int, est: float, se: float,
            theory: float | None, theory_limit: float | None = None) -> EstimateReport:
    return EstimateReport(quantity, est, se, replicates, params.depth, theory,
                          _z_score(est, theory, se), theory_limit)


def estimate_measure(params: PercolationParams, replicates: int) -> EstimateReport:
    """Mean and standard error of the depth-K measure over replicates.

    Counts are accumulated as exact integers in replicate order and divided
    once at the end, so the result is independent of execution interleaving.
    A tail-less prefix shorter than K has no theory value prod p_k.
    """
    from .engine import level_probs

    _check_replicates(replicates)
    K = params.depth
    s = 0
    s2 = 0
    for counts in _replicates(params, replicates):
        x = counts[K]
        s += x
        s2 += x * x
    scale = float(params.m) ** (-params.n * K)
    est = (s / replicates) * scale
    var_counts = float(replicates * s2 - s * s) / (replicates * (replicates - 1))
    se = math.sqrt(max(var_counts, 0.0) / replicates) * scale
    theory = None if len(level_probs(params)) < K else math.exp(params.seq.log_prefix_product(K))
    limit = None if params.seq.limit is None else expected_measure(params.seq, params.n, params.m)
    return _report(QUANTITY_MEASURE, params, replicates, est, se, theory, limit)


def estimate_survival(params: PercolationParams, replicates: int) -> EstimateReport:
    """Fraction of replicates with any cell alive at depth K.

    The theory value is the infinite-depth branching survival probability
    (fixed point of the Binomial(m^n, p) extinction map) for constant-p
    sequences, and unavailable otherwise.  Finite depth overestimates it.
    """
    _check_replicates(replicates)
    K = params.depth
    hits = sum(1 for counts in _replicates(params, replicates) if counts[K] > 0)
    est = hits / replicates
    se = math.sqrt(est * (1.0 - est) / replicates)
    theory = None
    if params.seq.kind == KIND_MFP:
        theory = 1.0 - branching_extinction_prob(params.seq.p, params.m**params.n)
    return _report(QUANTITY_SURVIVAL, params, replicates, est, se, theory)


def _linear_fit(xs, ys) -> tuple[float, float, float]:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def estimate_boxdim(
    params: PercolationParams,
    replicates: int,
    fit_levels: tuple[int, int] | None = None,
    max_attempts: int = 1000,
    threads: int = 1,
) -> BoxFitReport:
    """Box-counting slope over surviving realizations.

    Conditioning is by rejection: realizations are drawn on consecutive
    streams until ``replicates`` of them survive to depth K, within a total
    budget of max_attempts * replicates draws, else ``AllExtinctError``.
    Levels below fit_levels[0] (default 3) are discarded to reduce
    transient bias.

    ``threads`` has no effect.  It stays in the signature only because
    perfbench's boxdim observer reads it from the bound arguments; ROADMAP
    item 10's benchmark change removes both.
    """
    if replicates < 1:
        raise InvalidParamsError("need at least 1 surviving replicate")
    K = params.depth
    lo, hi = fit_levels if fit_levels is not None else (min(3, K), K)
    if not (1 <= lo <= hi <= K):
        raise InvalidParamsError(f"fit levels {(lo, hi)} must sit inside [1, {K}]")
    if hi - lo + 1 < 4:
        raise InvalidParamsError("box-dimension fit needs at least 4 levels")
    if max_attempts < 1:
        raise InvalidParamsError("max_attempts must be >= 1")

    budget = max_attempts * replicates
    ln_m = math.log(params.m)
    xs = [k * ln_m for k in range(lo, hi + 1)]

    surviving: list[list[int]] = []
    # budget >= 1, so the loop binds attempts: the streams drawn, in order
    for attempts, counts in enumerate(_replicates(params, budget), 1):
        if counts[K] > 0:
            surviving.append(counts)
            if len(surviving) == replicates:
                break
    if len(surviving) < replicates:
        raise AllExtinctError(
            f"{len(surviving)} of {replicates} replicates survived to depth {K} within {budget} attempts"
        )

    slopes, intercepts, r2s = [], [], []
    for counts in surviving:
        ys = [math.log(counts[k]) for k in range(lo, hi + 1)]
        s, b, r2 = _linear_fit(xs, ys)
        slopes.append(s)
        intercepts.append(b)
        r2s.append(r2)
    used = len(slopes)
    slope = sum(slopes) / used
    if used > 1:
        var = sum((s - slope) ** 2 for s in slopes) / (used - 1)
        slope_se = math.sqrt(var / used)
    else:
        slope_se = 0.0
    mean_counts = tuple(
        sum(counts[k] for counts in surviving) / used for k in range(lo, hi + 1)
    )
    return BoxFitReport(
        levels_used=(lo, hi),
        slope=slope,
        intercept=sum(intercepts) / used,
        r_squared=sum(r2s) / used,
        per_level_counts=mean_counts,
        conditioned_on_survival=True,
        attempts=attempts,
        replicates_used=used,
        slope_std_error=slope_se,
    )


# ---------------------------------------------------------------------------
# CSV row format (fixed column order, floats at 17 significant digits)


def format_float(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def csv_row(quantity: str, n: int, m: int, depth: int | None, family: str, family_params: str,
            replicates, estimate, std_error, theory, z_score) -> list[str]:
    """One row in ``CSV_COLUMNS`` order; ``depth`` and ``replicates`` are None only for ``dims``."""
    return [
        quantity,
        str(n),
        str(m),
        "" if depth is None else str(depth),
        family,
        family_params,
        "" if replicates is None else str(replicates),
        format_float(estimate),
        format_float(std_error),
        format_float(theory),
        format_float(z_score),
    ]
