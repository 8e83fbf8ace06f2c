"""Fractal dimensions and expected volume of the percolation limit set.

Almost-sure closed forms, all driven by the probability sequence:

    expected volume   E lambda_n = prod_k p_k
    hausdorff         n + log_m(alpha),   alpha = liminf (p_1...p_k)^(1/k)
    packing           limsup_k of  (n + log_m (p_1...p_{k+1})^(1/(k+1)))
                                   / (1 + log_m(p_{k+1}^(1/(k+1))) / n)
    assouad           n + limsup_t sup_k log_m (p_k...p_{k+t})^(1/(t+1))
    box (lower/upper) identical to hausdorff / packing respectively

Every function returns the deterministic almost-sure value; nothing here
samples.  Catalog families get the closed forms; explicit sequences are
evaluated over a finite window of levels and labeled ``windowed``.  Windowed
limsups take the maximum over the window and windowed liminfs the minimum,
which is exact for monotone tails (all catalog families) and an honest,
labeled approximation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormulaSingularityError, InternalInvariantError, InvalidParamsError
from .probseq import (
    ANALYTIC,
    DEFAULT_WINDOW,
    ProbSequence,
    _require_span,
    alpha_estimate,
    check_window,
    resolve_method,
)

DEFAULT_K_CAP = 4096

# The identity box_lower = hausdorff (and the full dimension ordering) is
# exact for analytic reports.  Windowed estimators of different dimensions
# carry different O(1/k) finite-window transients, so the ordering check gets
# slack there; anything past it is still a bug.
ORDERING_TOL_ANALYTIC = 1e-9
ORDERING_TOL_WINDOWED = 5e-2

MEASURE_LOG_FLOOR = -700.0


@dataclass(frozen=True)
class DimensionReport:
    """All dimension values plus expected volume for one sequence at (n, m)."""

    hausdorff: float
    packing: float
    assouad: float
    box_lower: float
    box_upper: float
    expected_measure: float
    method: str
    window: tuple[int, int] | None
    n: int
    m: int
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "hausdorff": self.hausdorff,
            "packing": self.packing,
            "assouad": self.assouad,
            "box_lower": self.box_lower,
            "box_upper": self.box_upper,
            "expected_measure": self.expected_measure,
            "method": self.method,
            "window": list(self.window) if self.window else None,
            "n": self.n,
            "m": self.m,
            "degenerate": self.degenerate,
        }


def expected_measure(
    seq: ProbSequence, n: int, m: int, k_max: int | None = None, method: str = "auto"
) -> float:
    """Expected Lebesgue measure of the limit set, prod_k p_k.

    Closed form: p^S(1) with S(1) = sum_k a_k, which diverges (product 0)
    unless the exponents telescope to exactly 1 (product p).  The windowed
    fallback exponentiates the log prefix product at k_max and declares 0
    once that drops below the underflow floor.
    """
    resolved = resolve_method(seq, method)
    if resolved == ANALYTIC:
        return seq.p ** seq.exponents.series(1)
    k_max = int(k_max if k_max is not None else DEFAULT_WINDOW[1])
    if k_max < 1:
        raise InvalidParamsError("k_max must be >= 1")
    lp = seq.log_prefix_product(k_max)
    return 0.0 if lp < MEASURE_LOG_FLOOR else math.exp(lp)


def expected_measure_limit(seq: ProbSequence) -> float | None:
    """The infinite-product limit, where it has a closed form; else None."""
    if seq.is_catalog:
        return expected_measure(seq, 1, 2, method="analytic")
    if seq.tail is None:
        return None
    if seq.tail < 1.0:
        return 0.0
    if not seq.prefix:
        return 1.0
    lp = sum(math.log(v) for v in seq.prefix)
    return 0.0 if lp < MEASURE_LOG_FLOOR else math.exp(lp)


def _clamp(raw: float, n: int) -> tuple[float, bool]:
    """Clamp a raw dimension to [0, n]; flag negatives as degenerate."""
    if raw < 0.0:
        return 0.0, True
    if raw > n:
        return float(n), False
    return raw, False


def dim_hausdorff(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> float:
    """Almost-sure Hausdorff dimension n + log_m(alpha), clamped to [0, n].

    alpha < m^(-n) means the set is almost surely empty; the raw value would
    be negative and the full report flags it degenerate instead.
    """
    return _clamp(_hausdorff_raw(seq, n, m, window, method), n)[0]


def _hausdorff_raw(seq, n, m, window, method) -> float:
    alpha, _ = alpha_estimate(seq, window, method)
    if alpha <= 0.0:
        return -math.inf
    return n + math.log(alpha) / math.log(m)


def dim_packing(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> float:
    """Almost-sure packing dimension, clamped to [0, n].

    The windowed path evaluates each term exactly as the limsup expression is
    written, numerator product running one level past the denominator prefix.
    The maximum is taken over the deeper half of the window: a limsup is a
    tail property, and the shallow half of the window carries an O(1/k_lo)
    transient that would otherwise dominate the estimate.
    """
    window = check_window(window)
    resolved = resolve_method(seq, method)
    if resolved == ANALYTIC:
        return _clamp(_packing_analytic(seq, n, m), n)[0]
    _require_span(window)
    return _clamp(_packing_windowed(seq, n, m, window), n)[0]


def _packing_analytic(seq, n, m) -> float:
    # Cesaro means of the exponents settle at c and the denominator's
    # single-term correction vanishes like 1/k.
    return n + seq.exponents.cesaro_limit() * math.log(seq.p) / math.log(m)


def _window_tail_lo(window: tuple[int, int]) -> int:
    k_lo, k_hi = window
    return max(k_lo, (k_lo + k_hi) // 2)


def _packing_windowed(seq, n, m, window) -> float:
    k_lo, k_hi = window
    ln_m = math.log(m)
    cum = seq.cumulative_log(k_hi + 1)
    best = -math.inf
    for k in range(_window_tail_lo(window), k_hi + 1):
        num = n + cum[k + 1] / ((k + 1) * ln_m)
        den = 1.0 + seq.log_p_at(k + 1) / (n * (k + 1) * ln_m)
        if den <= 0.0:
            raise FormulaSingularityError(
                k + 1, f"packing denominator {den:.3g} <= 0 (p_{k + 1} too small)"
            )
        best = max(best, num / den)
    return float(best)


def dim_assouad(
    seq: ProbSequence,
    n: int,
    m: int,
    window=DEFAULT_WINDOW,
    t_window=None,
    k_cap: int = DEFAULT_K_CAP,
    method: str = "auto",
) -> float:
    """Almost-sure Assouad dimension, clamped to [0, n].

    The windowed path scans window lengths t over t_window (defaults to
    ``window``) and start levels k up to k_cap.  The inner sup is monotone in
    k for every catalog family, so the cap is exact there.
    """
    window = check_window(window)
    t_window = check_window(t_window if t_window is not None else window)
    resolved = resolve_method(seq, method)
    if resolved == ANALYTIC:
        # identical closed forms to packing for every catalog family
        return _clamp(_packing_analytic(seq, n, m), n)[0]
    _require_span(t_window)
    if k_cap < 1:
        raise InvalidParamsError("k_cap must be >= 1")
    return _clamp(_assouad_windowed(seq, n, m, t_window, k_cap), n)[0]


def _assouad_windowed(seq, n, m, t_window, k_cap) -> float:
    # outer limsup over window lengths t, again restricted to the deeper half;
    # the inner sup over start levels k scans everything up to k_cap
    t_hi = t_window[1]
    ln_m = math.log(m)
    cum = seq.cumulative_log(k_cap + t_hi)
    heads = cum[0:k_cap]  # ln prefix product through k-1, for k = 1..k_cap
    best = -math.inf
    for t in range(_window_tail_lo(t_window), t_hi + 1):
        sup_k = float(np.max(cum[t + 1 : k_cap + t + 1] - heads))
        best = max(best, sup_k / ((t + 1) * ln_m))
    return n + best


def full_report(
    seq: ProbSequence,
    n: int,
    m: int,
    window=DEFAULT_WINDOW,
    t_window=None,
    k_cap: int = DEFAULT_K_CAP,
    k_max: int | None = None,
    method: str = "auto",
) -> DimensionReport:
    """Assemble every dimension plus expected volume, with consistency checks.

    Enforced identities: box_lower = hausdorff, box_upper = packing.  The
    ordering 0 <= H <= P <= A <= n is verified post-computation, and for
    analytic reports so is the equivalence (expected volume > 0 iff H = n);
    violations raise :class:`InternalInvariantError`.
    """
    if n < 1 or m < 2:
        raise InvalidParamsError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    window = check_window(window)
    resolved = resolve_method(seq, method)

    hausdorff, degenerate = _clamp(_hausdorff_raw(seq, n, m, window, resolved), n)
    packing = dim_packing(seq, n, m, window, method=resolved)
    assouad = dim_assouad(seq, n, m, window, t_window, k_cap, method=resolved)
    measure = expected_measure(seq, n, m, k_max=k_max or window[1], method=resolved)

    tol = ORDERING_TOL_ANALYTIC if resolved == ANALYTIC else ORDERING_TOL_WINDOWED
    if hausdorff > packing + tol or packing > assouad + tol:
        raise InternalInvariantError(
            f"dimension ordering violated: H={hausdorff!r} P={packing!r} A={assouad!r} (tol {tol})"
        )
    if resolved == ANALYTIC:
        if measure > 0.0 and abs(hausdorff - n) > 1e-9:
            raise InternalInvariantError(
                f"positive expected measure {measure!r} with hausdorff {hausdorff!r} != n={n}"
            )
        if hausdorff < n - 1e-6 and measure != 0.0:
            raise InternalInvariantError(
                f"hausdorff {hausdorff!r} < n={n} but expected measure {measure!r} != 0"
            )

    return DimensionReport(
        hausdorff=hausdorff,
        packing=packing,
        assouad=assouad,
        box_lower=hausdorff,
        box_upper=packing,
        expected_measure=measure,
        method=resolved,
        window=None if resolved == ANALYTIC else window,
        n=n,
        m=m,
        degenerate=degenerate,
    )
