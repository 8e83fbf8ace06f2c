"""Fractal dimensions and expected volume of the percolation limit set.

Almost-sure closed forms, all driven by the probability sequence:

    expected volume   E lambda_n = prod_k p_k
    hausdorff         n + log_m(alpha),   alpha = liminf_k (p_1...p_k)^(1/k)
    packing           n + limsup_k log_m (p_1...p_k)^(1/k)
    assouad           n + limsup_t sup_j log_m (p_{j+1}...p_{j+t})^(1/t)
    box (lower/upper) identical to hausdorff / packing respectively

The paper writes packing as the limsup of the quotient
(n + log_m (p_1...p_{k+1})^(1/(k+1))) / (1 + log_m(p_{k+1}^(1/(k+1))) / n).
Every representable sequence is bounded below (non-decreasing, or a finite
prefix plus a tail), so the denominator is 1 + O(1/k) and drops out of the
limsup.  All five dimensions are then extrema of Cesaro means of ln p_k, and
a finite head shifts those means by O(1/k) only.

Every function returns the deterministic almost-sure value; nothing here
samples.  Catalog families get the closed forms; explicit sequences are
evaluated over a finite window (k_lo, k_hi] of levels and labeled
``windowed``.  The windowed values all read one log-prefix table through
means of ln p_l over sub-windows of (k_lo, k_hi], so the head below k_lo
never enters:

    hausdorff   the minimum over k in (k_lo, k_hi] of the mean over (k_lo, k]
    packing     the maximum of those means over the deeper half of the window
    assouad     the maximum over every sub-window of (k_lo, k_hi] at least as
                long as packing's shortest

Assouad's candidates include packing's, which are a subset of Hausdorff's,
so H <= P <= A holds by construction.  The extrema are exact for the
monotone tails of the catalog families and an honest, labeled approximation
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InternalInvariantError, InvalidParamsError
from .probseq import (
    ANALYTIC,
    DEFAULT_WINDOW,
    ProbSequence,
    _require_span,
    _tail_means,
    _windowed_alpha,
    alpha_estimate,
    check_window,
    resolve_method,
)

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
        return asdict(self)


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
    return _measure_from_log(seq.log_prefix_product(k_max))


def _measure_from_log(lp: float) -> float:
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
    return _measure_from_log(sum(math.log(v) for v in seq.prefix))


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
    alpha, _ = alpha_estimate(seq, window, method)
    return _clamp(_hausdorff_raw(alpha, n, m), n)[0]


def _hausdorff_raw(alpha: float, n: int, m: int) -> float:
    if alpha <= 0.0:
        return -math.inf
    return n + math.log(alpha) / math.log(m)


def dim_packing(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> float:
    """Almost-sure packing dimension n + limsup_k log_m (p_1...p_k)^(1/k), clamped to [0, n].

    The paper's quotient form divides by 1 + ln p_{k+1} / (n (k+1) ln m),
    which tends to 1 because p_k is bounded below; only the limsup of the
    Cesaro means is left.  The windowed path takes the maximum of the means
    of ln p_l over (k_lo, k] for k in the deeper half of the window: a limsup
    is a tail property, and the shallow half carries an O(1/(k - k_lo))
    transient that would otherwise dominate the estimate.
    """
    window = check_window(window)
    if resolve_method(seq, method) == ANALYTIC:
        return _clamp(_packing_analytic(seq, n, m), n)[0]
    _require_span(window)
    return _clamp(_packing_windowed(seq.cumulative_log(window[1]), n, m, window), n)[0]


def _packing_analytic(seq, n, m) -> float:
    # Cesaro means of the exponents settle at c
    return n + seq.exponents.cesaro_limit() * math.log(seq.p) / math.log(m)


def _shortest_tail(window: tuple[int, int]) -> int:
    """Length of the shortest sub-window the limsups read: half the span."""
    return (window[1] - window[0]) // 2


def _packing_windowed(cum, n, m, window) -> float:
    k_lo, k_hi = window
    lengths = np.arange(_shortest_tail(window), k_hi - k_lo + 1)
    return n + float(_tail_means(cum, k_lo, lengths).max()) / math.log(m)


def dim_assouad(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> float:
    """Almost-sure Assouad dimension, clamped to [0, n].

    The formula takes the sup over start levels j of the mean of ln p_l over
    (j, j + t], then the limsup over t.  Every representable sequence is
    non-decreasing or eventually constant, so as t grows that sup settles at
    ln lim p_k, the limit of packing's Cesaro means too, and the closed forms
    agree.  The windowed path takes the maximum of the means over every
    sub-window (j, j + t] of (k_lo, k_hi] with t at least half the span.
    The sub-windows starting at k_lo are packing's candidates, computed by
    the same expression, so the windowed Assouad value is never below the
    windowed packing value.
    """
    window = check_window(window)
    if resolve_method(seq, method) == ANALYTIC:
        # identical closed forms to packing for every catalog family
        return _clamp(_packing_analytic(seq, n, m), n)[0]
    _require_span(window)
    return _clamp(_assouad_windowed(seq.cumulative_log(window[1]), n, m, window), n)[0]


def _assouad_windowed(cum, n, m, window) -> float:
    # about span^2 / 8 means: one pass per start level j, lengths t >= span / 2
    k_lo, k_hi = window
    t_lo = _shortest_tail(window)
    best = max(
        float(_tail_means(cum, j, np.arange(t_lo, k_hi - j + 1)).max())
        for j in range(k_lo, k_hi - t_lo + 1)
    )
    return n + best / math.log(m)


def full_report(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> DimensionReport:
    """Assemble every dimension plus expected volume, with consistency checks.

    A windowed report reads one log-prefix table through k_hi.  Enforced
    identities: box_lower = hausdorff, box_upper = packing.  The ordering
    0 <= H <= P <= A <= n is verified post-computation, and for analytic
    reports so is the equivalence (expected volume > 0 iff H = n);
    violations raise :class:`InternalInvariantError`.
    """
    if n < 1 or m < 2:
        raise InvalidParamsError(f"need n >= 1 and m >= 2, got n={n}, m={m}")
    window = check_window(window)
    resolved = resolve_method(seq, method)
    if resolved == ANALYTIC:
        alpha, _ = alpha_estimate(seq, window, resolved)
        packing_raw = assouad_raw = _packing_analytic(seq, n, m)
        measure = expected_measure(seq, n, m, method=resolved)
    else:
        _require_span(window)
        cum = seq.cumulative_log(window[1])
        alpha = _windowed_alpha(cum, window)
        packing_raw = _packing_windowed(cum, n, m, window)
        assouad_raw = _assouad_windowed(cum, n, m, window)
        measure = _measure_from_log(float(cum[window[1]]))

    hausdorff, degenerate = _clamp(_hausdorff_raw(alpha, n, m), n)
    packing = _clamp(packing_raw, n)[0]
    assouad = _clamp(assouad_raw, n)[0]
    # exact but for the rounding of Hausdorff's exp/log round trip through alpha
    if hausdorff > packing + 1e-9 or packing > assouad + 1e-9:
        raise InternalInvariantError(
            f"dimension ordering violated: H={hausdorff!r} P={packing!r} A={assouad!r}"
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
