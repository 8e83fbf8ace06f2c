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
samples.  Each one reads one :class:`perclab.probseq._Limits` evaluation:
closed forms for the catalog families, and for explicit sequences extrema of
means over one finite window (k_lo, k_hi] of levels, labeled ``windowed``.
The evaluator states both rules.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import InternalInvariantError
from .probseq import ANALYTIC, DEFAULT_WINDOW, LOG_UNDERFLOW, ProbSequence, _check_geometry, _Limits


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


def expected_measure(seq: ProbSequence, n: int, m: int, method: str = "auto") -> float:
    """Expected Lebesgue measure of the limit set, prod_k p_k.

    Closed form: p^S(1) with S(1) = sum_k a_k, which diverges (product 0)
    unless the exponents telescope to exactly 1 (product p).  The windowed
    value is the prefix product at the default window's k_hi.  The value does
    not depend on (n, m), which are checked as in :func:`full_report`.
    """
    _check_geometry(n, m)
    return _Limits(seq, DEFAULT_WINDOW, method).measure


def expected_measure_limit(seq: ProbSequence) -> float | None:
    """The infinite-product limit, where it has a closed form; else None."""
    if seq.is_catalog:
        return expected_measure(seq, 1, 2, method="analytic")
    if seq.tail is None:
        return None
    if seq.tail < 1.0:
        return 0.0
    log_measure = sum(math.log(v) for v in seq.prefix)
    return 0.0 if log_measure < -LOG_UNDERFLOW else math.exp(log_measure)


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
    return full_report(seq, n, m, window, method).hausdorff


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
    Cesaro means is left.
    """
    return full_report(seq, n, m, window, method).packing


def dim_assouad(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> float:
    """Almost-sure Assouad dimension, clamped to [0, n].

    The formula takes the sup over start levels j of the mean of ln p_l over
    (j, j + t], then the limsup over t.
    """
    return full_report(seq, n, m, window, method).assouad


def full_report(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> DimensionReport:
    """Assemble every dimension plus expected volume, with consistency checks.

    Every value comes from one evaluation of the sequence's limits.  Enforced
    identities: box_lower = hausdorff, box_upper = packing.  The ordering
    0 <= H <= P <= A <= n is verified post-computation, and for analytic
    reports so is the equivalence (expected volume > 0 iff H = n);
    violations raise :class:`InternalInvariantError`.
    """
    _check_geometry(n, m)
    limits = _Limits(seq, window, method)
    hausdorff, degenerate = _clamp(_hausdorff_raw(limits.alpha, n, m), n)
    packing = _clamp(n + limits.packing_log / math.log(m), n)[0]
    assouad = _clamp(n + limits.assouad_log / math.log(m), n)[0]
    measure = limits.measure
    # exact but for the rounding of Hausdorff's exp/log round trip through alpha
    if hausdorff > packing + 1e-9 or packing > assouad + 1e-9:
        raise InternalInvariantError(
            f"dimension ordering violated: H={hausdorff!r} P={packing!r} A={assouad!r}"
        )
    if limits.method == ANALYTIC:
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
        method=limits.method,
        window=None if limits.method == ANALYTIC else limits.window,
        n=n,
        m=m,
        degenerate=degenerate,
    )
