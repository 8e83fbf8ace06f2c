"""Fractal dimensions and expected volume of the percolation limit set.

Dimensions hold almost surely on non-extinction; all come from the sequence:

    expected volume   E lambda_n = prod_k p_k
    hausdorff         n + log_m(alpha),   alpha = liminf_k (p_1...p_k)^(1/k)
    packing           n + limsup_k log_m (p_1...p_k)^(1/k)
    assouad           n where the set survives (alpha > m^(-n)), else packing
    box (lower/upper) identical to hausdorff / packing respectively

The paper writes packing as the limsup of the quotient
(n + log_m (p_1...p_{k+1})^(1/(k+1))) / (1 + log_m(p_{k+1}^(1/(k+1))) / n).
Every representable sequence is bounded below (non-decreasing, or a finite
prefix plus a tail), so the denominator is 1 + O(1/k) and drops out of the
limsup.  Hausdorff, packing and both box dimensions are then extrema of
Cesaro means of ln p_k.  Every sequence with a tail has p_k -> p_inf > 0,
so the means tend to ln p_inf and all four dimensions are n + log_m p_inf.

Assouad departs from the paper's claim that the other dimensions behave
like Hausdorff.  With inf_k p_k > 0, a live level-k cell keeps a full
t-level subtree with probability prod_{j<=t} p_{k+j}^(m^(nj)), bounded
below in k, so on survival weak tangents almost surely contain a full cube
and the Assouad dimension is n (Fraser, Miao & Troscheit, Ergodic Theory
Dynam. Systems 38, 2018; Fraser, Assouad Dimension and Fractal Geometry,
2020).  An almost surely empty set reports packing's value, 0 for every
sequence with a tail, so H <= P <= A holds by construction.

Every function returns a deterministic value; nothing here samples.  Each
one reads one :class:`perclab.probseq._Limits` evaluation: p_inf and exact
products for every sequence with a tail (``analytic``), and extrema of means
over one window (k_lo, k_hi] of levels for a tail-less prefix or
``windowed``.  The evaluator states both rules.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import InternalInvariantError
from .probseq import ANALYTIC, DEFAULT_WINDOW, ProbSequence, _check_geometry, _Limits, _survives


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

    Exact wherever the sequence has a limit: p^S(1) for the catalog, and for
    an explicit tail t the prefix product if t = 1, else 0.  The windowed
    value is the prefix product at the default window's k_hi.  The value does
    not depend on (n, m), which are checked as in :func:`full_report`.
    """
    _check_geometry(n, m)
    return _Limits(seq, DEFAULT_WINDOW, method).measure


def _clamp(raw: float, n: int) -> float:
    """Clamp a raw dimension to [0, n]."""
    return min(max(raw, 0.0), float(n))


def dim_hausdorff(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> float:
    """Almost-sure Hausdorff dimension n + log_m(alpha), clamped to [0, n].

    alpha < m^(-n) means the set is almost surely empty; the raw value would
    be negative and the full report flags it degenerate instead.
    """
    return full_report(seq, n, m, window, method).hausdorff


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
    """Almost-sure Assouad dimension: n where the set survives, else packing's value.

    Survival is alpha > m^(-n), the strict test of :func:`perclab.probseq.classify`.
    A surviving set almost surely holds fully kept subtrees of every height,
    so its weak tangents contain a full cube (see the module docstring).
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
    log_alpha = math.log(limits.alpha) if limits.alpha > 0.0 else -math.inf
    hausdorff = _clamp(n + log_alpha / math.log(m), n)
    packing = _clamp(n + limits.packing_log / math.log(m), n)
    assouad = float(n) if _survives(limits.alpha, n, m) else packing
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
        degenerate=limits.alpha < float(m) ** (-n),
    )
