"""Probability sequences driving fat fractal percolation.

A percolation run keeps each subcube at subdivision round k independently
with probability p_k.  This module holds the built-in sequence families and
the two tail statistics that classify the limit set:

    alpha = liminf_k (p_1 ... p_k)^(1/k)        survival threshold
    beta  = prod_k p_k^(m^(n k))                interior threshold

The limit set is almost surely empty iff alpha <= m^(-n) (boundary counts as
extinction), and almost surely has empty interior iff beta = 0.

All products are carried in log space; exponentiation happens only at report
boundaries, so depth beyond a few thousand levels never underflows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidParamsError, WindowTooSmallError

KIND_EXPLICIT = "explicit"
KIND_MFP = "mfp"
KIND_POWER = "power"
KIND_POWER_HEAD = "power_head"
KIND_POWER_TELESCOPE = "power_telescope"

EXP_CONSTANT_ONE = "constant_one"
EXP_EXPLICIT_LIST = "explicit_list"
EXP_GEOMETRIC_GAP = "geometric_gap"

ANALYTIC = "analytic"
WINDOWED = "windowed"

SURVIVAL_EMPTY = "empty_as"
SURVIVAL_POSITIVE = "positive_survival"
INTERIOR_EMPTY = "empty_interior"
INTERIOR_NONEMPTY = "non_empty_interior"

DEFAULT_WINDOW = (64, 512)
MIN_WINDOW_SPAN = 8

# exp(-x) underflows to 0 in double precision for x beyond this: a log
# product below -LOG_UNDERFLOW reads as 0, and so does beta once its partial
# sums of m^(nk) * (-ln p_k) pass it (declared divergent).
LOG_UNDERFLOW = 700.0

_KINDS = {KIND_EXPLICIT, KIND_MFP, KIND_POWER, KIND_POWER_HEAD, KIND_POWER_TELESCOPE}


@dataclass(frozen=True)
class ExponentSpec:
    """Exponent rule a_k for power-family sequences p_k = p^(a_k), a_k > 0.

    kinds:
      constant_one   a_k = 1                       (Mandelbrot percolation)
      explicit_list  finite positive list, then a constant tail
      geometric_gap  a_k = a^(k-1) - a^k, 0 < a < 1 (gaps telescope to 1)
    """

    kind: str
    values: tuple[float, ...] = ()
    tail: float | None = None
    a: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.kind == EXP_CONSTANT_ONE:
            pass
        elif self.kind == EXP_EXPLICIT_LIST:
            if self.tail is None:
                raise InvalidParamsError("explicit_list exponents need a constant tail")
            if self.tail <= 0 or any(v <= 0 for v in self.values):
                raise InvalidParamsError("exponents must be positive")
        elif self.kind == EXP_GEOMETRIC_GAP:
            if self.a is None or not 0.0 < self.a < 1.0:
                raise InvalidParamsError("geometric_gap needs a in (0, 1)")
        else:
            raise InvalidParamsError(f"unknown exponent kind {self.kind!r}")

    @classmethod
    def constant_one(cls) -> "ExponentSpec":
        return cls(EXP_CONSTANT_ONE)

    @classmethod
    def explicit_list(cls, values, tail: float) -> "ExponentSpec":
        return cls(EXP_EXPLICIT_LIST, values=tuple(values), tail=float(tail))

    @classmethod
    def geometric_gap(cls, a: float) -> "ExponentSpec":
        return cls(EXP_GEOMETRIC_GAP, a=float(a))

    def a_at(self, k: int) -> float:
        if k < 1:
            raise InvalidParamsError("exponent index must be >= 1")
        if self.kind == EXP_CONSTANT_ONE:
            return 1.0
        if self.kind == EXP_EXPLICIT_LIST:
            return self.values[k - 1] if k <= len(self.values) else self.tail
        return self.a ** (k - 1) - self.a**k

    def cesaro_limit(self) -> float:
        """Limit c of (a_1 + ... + a_k) / k, which exists for every kind."""
        if self.kind == EXP_CONSTANT_ONE:
            return 1.0
        if self.kind == EXP_EXPLICIT_LIST:
            return self.tail
        return 0.0

    def series(self, base: float) -> float:
        """S(base) = sum_k base^k a_k for base >= 1; math.inf where it diverges.

        Only telescoping gaps with a * base < 1 converge:
        sum_k base^k (a^(k-1) - a^k) = (1 - a) base / (1 - a base).
        Every other rule has positive exponents from some k on.
        """
        if self.kind == EXP_GEOMETRIC_GAP and self.a * base < 1.0:
            return (1.0 - self.a) * base / (1.0 - self.a * base)
        return math.inf

    def is_nonincreasing(self) -> bool:
        if self.kind != EXP_EXPLICIT_LIST:
            return True
        seq = self.values + (self.tail,)
        return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


@dataclass(frozen=True)
class ProbSequence:
    """One retention-probability sequence {p_k}, p_k in (0, 1].

    Every catalog family is p_k = p^(a_k): its constructor builds the
    exponent rule once and stores it as an :class:`ExponentSpec` in
    ``exponents``.  ``kind`` only labels the family on the wire and in
    displays.

    kinds:
      mfp              constant p_k = p (Mandelbrot fractal percolation), a_k = 1
      power            p_k = p^(a_k) with any :class:`ExponentSpec` rule
      power_head       p^a at k = 1 and p afterwards (a >= 1), a_k = a, 1, 1, ...
      power_telescope  p^(a^(k-1) - a^k) with 0 < a < 1; probabilities climb
                       to 1 fast enough that the limit set stays fat
      explicit         a finite prefix plus an optional constant tail

    The construction demands a non-decreasing sequence.  Explicit (and
    power/explicit_list) inputs that break monotonicity are rejected unless
    ``strict=False``, in which case a warning is recorded and the formulas
    are evaluated regardless.
    """

    kind: str
    p: float | None = None
    prefix: tuple[float, ...] = ()
    tail: float | None = None
    exponents: ExponentSpec | None = None
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(float(v) for v in self.prefix))
        if self.kind not in _KINDS:
            raise InvalidParamsError(f"unknown sequence kind {self.kind!r}")
        if self.kind == KIND_EXPLICIT:
            if not self.prefix and self.tail is None:
                raise InvalidParamsError("explicit sequence needs a prefix or a tail value")
            for v in self.prefix:
                _check_prob(v, closed_top=True)
            if self.tail is not None:
                _check_prob(self.tail, closed_top=True)
            probe = self.prefix + ((self.tail,) if self.tail is not None else ())
            if any(probe[i] > probe[i + 1] for i in range(len(probe) - 1)):
                self._monotonicity_violation("explicit probabilities decrease somewhere")
            return
        _check_prob(self.p)
        if self.exponents is None:
            raise InvalidParamsError(f"{self.kind} sequence needs an ExponentSpec")
        if not self.exponents.is_nonincreasing():
            self._monotonicity_violation(f"{self.kind} exponents increase somewhere (p_k would decrease)")

    def _monotonicity_violation(self, why: str):
        if self.strict:
            raise InvalidParamsError(f"non-monotone sequence: {why} (pass strict=False to allow)")
        warnings.warn(f"non-monotone probability sequence accepted: {why}", UserWarning, stacklevel=3)

    # -- constructors -------------------------------------------------------

    @classmethod
    def mfp(cls, p: float) -> "ProbSequence":
        return cls(KIND_MFP, p=float(p), exponents=ExponentSpec.constant_one())

    @classmethod
    def power(cls, p: float, exponents: ExponentSpec) -> "ProbSequence":
        return cls(KIND_POWER, p=float(p), exponents=exponents)

    @classmethod
    def power_head(cls, p: float, a: float) -> "ProbSequence":
        return cls(KIND_POWER_HEAD, p=float(p), exponents=ExponentSpec.explicit_list((a,), 1.0))

    @classmethod
    def power_telescope(cls, p: float, a: float) -> "ProbSequence":
        return cls(KIND_POWER_TELESCOPE, p=float(p), exponents=ExponentSpec.geometric_gap(a))

    @classmethod
    def explicit(cls, prefix, tail: float | None = None, strict: bool = True) -> "ProbSequence":
        return cls(KIND_EXPLICIT, prefix=tuple(prefix), tail=tail, strict=strict)

    # -- evaluation ---------------------------------------------------------

    @property
    def is_catalog(self) -> bool:
        """True when closed forms exist for every tail statistic."""
        return self.kind != KIND_EXPLICIT

    def p_at(self, k: int) -> float:
        """Retention probability at subdivision round k (k >= 1)."""
        if k < 1:
            raise InvalidParamsError("subdivision index k must be >= 1")
        if self.kind == KIND_EXPLICIT:
            if k <= len(self.prefix):
                return self.prefix[k - 1]
            if self.tail is None:
                raise InvalidParamsError(
                    f"explicit sequence defined only up to k={len(self.prefix)}, asked for k={k}"
                )
            return self.tail
        return self.p ** self.exponents.a_at(k)

    def log_p_at(self, k: int) -> float:
        """ln p_k, computed without the near-1 cancellation where possible.

        Catalog families use a_k * ln(p) from the exponent rule directly;
        taking log(p ** a_k) instead would lose all precision once p_k rounds
        to within an ulp of 1 (the telescoping families get there fast).
        """
        if self.kind == KIND_EXPLICIT:
            return math.log(self.p_at(k))
        return self.exponents.a_at(k) * math.log(self.p)

    def cumulative_log(self, k_hi: int) -> np.ndarray:
        """L with L[j] = ln(p_1 ... p_j) for j in [0, k_hi], summed in ascending j."""
        if k_hi < 0:
            raise InvalidParamsError("k_hi must be >= 0")
        out = np.zeros(k_hi + 1)
        if k_hi:
            logs = np.array([self.log_p_at(k) for k in range(1, k_hi + 1)])
            out[1:] = np.cumsum(logs)
        return out

    def log_prefix_product(self, k: int) -> float:
        """ln(p_1 ... p_k), always <= 0."""
        if k < 1:
            raise InvalidParamsError("k must be >= 1")
        return float(self.cumulative_log(k)[k])

    # -- wire format --------------------------------------------------------

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.kind == KIND_EXPLICIT:
            d["prefix"] = list(self.prefix)
            if self.tail is not None:
                d["tail"] = self.tail
            return d
        d["p"] = self.p
        es = self.exponents
        if self.kind == KIND_POWER_HEAD:
            d["a"] = es.values[0]
        elif es.kind == EXP_GEOMETRIC_GAP:
            d["a"] = es.a
        elif es.kind == EXP_EXPLICIT_LIST:
            d["prefix"] = list(es.values)
            d["tail"] = es.tail
        return d

    @classmethod
    def from_dict(cls, d: dict, strict: bool = True) -> "ProbSequence":
        try:
            raw_kind = str(d["kind"])
        except (KeyError, TypeError) as exc:
            raise InvalidParamsError("sequence object needs a 'kind' field") from exc
        kind = raw_kind.strip().lower()
        if kind not in _KINDS:
            raise InvalidParamsError(f"unknown sequence kind {raw_kind!r}")
        if kind == KIND_EXPLICIT:
            return cls.explicit(d.get("prefix", ()), d.get("tail"), strict=strict)
        p = d.get("p")
        if p is None:
            raise InvalidParamsError(f"{kind} sequence needs field 'p'")
        if kind == KIND_MFP:
            return cls.mfp(p)
        if kind == KIND_POWER_HEAD:
            return cls.power_head(p, _require(d, "a", kind))
        if kind == KIND_POWER_TELESCOPE:
            return cls.power_telescope(p, _require(d, "a", kind))
        # power: exponent rule inferred from which optional fields are present
        if d.get("a") is not None:
            espec = ExponentSpec.geometric_gap(d["a"])
        elif d.get("prefix") is not None:
            espec = ExponentSpec.explicit_list(d["prefix"], _require(d, "tail", "power/explicit_list"))
        else:
            espec = ExponentSpec.constant_one()
        return cls(KIND_POWER, p=float(p), exponents=espec, strict=strict)


def _require(d: dict, key: str, what: str):
    v = d.get(key)
    if v is None:
        raise InvalidParamsError(f"{what} sequence needs field {key!r}")
    return v


def _check_prob(p, closed_top: bool = False):
    if p is None:
        raise InvalidParamsError("missing probability value")
    top_ok = p <= 1.0 if closed_top else p < 1.0
    if not (0.0 < p and top_ok):
        rng = "(0, 1]" if closed_top else "(0, 1)"
        raise InvalidParamsError(f"probability {p!r} outside {rng}")


# ---------------------------------------------------------------------------
# classifier statistics


@dataclass(frozen=True)
class ClassifierReport:
    """Survival / interior classification of one sequence at (n, m)."""

    alpha: float
    beta: float
    alpha_method: str
    beta_method: str
    survival_class: str
    interior_class: str
    beta_diverged: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_method(seq: ProbSequence, method: str) -> str:
    if method == "auto":
        return ANALYTIC if seq.is_catalog else WINDOWED
    if method == ANALYTIC:
        if not seq.is_catalog:
            raise InvalidParamsError("no closed forms for explicit sequences; use windowed")
        return ANALYTIC
    if method == WINDOWED:
        return WINDOWED
    raise InvalidParamsError(f"method must be auto, analytic or windowed, got {method!r}")


def check_window(window) -> tuple[int, int]:
    try:
        k_lo, k_hi = int(window[0]), int(window[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise InvalidParamsError(f"window must be a (k_lo, k_hi) pair, got {window!r}") from exc
    if not 1 <= k_lo < k_hi:
        raise InvalidParamsError(f"window needs 1 <= k_lo < k_hi, got {(k_lo, k_hi)}")
    return k_lo, k_hi


def _check_geometry(n: int, m: int):
    if n < 1 or m < 2:
        raise InvalidParamsError(f"need n >= 1 and m >= 2, got n={n}, m={m}")


def _require_span(window: tuple[int, int]):
    if window[1] - window[0] < MIN_WINDOW_SPAN:
        raise WindowTooSmallError(
            f"windowed evaluation needs a span of at least {MIN_WINDOW_SPAN} levels, got {window}"
        )


class _Limits:
    """Every tail limit of one sequence, read by one method over one window.

    The evaluator behind :func:`alpha_estimate`, :func:`classify` and every
    function in :mod:`perclab.dimensions`.  It checks the window and resolves
    the method once.  Fields, over the Cesaro means of ln p_k:

        alpha         exp of the liminf of the means over (0, k]
        packing_log   the limsup of the means over (0, k]
        assouad_log   the limsup over t of the sup over j of the mean over (j, j + t]
        measure       prod_k p_k, 0 once its log is below -LOG_UNDERFLOW

    ``analytic`` reads the exponent rule p_k = p^(a_k) with Cesaro limit c:
    alpha = p^c, packing_log = assouad_log = c ln p (every representable
    sequence is non-decreasing or eventually constant, so the sup over
    windows settles at the same limit), and measure = p^S(1).

    ``windowed`` reads one :meth:`ProbSequence.cumulative_log` table through
    k_hi and takes extrema of means of ln p_l over sub-windows of
    (k_lo, k_hi], so the head below k_lo never enters:

        alpha         the minimum over k in (k_lo, k_hi] of the mean over (k_lo, k]
        packing_log   the maximum of those means for k in the deeper half of
                      the window: a limsup is a tail property, and the shallow
                      half carries an O(1/(k - k_lo)) transient
        assouad_log   the maximum over every sub-window of (k_lo, k_hi] at least
                      half the span long
        measure       the prefix product at k_hi

    Assouad's candidates include packing's, which are a subset of alpha's,
    so H <= P <= A holds by construction.  The extrema are exact for the
    monotone tails of the catalog families and an honest, labeled
    approximation otherwise; the minimum under-approximates the liminf on
    oscillating tails, which is why ``auto`` takes the closed forms for the
    catalog.  The windowed Assouad scan costs O(span^2) and runs only when
    ``assouad_log`` is read.
    """

    def __init__(self, seq: ProbSequence, window, method: str):
        self.window = check_window(window)
        self.method = resolve_method(seq, method)
        if self.method == ANALYTIC:
            c = seq.exponents.cesaro_limit()
            self.alpha = seq.p**c
            self.packing_log = self.assouad_log = c * math.log(seq.p)
            self.measure = seq.p ** seq.exponents.series(1)
            return
        _require_span(self.window)
        k_lo, k_hi = self.window
        self._cum = seq.cumulative_log(k_hi)
        span = k_hi - k_lo
        means = _tail_means(self._cum, k_lo, np.arange(1, span + 1))
        self.alpha = float(np.exp(means.min()))
        self.packing_log = float(means[span // 2 - 1 :].max())
        log_measure = float(self._cum[k_hi])
        self.measure = 0.0 if log_measure < -LOG_UNDERFLOW else math.exp(log_measure)

    @cached_property
    def assouad_log(self) -> float:
        # about span^2 / 8 means: one pass per start level j, lengths t >= span / 2
        k_lo, k_hi = self.window
        t_lo = (k_hi - k_lo) // 2
        return max(
            float(_tail_means(self._cum, j, np.arange(t_lo, k_hi - j + 1)).max())
            for j in range(k_lo, k_hi - t_lo + 1)
        )


def _tail_means(cum: np.ndarray, k_lo: int, lengths: np.ndarray) -> np.ndarray:
    """Mean of ln p_l over (k_lo, k_lo + t] for each t in ``lengths``.

    ``cum`` is a :meth:`ProbSequence.cumulative_log` table reaching at least
    k_lo + max(lengths).
    """
    return (cum[k_lo + lengths] - cum[k_lo]) / lengths


def alpha_estimate(seq: ProbSequence, window=DEFAULT_WINDOW, method: str = "auto") -> tuple[float, str]:
    """The liminf geometric-mean statistic alpha, with the method used.

    Read from :class:`_Limits`, which states the closed form and the
    windowed rule.
    """
    limits = _Limits(seq, window, method)
    return limits.alpha, limits.method


def beta_partial_log_sum(seq: ProbSequence, n: int, m: int, k_hi: int) -> float:
    """Partial sum of m^(nk) (-ln p_k) up to k_hi; may be inf.

    Stops accumulating once the sum is past the divergence threshold, so the
    tail of the sequence is not evaluated in the clearly divergent case.
    """
    log_mn = n * math.log(m)
    s = 0.0
    for k in range(1, k_hi + 1):
        lp = seq.log_p_at(k)
        if lp == 0.0:
            continue
        s += math.exp(k * log_mn + math.log(-lp))
        if s > LOG_UNDERFLOW:
            break
    return s


def beta_estimate(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> tuple[float, str, bool]:
    """The interior statistic beta = prod p_k^(m^(nk)); (value, method, diverged).

    Closed form: p^S with S = sum_k m^(nk) a_k, so a divergent exponent
    series forces beta = 0.  The windowed fallback reports the partial
    product at k_hi and flags divergence once the partial sums pass the
    double-precision underflow threshold.
    """
    return _beta(seq, n, m, check_window(window), resolve_method(seq, method))


def _beta(seq: ProbSequence, n: int, m: int, window: tuple[int, int], method: str):
    """:func:`beta_estimate` over a checked window by a resolved method."""
    if method == ANALYTIC:
        s = seq.exponents.series(m**n)
        return seq.p**s, ANALYTIC, math.isinf(s)
    _require_span(window)
    s = beta_partial_log_sum(seq, n, m, window[1])
    if s > LOG_UNDERFLOW:
        return 0.0, WINDOWED, True
    return math.exp(-s), WINDOWED, False


def classify(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> ClassifierReport:
    """Classify survival and interior of the limit set for one sequence.

    Pure function: identical inputs give bit-identical reports.  The survival
    boundary alpha = m^(-n) is classified as extinction (strict comparison).
    """
    _check_geometry(n, m)
    limits = _Limits(seq, window, method)
    beta, b_method, diverged = _beta(seq, n, m, limits.window, limits.method)
    threshold = float(m) ** (-n)
    return ClassifierReport(
        alpha=limits.alpha,
        beta=beta,
        alpha_method=limits.method,
        beta_method=b_method,
        survival_class=SURVIVAL_POSITIVE if limits.alpha > threshold else SURVIVAL_EMPTY,
        interior_class=INTERIOR_NONEMPTY if beta > 0.0 else INTERIOR_EMPTY,
        beta_diverged=diverged,
    )
