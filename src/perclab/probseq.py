"""Probability sequences driving fat fractal percolation.

A percolation run keeps each subcube at subdivision round k independently
with probability p_k.  This module holds the built-in sequence families and
the two tail statistics that classify the limit set:

    alpha = liminf_k (p_1 ... p_k)^(1/k)        survival threshold
    beta  = prod_k p_k^(m^(n k))                interior threshold

The limit set is almost surely empty iff alpha <= m^(-n) (boundary counts as
extinction), and almost surely has empty interior iff beta = 0, that is iff
its log series diverges (a beta too small for a double is still positive).

All products are carried in log space; exponentiation happens only at report
boundaries, so depth beyond a few thousand levels never underflows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from . import _import_numpy_without_blas_pool
from .errors import InvalidParamsError, WindowTooSmallError

KIND_EXPLICIT = "explicit"
KIND_MFP = "mfp"
KIND_POWER = "power"
KIND_POWER_HEAD = "power_head"
KIND_POWER_HARMONIC = "power_harmonic"
KIND_POWER_TELESCOPE = "power_telescope"

EXP_CONSTANT_ONE = "constant_one"
EXP_EXPLICIT_LIST = "explicit_list"
EXP_GEOMETRIC_GAP = "geometric_gap"
EXP_HARMONIC = "harmonic"

ANALYTIC = "analytic"
WINDOWED = "windowed"

SURVIVAL_EMPTY = "empty_as"
SURVIVAL_POSITIVE = "positive_survival"
INTERIOR_EMPTY = "empty_interior"
INTERIOR_NONEMPTY = "non_empty_interior"

DEFAULT_WINDOW = (64, 512)
MIN_WINDOW_SPAN = 8
# a windowed evaluation fills a table of k_hi + 1 logs, one Python call each
MAX_WINDOW_TOP = 1 << 20

# exp(-x) underflows to 0 in double precision for x beyond this: a log
# product below -LOG_UNDERFLOW reads as 0, and so does beta once its partial
# sums of m^(nk) * (-ln p_k) pass it (declared divergent).
LOG_UNDERFLOW = 700.0

# the fields each exponent rule reads; a rule refuses the others
_RULE_FIELDS = {
    EXP_CONSTANT_ONE: (),
    EXP_EXPLICIT_LIST: ("values", "tail"),
    EXP_GEOMETRIC_GAP: ("a",),
    EXP_HARMONIC: (),
}

# each family's wire fields, in wire order, and its exponent rule (explicit
# stores probabilities, not exponents)
_FAMILIES = {
    KIND_EXPLICIT: (("prefix", "tail"), None),
    KIND_MFP: (("p",), EXP_CONSTANT_ONE),
    KIND_POWER: (("p", "prefix", "tail"), EXP_EXPLICIT_LIST),
    KIND_POWER_HEAD: (("p", "a"), EXP_EXPLICIT_LIST),
    KIND_POWER_HARMONIC: (("p",), EXP_HARMONIC),
    KIND_POWER_TELESCOPE: (("p", "a"), EXP_GEOMETRIC_GAP),
}


@dataclass(frozen=True)
class ExponentSpec:
    """Exponent rule a_k for power-family sequences p_k = p^(a_k), a_k > 0.

    kinds:
      constant_one   a_k = 1                       (Mandelbrot percolation)
      explicit_list  finite positive list, then a constant tail
      geometric_gap  a_k = a^(k-1) - a^k, 0 < a < 1 (gaps telescope to 1)
      harmonic       a_k = 1/k (Cesaro limit 0, divergent series)

    Each kind refuses the fields it does not read (``_RULE_FIELDS``), so
    that one rule has one spelling and a sequence reads back as itself.
    """

    kind: str
    values: tuple[float, ...] = ()
    tail: float | None = None
    a: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if self.kind not in _RULE_FIELDS:
            raise InvalidParamsError(f"unknown exponent kind {self.kind!r}")
        reads = _RULE_FIELDS[self.kind]
        stray = [f for f in ("values", "tail", "a") if getattr(self, f) not in (None, ()) and f not in reads]
        if stray:
            raise InvalidParamsError(f"{self.kind} exponents do not read fields {stray}")
        if self.kind == EXP_EXPLICIT_LIST:
            if self.tail is None:
                raise InvalidParamsError("explicit_list exponents need a constant tail")
            if not all(0.0 < v < math.inf for v in self.values + (self.tail,)):
                raise InvalidParamsError("exponents must be positive and finite")
        elif self.kind == EXP_GEOMETRIC_GAP:
            if self.a is None or not 0.0 < self.a < 1.0:
                raise InvalidParamsError("geometric_gap needs a in (0, 1)")

    @classmethod
    def constant_one(cls) -> "ExponentSpec":
        return cls(EXP_CONSTANT_ONE)

    @classmethod
    def explicit_list(cls, values, tail: float) -> "ExponentSpec":
        return cls(EXP_EXPLICIT_LIST, values=tuple(values), tail=float(tail))

    @classmethod
    def geometric_gap(cls, a: float) -> "ExponentSpec":
        return cls(EXP_GEOMETRIC_GAP, a=float(a))

    @classmethod
    def harmonic(cls) -> "ExponentSpec":
        return cls(EXP_HARMONIC)

    def a_at(self, k: int) -> float:
        if k < 1:
            raise InvalidParamsError("exponent index must be >= 1")
        if self.kind == EXP_CONSTANT_ONE:
            return 1.0
        if self.kind == EXP_EXPLICIT_LIST:
            return self.values[k - 1] if k <= len(self.values) else self.tail
        if self.kind == EXP_HARMONIC:
            return 1.0 / k
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
        Every other rule has positive exponents from some k on, or is the
        harmonic a_k = 1/k, whose series diverges already at base 1.
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
      power            p^(a_k) with a finite exponent list, then a constant tail
      power_head       p^a at k = 1 and p afterwards (a >= 1), a_k = a, 1, 1, ...
      power_harmonic   p^(1/k); p_k climbs to 1 but prod p_k = 0, so the
                       limit set has full dimension and measure 0
      power_telescope  p^(a^(k-1) - a^k) with 0 < a < 1; probabilities climb
                       to 1 fast enough that the limit set stays fat
      explicit         a finite prefix plus an optional constant tail

    Each family has one exponent rule and one set of wire fields, both
    fixed by ``_FAMILIES``.  A catalog sequence stores only ``p`` and
    ``exponents``, an explicit one only ``prefix`` and ``tail``, and each
    refuses the other pair, so that a sequence reads back as itself.  A
    catalog sequence built with another rule is refused, and so is a
    power_head list other than (a,) then tail 1, which its one wire field
    ``a`` could not carry.  The construction takes p_k non-decreasing, so
    an explicit or power sequence that decreases somewhere is refused too.
    """

    kind: str
    p: float | None = None
    prefix: tuple[float, ...] = ()
    tail: float | None = None
    exponents: ExponentSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(float(v) for v in self.prefix))
        if self.kind not in _FAMILIES:
            raise InvalidParamsError(f"unknown sequence kind {self.kind!r}")
        rule = _FAMILIES[self.kind][1]
        stores = ("prefix", "tail") if rule is None else ("p", "exponents")
        stray = [f for f in ("p", "prefix", "tail", "exponents")
                 if getattr(self, f) not in (None, ()) and f not in stores]
        if stray:
            raise InvalidParamsError(f"{self.kind} sequence does not store fields {stray}")
        if rule is None:
            if not self.prefix and self.tail is None:
                raise InvalidParamsError("explicit sequence needs a prefix or a tail value")
            for v in self.prefix:
                _check_prob(v, closed_top=True)
            if self.tail is not None:
                _check_prob(self.tail, closed_top=True)
            probe = self.prefix + ((self.tail,) if self.tail is not None else ())
            if any(probe[i] > probe[i + 1] for i in range(len(probe) - 1)):
                raise InvalidParamsError("non-monotone sequence: explicit probabilities decrease somewhere")
            return
        _check_prob(self.p)
        got = self.exponents and self.exponents.kind
        if got != rule:
            raise InvalidParamsError(f"{self.kind} sequence takes {rule} exponents, got {got}")
        if not self.exponents.is_nonincreasing():
            raise InvalidParamsError(
                f"non-monotone sequence: {self.kind} exponents increase somewhere (p_k would decrease)"
            )
        if self.kind == KIND_POWER_HEAD and (len(self.exponents.values), self.exponents.tail) != (1, 1.0):
            raise InvalidParamsError("power_head exponents are one head exponent a >= 1, then tail 1")

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
    def power_harmonic(cls, p: float) -> "ProbSequence":
        return cls(KIND_POWER_HARMONIC, p=float(p), exponents=ExponentSpec.harmonic())

    @classmethod
    def power_telescope(cls, p: float, a: float) -> "ProbSequence":
        return cls(KIND_POWER_TELESCOPE, p=float(p), exponents=ExponentSpec.geometric_gap(a))

    @classmethod
    def explicit(cls, prefix, tail: float | None = None) -> "ProbSequence":
        return cls(KIND_EXPLICIT, prefix=tuple(prefix), tail=tail)

    # -- evaluation ---------------------------------------------------------

    @property
    def limit(self) -> float | None:
        """lim_k p_k: p^c for the catalog, the tail for explicit; None without a tail."""
        if self.kind == KIND_EXPLICIT:
            return self.tail
        return self.p ** self.exponents.cesaro_limit()

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

    def cumulative_log(self, k_hi: int):
        """The numpy array L with L[j] = ln(p_1 ... p_j) for j in [0, k_hi], summed in ascending j."""
        if k_hi < 0:
            raise InvalidParamsError("k_hi must be >= 0")
        np = _import_numpy_without_blas_pool()
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
        """The kind, then each of the family's fields that has a value."""
        es = self.exponents
        if self.kind == KIND_EXPLICIT:
            values = {"prefix": list(self.prefix), "tail": self.tail}
        else:
            a = es.values[0] if self.kind == KIND_POWER_HEAD else es.a
            values = {"p": self.p, "a": a, "prefix": list(es.values), "tail": es.tail}
        d: dict = {"kind": self.kind}
        d.update((key, values[key]) for key in _FAMILIES[self.kind][0] if values[key] is not None)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ProbSequence":
        try:
            raw_kind = str(d["kind"])
        except (KeyError, TypeError) as exc:
            raise InvalidParamsError("sequence object needs a 'kind' field") from exc
        kind = raw_kind.strip().lower()
        if kind not in _FAMILIES:
            raise InvalidParamsError(f"unknown sequence kind {raw_kind!r}")
        reads = _FAMILIES[kind][0]
        unread = [key for key in ("a", "p", "prefix", "tail") if d.get(key) is not None and key not in reads]
        if unread:
            raise InvalidParamsError(f"{kind} sequence does not read fields {unread}")
        if kind == KIND_EXPLICIT:
            return cls.explicit(d.get("prefix") or (), d.get("tail"))
        p = _require(d, "p", kind)
        if kind == KIND_MFP:
            return cls.mfp(p)
        if kind == KIND_POWER_HARMONIC:
            return cls.power_harmonic(p)
        if kind == KIND_POWER_HEAD:
            return cls.power_head(p, _require(d, "a", kind))
        if kind == KIND_POWER_TELESCOPE:
            return cls.power_telescope(p, _require(d, "a", kind))
        return cls.power(p, ExponentSpec.explicit_list(d.get("prefix") or (), _require(d, "tail", kind)))


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
        return WINDOWED if seq.limit is None else ANALYTIC
    if method == ANALYTIC:
        if seq.limit is None:
            raise InvalidParamsError("no closed forms for a prefix without a tail; use windowed")
        return ANALYTIC
    if method == WINDOWED:
        return WINDOWED
    raise InvalidParamsError(f"method must be auto, analytic or windowed, got {method!r}")


def check_window(window) -> tuple[int, int]:
    try:
        k_lo, k_hi = int(window[0]), int(window[1])
    except (TypeError, ValueError, IndexError) as exc:
        raise InvalidParamsError(f"window must be a (k_lo, k_hi) pair, got {window!r}") from exc
    if not 1 <= k_lo < k_hi <= MAX_WINDOW_TOP:
        raise InvalidParamsError(f"window needs 1 <= k_lo < k_hi <= {MAX_WINDOW_TOP}, got {(k_lo, k_hi)}")
    return k_lo, k_hi


def _check_geometry(n: int, m: int):
    if n < 1 or m < 2:
        raise InvalidParamsError(f"need n >= 1 and m >= 2, got n={n}, m={m}")


def _survives(alpha: float, n: int, m: int) -> bool:
    """Positive survival probability: alpha > m^(-n); the boundary is extinction."""
    return alpha > float(m) ** (-n)


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
        measure       prod_k p_k, 0 once its log is below -LOG_UNDERFLOW

    ``analytic`` reads p_inf = :attr:`ProbSequence.limit`, the limit of every
    sequence with a tail: alpha = p_inf, packing_log = ln p_inf, and the
    measure is :func:`_exact_product`.

    ``windowed`` reads one :meth:`ProbSequence.cumulative_log` table through
    k_hi and takes extrema of means of ln p_l over (k_lo, k] for k in
    (k_lo, k_hi], so the head below k_lo never enters:

        alpha         the minimum of the means
        packing_log   the maximum of the means for k in the deeper half of
                      the window: a limsup is a tail property, and the shallow
                      half carries an O(1/(k - k_lo)) transient
        measure       the prefix product at k_hi

    Packing's candidates are a subset of alpha's, so H <= P holds by
    construction.  The means carry O(1/(k - k_lo)) transients, so ``auto``
    takes the limit wherever it exists; the window stays for tail-less
    prefixes and as an explicit, labeled cross-check.
    """

    def __init__(self, seq: ProbSequence, window, method: str):
        self.window = check_window(window)
        self.method = resolve_method(seq, method)
        if self.method == ANALYTIC:
            self.alpha = seq.limit
            self.packing_log = math.log(self.alpha) if self.alpha > 0.0 else -math.inf
            self.measure = _exact_product(seq)[0]
            return
        _require_span(self.window)
        k_lo, k_hi = self.window
        cum = seq.cumulative_log(k_hi)
        np = _import_numpy_without_blas_pool()
        span = k_hi - k_lo
        means = (cum[k_lo + 1 :] - cum[k_lo]) / np.arange(1, span + 1)
        self.alpha = float(np.exp(means.min()))
        self.packing_log = float(means[span // 2 - 1 :].max())
        log_measure = float(cum[k_hi])
        self.measure = 0.0 if log_measure < -LOG_UNDERFLOW else math.exp(log_measure)


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
        log_term = k * log_mn + math.log(-lp)
        if log_term > math.log(LOG_UNDERFLOW):  # diverged, and exp could overflow
            return math.inf
        s += math.exp(log_term)
        if s > LOG_UNDERFLOW:
            break
    return s


def beta_estimate(
    seq: ProbSequence, n: int, m: int, window=DEFAULT_WINDOW, method: str = "auto"
) -> tuple[float, str, bool]:
    """The interior statistic beta = prod p_k^(m^(nk)); (value, method, diverged).

    The closed form is :func:`_exact_product`.  The windowed fallback
    reports the partial product at k_hi and flags divergence once the
    partial sums pass the double-precision underflow threshold.
    """
    return _beta(seq, n, m, check_window(window), resolve_method(seq, method))


def _exact_product(seq: ProbSequence, n: int = 0, m: int = 1) -> tuple[float, bool]:
    """prod_k p_k^(m^(nk)) and whether its log series diverges: beta, or the measure at n = 0.

    Catalog: p^S(m^n), diverged iff S = inf.  Explicit tail t < 1: 0 and
    diverged; t = 1: the prefix product, 0 without diverging if it underflows.
    """
    if seq.kind != KIND_EXPLICIT:
        s = seq.exponents.series(m**n)
        return seq.p**s, math.isinf(s)
    if seq.tail < 1.0:
        return 0.0, True
    s = beta_partial_log_sum(seq, n, m, len(seq.prefix))
    return (0.0 if s > LOG_UNDERFLOW else math.exp(-s)), False


def _beta(seq: ProbSequence, n: int, m: int, window: tuple[int, int], method: str):
    """:func:`beta_estimate` over a checked window by a resolved method."""
    if method == ANALYTIC:
        beta, diverged = _exact_product(seq, n, m)
        return beta, ANALYTIC, diverged
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
    The interior class reads beta's divergence flag, as beta can underflow.
    """
    _check_geometry(n, m)
    limits = _Limits(seq, window, method)
    beta, b_method, diverged = _beta(seq, n, m, limits.window, limits.method)
    return ClassifierReport(
        alpha=limits.alpha,
        beta=beta,
        alpha_method=limits.method,
        beta_method=b_method,
        survival_class=SURVIVAL_POSITIVE if _survives(limits.alpha, n, m) else SURVIVAL_EMPTY,
        interior_class=INTERIOR_EMPTY if diverged else INTERIOR_NONEMPTY,
        beta_diverged=diverged,
    )
