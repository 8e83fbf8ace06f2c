"""Finite-resolution witnesses for prescribed (dimension, measure) targets.

Each witness is a list of percolation components, one per axis-aligned cube
region, whose sequences realize the target analytically:

  fractional target r, measure 0   one head-weighted family at p = m^(r - n)
  integer target r, measure 0      a union of fractional witnesses at
                                   dimensions r - 2^-k, truncated at J terms
                                   (dimension sup approached, gap 2^-J)
  measure target l > 0             one telescoping family at p = l/(floor(l)+1),
                                   scaled into [0, b]^n, b = (floor(l)+1)^(1/n)
  union                            a measure-0 low-dimension block in the
                                   translated cube [b, 2b]^n next to the
                                   case-appropriate block in [0, b]^n

Combined values follow two exact rules: dimension of a finite union is the
max over components, and expected measure adds over regions with pairwise
disjoint interiors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InternalInvariantError, InvalidParamsError
from .probseq import ProbSequence

CASE_FRACTIONAL = "fractional_dim_zero_measure"
CASE_INTEGER = "integer_dim_zero_measure"
CASE_POSITIVE = "positive_measure"
CASE_UNION = "dim_measure_union"

_CASE_ALIASES = {
    "fractional": CASE_FRACTIONAL,
    CASE_FRACTIONAL: CASE_FRACTIONAL,
    "integer": CASE_INTEGER,
    CASE_INTEGER: CASE_INTEGER,
    "positive": CASE_POSITIVE,
    CASE_POSITIVE: CASE_POSITIVE,
    "union": CASE_UNION,
    CASE_UNION: CASE_UNION,
}


@dataclass(frozen=True)
class Box:
    """Axis-aligned cube: corner ``lo`` and positive side length."""

    lo: tuple[float, ...]
    side: float

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(x) for x in self.lo))
        if self.side <= 0.0:
            raise InvalidParamsError("box side must be positive")

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return self.side**self.n

    def overlaps_interior(self, other: "Box") -> bool:
        """Whether the interiors meet in more than floating-point rounding.

        Cubes placed side by side can overlap by an ulp (with side 1/9, the
        sixth slot's lo + side rounds past the seventh's lo); that sliver is
        no overlap.
        """
        if self.n != other.n:
            raise InvalidParamsError("boxes live in different dimensions")
        slack = 1e-12 * max(self.side, other.side)
        return all(
            a + slack < b + other.side and b + slack < a + self.side
            for a, b in zip(self.lo, other.lo)
        )

    def to_dict(self) -> dict:
        return {"lo": list(self.lo), "side": self.side}


@dataclass(frozen=True)
class WitnessComponent:
    """One percolation block: region, sequence, and its analytic predictions."""

    region: Box
    seq: ProbSequence
    predicted_dim: float
    predicted_measure: float
    label: str

    def to_dict(self) -> dict:
        return {
            "region": self.region.to_dict(),
            "seq": self.seq.to_dict(),
            "predicted_dim": self.predicted_dim,
            "predicted_measure": self.predicted_measure,
            "label": self.label,
        }


@dataclass(frozen=True)
class WitnessSpec:
    """Target (dimension r, expected measure l) plus build knobs.

    ``terms`` truncates the union for integer targets.
    """

    r: float
    l: float
    n: int
    m: int
    case: str = CASE_UNION
    terms: int = 8

    def __post_init__(self):
        case = _CASE_ALIASES.get(str(self.case).strip().lower())
        if case is None:
            raise InvalidParamsError(f"unknown witness case {self.case!r}")
        object.__setattr__(self, "case", case)
        if self.r <= 0.0:
            raise InvalidParamsError("target dimension r must be positive")
        if self.l < 0.0:
            raise InvalidParamsError("target measure l must be >= 0")
        if self.n < math.ceil(self.r):
            raise InvalidParamsError(
                f"ambient dimension n={self.n} must be >= ceil(r)={math.ceil(self.r)}"
            )
        if self.m < 2:
            raise InvalidParamsError("subdivision index m must be >= 2")
        if self.case == CASE_POSITIVE and self.l <= 0.0:
            raise InvalidParamsError("positive_measure case needs l > 0")


@dataclass(frozen=True)
class WitnessReport:
    """Components plus the combined dimension/measure ledger.

    Construction checks that the component regions have pairwise disjoint
    interiors.
    """

    n: int
    m: int
    components: tuple[WitnessComponent, ...]
    combined_dim: float
    combined_measure: float
    target_dim: float
    target_measure: float
    truncation_gap: float = 0.0

    def __post_init__(self):
        # the measure rule adds over regions, so an overlap is a construction
        # bug, not bad input
        for (i, a), (j, b) in itertools.combinations(enumerate(self.components), 2):
            if a.region.overlaps_interior(b.region):
                raise InternalInvariantError(
                    f"witness regions {i} and {j} overlap: {a.region} vs {b.region}"
                )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "components": [c.to_dict() for c in self.components],
            "combined_dim": self.combined_dim,
            "combined_measure": self.combined_measure,
            "target_dim": self.target_dim,
            "target_measure": self.target_measure,
            "truncation_gap": self.truncation_gap,
        }


_UNIT = lambda n: Box((0.0,) * n, 1.0)  # noqa: E731


def _head_component(dim_target: float, n: int, m: int, region: Box, a: float, label: str) -> WitnessComponent:
    """Measure-0 block of exact dimension dim_target in (0, n), via p = m^(dim - n)."""
    if not 0.0 < dim_target < n:
        raise InvalidParamsError(f"head component needs 0 < dim < n, got {dim_target}")
    p = float(m) ** (dim_target - n)
    seq = ProbSequence.power_head(p, a)
    return WitnessComponent(region, seq, predicted_dim=dim_target, predicted_measure=0.0, label=label)


def build_fractional_dim_witness(r: float, n: int, m: int, a: float = 1.0) -> WitnessReport:
    """Dimension r (non-integer), expected measure 0, inside the unit cube.

    p = m^(r - n) puts the dimension at exactly r; the free head exponent a
    indexes a continuum of distinct sequences with identical predictions.
    """
    if r <= 0.0 or r == math.floor(r):
        raise InvalidParamsError(
            f"fractional witness needs a non-integer r > 0 (got {r}); "
            "integer targets use the union-of-approximants build"
        )
    if n < math.ceil(r):
        raise InvalidParamsError(f"need n >= ceil(r), got n={n}, r={r}")
    comp = _head_component(r, n, m, _UNIT(n), a, "dim_carrier")
    return WitnessReport(
        n=n,
        m=m,
        components=(comp,),
        combined_dim=r,
        combined_measure=0.0,
        target_dim=r,
        target_measure=0.0,
    )


def build_integer_dim_witness(r: int, n: int, m: int, terms: int = 8, a: float = 1.0) -> WitnessReport:
    """Integer dimension r, measure 0: J fractional blocks at dims r - 2^-k.

    The blocks sit in disjoint translated cubes of side 1/J inside the unit
    cube.  Their dimension sup is r; the J-term truncation reaches exactly
    r - 2^-J, reported as combined_dim with the gap alongside.
    """
    if r <= 0 or float(r) != math.floor(r):
        raise InvalidParamsError(f"integer witness needs a positive integer r, got {r}")
    r = int(r)
    if n < r:
        raise InvalidParamsError(f"need n >= r, got n={n}, r={r}")
    if terms < 2:
        raise InvalidParamsError(f"need at least 2 union terms, got {terms}")
    if r - 2.0**-terms == r:
        raise InvalidParamsError(
            f"terms={terms} is too many for r={r}: r - 2^-terms rounds to r in double precision"
        )
    side = 1.0 / terms
    comps = []
    for k in range(1, terms + 1):
        lo = ((k - 1) * side,) + (0.0,) * (n - 1)
        comps.append(
            _head_component(r - 2.0**-k, n, m, Box(lo, side), a, f"approximant_{k}")
        )
    return WitnessReport(
        n=n,
        m=m,
        components=tuple(comps),
        combined_dim=r - 2.0**-terms,
        combined_measure=0.0,
        target_dim=float(r),
        target_measure=0.0,
        truncation_gap=2.0**-terms,
    )


def build_positive_measure_witness(l: float, n: int, m: int, a: float = 0.5) -> WitnessReport:
    """Expected measure exactly l > 0 at full dimension n.

    A telescoping family at p = l / (floor(l) + 1) has expected unit-cube
    measure p; scaling the cube to side b = (floor(l) + 1)^(1/n) multiplies
    it by b^n, landing exactly on l.
    """
    if l <= 0.0:
        raise InvalidParamsError(f"positive-measure witness needs l > 0, got {l}")
    scale = math.floor(l) + 1.0
    p = l / scale
    b = scale ** (1.0 / n)
    seq = ProbSequence.power_telescope(p, a)
    if abs(b**n * p - l) > 1e-9:
        raise InternalInvariantError(f"measure scaling drifted: {b**n * p!r} != {l!r}")
    comp = WitnessComponent(
        Box((0.0,) * n, b), seq, predicted_dim=float(n), predicted_measure=l, label="measure_carrier"
    )
    return WitnessReport(
        n=n,
        m=m,
        components=(comp,),
        combined_dim=float(n),
        combined_measure=l,
        target_dim=float(n),
        target_measure=l,
    )


def build_union_witness(spec: WitnessSpec) -> WitnessReport:
    """The two-block union: dimension r if l = 0 else n, expected measure l.

    Block G2 in [0, b]^n carries the target (b = (floor(l)+1)^(1/n)); block
    G1 in the translated cube [b, 2b]^n is a measure-0 head component at
    dimension r/2, which never wins the max rule.  Disjoint regions make the
    combined measure exactly l.
    """
    r, l, n, m = spec.r, spec.l, spec.n, spec.m
    b = (math.floor(l) + 1.0) ** (1.0 / n)
    if l == 0.0:
        if r == math.floor(r):
            g2 = build_integer_dim_witness(int(r), n, m, terms=spec.terms)
        else:
            g2 = build_fractional_dim_witness(r, n, m)
    else:
        g2 = build_positive_measure_witness(l, n, m)
    g1 = _head_component(r / 2.0, n, m, Box((b,) * n, b), a=1.0, label="low_dim_block")
    comps = g2.components + (g1,)
    combined_dim = max(c.predicted_dim for c in comps)
    combined_measure = 0.0
    for c in comps:
        combined_measure += c.predicted_measure
    return WitnessReport(
        n=n,
        m=m,
        components=comps,
        combined_dim=combined_dim,
        combined_measure=combined_measure,
        target_dim=r if l == 0.0 else float(n),
        target_measure=l,
        truncation_gap=g2.truncation_gap,
    )


def build_witness(spec: WitnessSpec) -> WitnessReport:
    """Dispatch a WitnessSpec to its case builder."""
    if spec.case == CASE_FRACTIONAL:
        return build_fractional_dim_witness(spec.r, spec.n, spec.m)
    if spec.case == CASE_INTEGER:
        return build_integer_dim_witness(spec.r, spec.n, spec.m, terms=spec.terms)
    if spec.case == CASE_POSITIVE:
        return build_positive_measure_witness(spec.l, spec.n, spec.m)
    return build_union_witness(spec)


# ---------------------------------------------------------------------------
# presentation


def format_witness_ledger(report: WitnessReport) -> str:
    """Human-readable table of components and the combined-value rules."""
    header = f"{'component':<16} {'region':<28} {'family':<17} {'dim':>12} {'measure':>12}"
    lines = [header, "-" * len(header)]
    for c in report.components:
        lo = ",".join(f"{x:g}" for x in c.region.lo)
        region = f"[({lo}) side {c.region.side:g}]"
        lines.append(
            f"{c.label:<16} {region:<28} {c.seq.kind:<17} "
            f"{c.predicted_dim:>12.8f} {c.predicted_measure:>12.8f}"
        )
    lines.append("-" * len(header))
    lines.append(f"combined dimension (rule: max over components)      = {report.combined_dim:.10g}")
    lines.append(f"combined measure   (rule: sum over disjoint regions) = {report.combined_measure:.10g}")
    lines.append(f"target dimension = {report.target_dim:.10g}, target measure = {report.target_measure:.10g}")
    if report.truncation_gap:
        lines.append(
            f"union truncated: combined dimension sits {report.truncation_gap:.3g} below its supremum"
        )
    return "\n".join(lines)
