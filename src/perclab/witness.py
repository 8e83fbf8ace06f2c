"""Finite-resolution witnesses for prescribed (dimension, measure) targets.

A witness is a list of percolation components, one per axis-aligned cube
region, whose sequences realize the target analytically.  The target's own
block, chosen by l, sits in [0, b]^n with b = s^(1/n) for the scale s of
l: floor(l) + 1, or the next double above l once floor(l) + 1 rounds back
to l (l >= 2^53), so that s > l always:

  r < n, l = 0      one head-weighted family at p = m^(r - n), b = 1
  r = n, l = 0      one harmonic family p_k = p^(1/k): p_k -> 1 but
                    prod p_k = 0, b = 1
  l > 0             one telescoping family at p = l/s, scaled into [0, b]^n

and a measure-0 low-dimension block sits beside it in the translated cube
[b, 2b]^n.  build_witness is the one entry point.  WitnessReport derives the
combined values by two exact rules: dimension of a finite union is the max
over components, and expected measure adds over regions with pairwise
disjoint interiors.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

from .errors import InternalInvariantError, InvalidParamsError
from .probseq import ProbSequence

# the families' shape parameters (a, and the harmonic base p): the predictions
# do not depend on them, so each value gives a distinct law with the same
# dimension and measure
_HEAD_EXPONENT = 1.0
_TELESCOPE_GAP = 0.5
_HARMONIC_BASE = 0.5


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
        """Whether the interiors meet; cubes that only share a face do not."""
        if self.n != other.n:
            raise InvalidParamsError("boxes live in different dimensions")
        return all(a < b + other.side and b < a + self.side for a, b in zip(self.lo, other.lo))

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
    """Target (dimension r, expected measure l) in n dimensions, subdivision m."""

    r: float
    l: float
    n: int
    m: int

    def __post_init__(self):
        if not 0.0 < self.r < math.inf:
            raise InvalidParamsError("target dimension r must be positive and finite")
        if not 0.0 <= self.l < math.inf:
            raise InvalidParamsError("target measure l must be >= 0 and finite")
        if self.l == sys.float_info.max:  # no double above l can scale its block
            raise InvalidParamsError(f"target measure l must be below {sys.float_info.max!r}")
        if self.n < math.ceil(self.r):
            raise InvalidParamsError(
                f"ambient dimension n={self.n} must be >= ceil(r)={math.ceil(self.r)}"
            )
        if self.m < 2:
            raise InvalidParamsError("subdivision index m must be >= 2")


@dataclass(frozen=True)
class WitnessReport:
    """Components plus the combined dimension/measure ledger.

    Construction checks that the component regions have pairwise disjoint
    interiors, which is what lets the measure rule add over them.
    """

    n: int
    m: int
    components: tuple[WitnessComponent, ...]
    target_dim: float
    target_measure: float

    def __post_init__(self):
        # the measure rule adds over regions, so an overlap is a construction
        # bug, not bad input
        for (i, a), (j, b) in itertools.combinations(enumerate(self.components), 2):
            if a.region.overlaps_interior(b.region):
                raise InternalInvariantError(
                    f"witness regions {i} and {j} overlap: {a.region} vs {b.region}"
                )

    @property
    def combined_dim(self) -> float:
        """Dimension of a finite union: the max over its components."""
        return max(c.predicted_dim for c in self.components)

    @property
    def combined_measure(self) -> float:
        """Expected measure over disjoint regions: the sum, in component order."""
        total = 0.0
        for c in self.components:
            total += c.predicted_measure
        return total

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "components": [c.to_dict() for c in self.components],
            "combined_dim": self.combined_dim,
            "combined_measure": self.combined_measure,
            "target_dim": self.target_dim,
            "target_measure": self.target_measure,
        }


def _head_component(dim_target: float, n: int, m: int, region: Box, label: str) -> WitnessComponent:
    """Measure-0 block of exact dimension dim_target in (0, n), via p = m^(dim - n)."""
    p = float(m) ** (dim_target - n)
    seq = ProbSequence.power_head(p, _HEAD_EXPONENT)
    return WitnessComponent(region, seq, predicted_dim=dim_target, predicted_measure=0.0, label=label)


def _zero_measure(spec: WitnessSpec) -> tuple[WitnessComponent, ...]:
    """Dimension r <= n, measure 0, in the unit cube.

    r < n: a head block at p = m^(r - n).  r = n: the harmonic p_k = p^(1/k),
    whose Cesaro limit 0 gives p_inf = 1 and dimension n, and whose
    harmonic series sum_k 1/k diverges, so prod p_k = 0 and the measure is 0.
    """
    unit = Box((0.0,) * spec.n, 1.0)
    if spec.r < spec.n:
        return (_head_component(spec.r, spec.n, spec.m, unit, "dim_carrier"),)
    seq = ProbSequence.power_harmonic(_HARMONIC_BASE)
    return (WitnessComponent(unit, seq, predicted_dim=float(spec.n), predicted_measure=0.0, label="dim_carrier"),)


def _positive(spec: WitnessSpec, scale: float, b: float) -> tuple[WitnessComponent, ...]:
    """Measure l > 0 at dimension n: a telescope at p = l / scale < 1.

    Its unit-cube measure p scales to l in the cube [0, b]^n, b^n = scale.
    """
    l, n = spec.l, spec.n
    p = l / scale
    # relative: b^n * p rounds to within a few ulps of l, at any scale of l
    if abs(b**n * p - l) > 1e-12 * l:
        raise InternalInvariantError(f"measure scaling drifted: {b**n * p!r} != {l!r}")
    seq = ProbSequence.power_telescope(p, _TELESCOPE_GAP)
    comp = WitnessComponent(
        Box((0.0,) * n, b), seq, predicted_dim=float(n), predicted_measure=l, label="measure_carrier"
    )
    return (comp,)


def build_witness(spec: WitnessSpec) -> WitnessReport:
    """The target's own block in [0, b]^n beside a low block in [b, 2b]^n.

    The own block has dimension r if l = 0 and n otherwise, and measure l;
    b^n is the scale of l.  The low block has measure 0 and dimension r/2,
    so it never wins the max rule.
    """
    r, l, n = spec.r, spec.l, spec.n
    scale = max(math.floor(l) + 1.0, math.nextafter(l, math.inf))  # > l, also past 2^53
    b = scale ** (1.0 / n)
    own = _positive(spec, scale, b) if l > 0.0 else _zero_measure(spec)
    low = _head_component(r / 2.0, n, spec.m, Box((b,) * n, b), "low_dim_block")
    target_dim = float(r) if l == 0 else float(n)
    return WitnessReport(n, spec.m, own + (low,), target_dim, float(l))


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
    return "\n".join(lines)
