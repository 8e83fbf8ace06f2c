"""Witness constructions: exact targets, disjoint placement, a Monte Carlo cross-check."""

import dataclasses
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclab import (
    Box,
    InternalInvariantError,
    InvalidParamsError,
    PercolationParams,
    ProbSequence,
    WitnessComponent,
    WitnessReport,
    WitnessSpec,
    build_witness,
    estimate_measure,
    format_witness_ledger,
    full_report,
)


# -- fractional targets ------------------------------------------------------------


def test_fractional_half_line():
    rep = build_witness(WitnessSpec(r=0.5, l=0.0, n=1, m=2))
    assert rep.combined_dim == 0.5
    assert rep.combined_measure == 0.0
    comp = rep.components[0]
    assert [c.label for c in rep.components] == ["dim_carrier", "low_dim_block"]
    assert comp.seq.p == pytest.approx(2.0**-0.5, rel=1e-15)


def test_fractional_plane():
    rep = build_witness(WitnessSpec(r=1.5, l=0.0, n=2, m=3))
    comp = rep.components[0]
    assert comp.seq.p == pytest.approx(3.0**-0.5, rel=1e-15)
    assert rep.combined_dim == 1.5


def test_fractional_needs_room():
    with pytest.raises(InvalidParamsError):
        build_witness(WitnessSpec(r=1.5, l=0.0, n=1, m=2))


# -- integer targets ------------------------------------------------------------------


def test_integer_below_n_is_one_head_block():
    rep = build_witness(WitnessSpec(r=1.0, l=0.0, n=2, m=2))
    comp = rep.components[0]
    assert comp.label == "dim_carrier"
    assert comp.seq.kind == "power_head"
    assert comp.seq.p == 0.5
    assert rep.combined_dim == rep.target_dim == 1.0
    assert rep.combined_measure == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_at_n_is_one_harmonic_block(n):
    rep = build_witness(WitnessSpec(r=float(n), l=0.0, n=n, m=2))
    comp = rep.components[0]
    assert comp.seq.kind == "power_harmonic"
    assert comp.region == Box((0.0,) * n, 1.0)
    assert rep.combined_dim == rep.target_dim == n
    assert rep.combined_measure == 0.0


def test_integer_union_regions_disjoint():
    rep = build_witness(WitnessSpec(r=2.0, l=0.0, n=2, m=3))
    boxes = [c.region for c in rep.components]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert not boxes[i].overlaps_interior(boxes[j])


# -- positive measure -----------------------------------------------------------------


def test_positive_measure_line():
    rep = build_witness(WitnessSpec(r=1.0, l=1.5, n=1, m=2))
    comp, low = rep.components
    assert (comp.label, low.label) == ("measure_carrier", "low_dim_block")
    assert comp.seq.p == 0.75
    assert comp.region.side == 2.0
    assert rep.combined_measure == 1.5
    assert rep.combined_dim == 1.0


def test_positive_measure_small_plane():
    rep = build_witness(WitnessSpec(r=2.0, l=0.25, n=2, m=2))
    comp = rep.components[0]
    assert comp.seq.p == 0.25
    assert comp.region.side == 1.0
    assert rep.combined_measure == 0.25
    assert rep.combined_dim == 2.0


# -- union construction ----------------------------------------------------------------


def test_union_fractional_target():
    rep = build_witness(WitnessSpec(r=0.5, l=0.0, n=1, m=2))
    assert rep.combined_dim == 0.5
    assert rep.combined_measure == 0.0
    labels = [c.label for c in rep.components]
    assert "low_dim_block" in labels
    low = next(c for c in rep.components if c.label == "low_dim_block")
    assert low.predicted_dim == 0.25
    assert low.region.lo == (1.0,)


def test_union_positive_measure_target():
    rep = build_witness(WitnessSpec(r=1.0, l=2.5, n=1, m=2))
    assert rep.combined_dim == 1.0  # positive measure forces full dimension
    assert rep.combined_measure == 2.5
    carrier = next(c for c in rep.components if c.label == "measure_carrier")
    assert carrier.region.side == 3.0
    low = next(c for c in rep.components if c.label == "low_dim_block")
    assert low.region.lo == (3.0,)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_union_integer_target_is_exact(n):
    rep = build_witness(WitnessSpec(r=float(n), l=0.0, n=n, m=3))
    assert rep.combined_dim == n
    assert rep.combined_measure == 0.0
    carrier = next(c for c in rep.components if c.label == "dim_carrier")
    assert carrier.seq.kind == "power_harmonic"
    # low-dimension block at r/2 works whether or not r/2 is an integer
    low = next(c for c in rep.components if c.label == "low_dim_block")
    assert low.predicted_dim == n / 2
    assert low.region.lo == (1.0,) * n


def test_union_square_with_measure():
    rep = build_witness(WitnessSpec(r=2.0, l=2.5, n=2, m=2))
    assert rep.combined_dim == 2.0
    assert rep.combined_measure == 2.5
    carrier = next(c for c in rep.components if c.label == "measure_carrier")
    assert carrier.region.side == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_spec_validation():
    with pytest.raises(InvalidParamsError):
        WitnessSpec(r=1.5, l=0.0, n=1, m=2)  # n < ceil(r)
    with pytest.raises(InvalidParamsError):
        WitnessSpec(r=0.0, l=0.0, n=1, m=2)
    with pytest.raises(InvalidParamsError):
        WitnessSpec(r=1.0, l=-1.0, n=1, m=2)


@pytest.mark.parametrize("l", [2.0**52, 2.0**53, 2.0**53 + 2, 1e16, 1e300, math.nextafter(sys.float_info.max, 0)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_measure_carrier_past_2_53_keeps_p_below_one(l, n):
    # floor(l) + 1 rounds back to l from 2^53 on: the block's scale is then
    # the next double above l, and the low block sits beside the same b
    rep = build_witness(WitnessSpec(r=1.0, l=l, n=n, m=2))
    carrier, low = rep.components
    assert 0.0 < carrier.seq.p < 1.0
    assert rep.combined_measure == l
    assert low.region.lo == (carrier.region.side,) * n and low.region.side == carrier.region.side


def test_spec_refuses_the_largest_double():
    with pytest.raises(InvalidParamsError, match=re.escape(f"must be below {sys.float_info.max!r}")):
        WitnessSpec(r=1.0, l=sys.float_info.max, n=2, m=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_spec_refuses_non_finite_targets(bad):
    with pytest.raises(InvalidParamsError, match="finite"):
        WitnessSpec(r=bad, l=0.0, n=2, m=2)
    with pytest.raises(InvalidParamsError, match="finite"):
        WitnessSpec(r=1.0, l=bad, n=2, m=2)


def test_spec_fields_are_the_theorems_inputs():
    assert [f.name for f in dataclasses.fields(WitnessSpec)] == ["r", "l", "n", "m"]


def test_build_witness_dispatch():
    # l picks the target's own block; the low block always follows it
    def labels(spec):
        return [c.label for c in build_witness(spec).components]

    assert build_witness(WitnessSpec(r=0.5, l=0, n=1, m=2)).combined_dim == 0.5
    assert build_witness(WitnessSpec(r=1, l=0, n=1, m=2)).combined_dim == 1.0
    assert build_witness(WitnessSpec(r=1, l=1.5, n=1, m=2)).combined_measure == 1.5
    assert labels(WitnessSpec(r=1, l=0, n=1, m=2)) == ["dim_carrier", "low_dim_block"]
    assert labels(WitnessSpec(r=1, l=1.5, n=1, m=2)) == ["measure_carrier", "low_dim_block"]


# -- agreement with the dimension module -------------------------------------------------


@pytest.mark.parametrize(
    "report,n,m",
    [
        (build_witness(WitnessSpec(r=0.5, l=0.0, n=1, m=2)), 1, 2),
        (build_witness(WitnessSpec(r=1.0, l=0.0, n=1, m=2)), 1, 2),
        (build_witness(WitnessSpec(r=1.0, l=1.5, n=1, m=2)), 1, 2),
        (build_witness(WitnessSpec(r=2.0, l=2.5, n=2, m=2)), 2, 2),
        (build_witness(WitnessSpec(r=1.0, l=0.0, n=2, m=3)), 2, 3),
        (build_witness(WitnessSpec(r=3.0, l=0.0, n=3, m=2)), 3, 2),
    ],
)
def test_components_agree_with_dimension_reports(report, n, m):
    for comp in report.components:
        rep = full_report(comp.seq, n, m)
        assert abs(rep.hausdorff - comp.predicted_dim) < 1e-9
        assert abs(rep.expected_measure * comp.region.volume - comp.predicted_measure) < 1e-9


def test_combined_rules_exact():
    rep = build_witness(WitnessSpec(r=1.0, l=1.5, n=1, m=2))
    assert rep.combined_dim == max(c.predicted_dim for c in rep.components)
    assert rep.combined_measure == sum(c.predicted_measure for c in rep.components)


@st.composite
def witness_specs(draw):
    n = draw(st.integers(1, 3))
    r = draw(st.one_of(st.integers(1, n).map(float), st.floats(0.01, float(n))))
    l = draw(st.one_of(st.just(0.0), st.floats(0.01, 1e300)))
    return WitnessSpec(r=r, l=l, n=n, m=draw(st.integers(2, 7)))


@settings(max_examples=200, deadline=None)
@given(witness_specs())
def test_ledger_meets_the_theorems_target(spec):
    # dimension r if l = 0 and n otherwise, expected measure l, met exactly
    rep = build_witness(spec)
    assert rep.target_dim == (spec.r if spec.l == 0 else spec.n)
    assert rep.target_measure == spec.l
    assert rep.combined_dim == rep.target_dim
    assert rep.combined_measure == rep.target_measure
    assert rep.combined_dim == max(c.predicted_dim for c in rep.components)
    assert rep.combined_measure == sum(c.predicted_measure for c in rep.components)


# -- region checks and sampling ---------------------------------------------------------


def test_report_rejects_overlapping_regions():
    seq = ProbSequence.mfp(0.9)
    a = WitnessComponent(Box((0.0,), 1.0), seq, 0.5, 0.0, "a")
    b = WitnessComponent(Box((0.5,), 1.0), seq, 0.5, 0.0, "b")
    with pytest.raises(InternalInvariantError):
        WitnessReport(1, 2, (a, b), 0.5, 0.0)


def test_boxes_that_share_a_face_do_not_overlap():
    unit = Box((0.0, 0.0), 1.0)
    assert not unit.overlaps_interior(Box((1.0, 0.0), 1.0))
    assert not unit.overlaps_interior(Box((1.0, 1.0), 1.0))
    # no rounding slack: an overlap of one ulp is an overlap
    assert unit.overlaps_interior(Box((1.0 - 2.0**-53, 0.5), 1.0))


def test_monte_carlo_cross_check_positive_measure():
    # scaled estimate must reproduce l times the finite-depth deficit
    rep = build_witness(WitnessSpec(r=1.0, l=1.5, n=1, m=2))
    comp = rep.components[0]
    params = PercolationParams(1, 2, 12, comp.seq, seed=55)
    est = estimate_measure(params, 1000)
    assert abs(est.z_score) < 4
    scaled_theory = comp.region.volume * est.theory
    assert scaled_theory == pytest.approx(2.0 * 0.75 ** (1 - 2.0**-12), rel=1e-12)
    assert abs(comp.region.volume * est.estimate - scaled_theory) < 4 * comp.region.volume * est.std_error


# -- ledger -------------------------------------------------------------------------------


def test_ledger_mentions_rules_and_components():
    text = format_witness_ledger(build_witness(WitnessSpec(r=1.0, l=1.5, n=1, m=2)))
    assert "max over components" in text
    assert "sum over disjoint regions" in text
    assert "measure_carrier" in text
    assert "low_dim_block" in text
    assert "1.5" in text
