"""Witness constructions: exact targets, disjoint placement, a Monte Carlo cross-check."""

import math

import pytest

from perclab import (
    Box,
    InternalInvariantError,
    InvalidParamsError,
    PercolationParams,
    ProbSequence,
    WitnessComponent,
    WitnessReport,
    WitnessSpec,
    build_fractional_dim_witness,
    build_integer_dim_witness,
    build_positive_measure_witness,
    build_union_witness,
    build_witness,
    estimate_measure,
    format_witness_ledger,
    full_report,
)


# -- fractional case ---------------------------------------------------------------


def test_fractional_half_line():
    rep = build_fractional_dim_witness(0.5, 1, 2)
    assert rep.combined_dim == 0.5
    assert rep.combined_measure == 0.0
    (comp,) = rep.components
    assert comp.seq.p == pytest.approx(2.0**-0.5, rel=1e-15)


def test_fractional_plane():
    rep = build_fractional_dim_witness(1.5, 2, 3)
    (comp,) = rep.components
    assert comp.seq.p == pytest.approx(3.0**-0.5, rel=1e-15)
    assert rep.combined_dim == 1.5


def test_fractional_rejects_integer():
    with pytest.raises(InvalidParamsError):
        build_fractional_dim_witness(2.0, 2, 2)


def test_fractional_needs_room():
    with pytest.raises(InvalidParamsError):
        build_fractional_dim_witness(1.5, 1, 2)


# -- integer (union of approximants) -------------------------------------------------


def test_integer_union_dims_ladder():
    rep = build_integer_dim_witness(1, 1, 2, terms=8)
    dims = [c.predicted_dim for c in rep.components]
    assert dims == [1 - 2.0**-k for k in range(1, 9)]
    assert rep.combined_dim == 1 - 2.0**-8
    assert rep.truncation_gap == 2.0**-8
    assert rep.target_dim == 1.0
    assert rep.combined_measure == 0.0


def test_integer_union_two_terms():
    rep = build_integer_dim_witness(1, 1, 2, terms=2)
    assert rep.combined_dim == 0.75


def test_integer_rejects_fractional_and_bad_terms():
    with pytest.raises(InvalidParamsError):
        build_integer_dim_witness(1.5, 2, 2)
    with pytest.raises(InvalidParamsError):
        build_integer_dim_witness(1, 1, 2, terms=1)


@pytest.mark.parametrize("terms", [54, 60])
def test_integer_rejects_terms_past_double_precision(terms):
    # 1 - 2^-54 rounds to 1, so the last approximant would sit at the target itself
    with pytest.raises(InvalidParamsError, match=f"terms={terms}"):
        build_integer_dim_witness(1, 1, 2, terms=terms)


def test_integer_accepts_terms_up_to_double_precision():
    rep = build_integer_dim_witness(1, 1, 2, terms=53)
    assert len(rep.components) == 53
    assert rep.combined_dim == 1 - 2.0**-53 < 1.0


def test_integer_union_regions_disjoint():
    rep = build_integer_dim_witness(2, 2, 3, terms=4)
    boxes = [c.region for c in rep.components]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            assert not boxes[i].overlaps_interior(boxes[j])


# -- positive measure -----------------------------------------------------------------


def test_positive_measure_line():
    rep = build_positive_measure_witness(1.5, 1, 2)
    (comp,) = rep.components
    assert comp.seq.p == 0.75
    assert comp.region.side == 2.0
    assert rep.combined_measure == 1.5
    assert rep.combined_dim == 1.0


def test_positive_measure_small_plane():
    rep = build_positive_measure_witness(0.25, 2, 2)
    (comp,) = rep.components
    assert comp.seq.p == 0.25
    assert comp.region.side == 1.0
    assert rep.combined_measure == 0.25
    assert rep.combined_dim == 2.0


def test_positive_measure_rejects_zero():
    with pytest.raises(InvalidParamsError):
        build_positive_measure_witness(0.0, 1, 2)


# -- union construction ----------------------------------------------------------------


def test_union_fractional_target():
    rep = build_union_witness(WitnessSpec(r=0.5, l=0.0, n=1, m=2))
    assert rep.combined_dim == 0.5
    assert rep.combined_measure == 0.0
    labels = [c.label for c in rep.components]
    assert "low_dim_block" in labels
    low = next(c for c in rep.components if c.label == "low_dim_block")
    assert low.predicted_dim == 0.25
    assert low.region.lo == (1.0,)


def test_union_positive_measure_target():
    rep = build_union_witness(WitnessSpec(r=1.0, l=2.5, n=1, m=2))
    assert rep.combined_dim == 1.0  # positive measure forces full dimension
    assert rep.combined_measure == 2.5
    carrier = next(c for c in rep.components if c.label == "measure_carrier")
    assert carrier.region.side == 3.0
    low = next(c for c in rep.components if c.label == "low_dim_block")
    assert low.region.lo == (3.0,)


def test_union_integer_target_truncates():
    rep = build_union_witness(WitnessSpec(r=2.0, l=0.0, n=2, m=3, terms=6))
    assert rep.combined_dim == 2 - 2.0**-6
    assert rep.truncation_gap == 2.0**-6
    assert rep.combined_measure == 0.0
    # low-dimension block at r/2 = 1 works even though 1 is an integer
    low = next(c for c in rep.components if c.label == "low_dim_block")
    assert low.predicted_dim == 1.0


def test_union_square_with_measure():
    rep = build_union_witness(WitnessSpec(r=2.0, l=2.5, n=2, m=2))
    assert rep.combined_dim == 2.0
    assert rep.combined_measure == 2.5
    carrier = next(c for c in rep.components if c.label == "measure_carrier")
    assert carrier.region.side == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_spec_validation():
    with pytest.raises(InvalidParamsError):
        WitnessSpec(r=1.5, l=0.0, n=1, m=2)  # n < ceil(r)
    with pytest.raises(InvalidParamsError):
        WitnessSpec(r=1.0, l=0.0, n=1, m=2, case="positive")
    with pytest.raises(InvalidParamsError):
        WitnessSpec(r=0.0, l=0.0, n=1, m=2)
    with pytest.raises(InvalidParamsError):
        WitnessSpec(r=1.0, l=-1.0, n=1, m=2)
    with pytest.raises(InvalidParamsError):
        WitnessSpec(r=1.0, l=0.0, n=1, m=2, case="nope")


def test_build_witness_dispatch():
    assert build_witness(WitnessSpec(r=0.5, l=0, n=1, m=2, case="fractional")).combined_dim == 0.5
    assert build_witness(WitnessSpec(r=1, l=0, n=1, m=2, case="integer", terms=2)).combined_dim == 0.75
    assert build_witness(WitnessSpec(r=1, l=1.5, n=1, m=2, case="positive")).combined_measure == 1.5
    assert build_witness(WitnessSpec(r=1, l=1.5, n=1, m=2)).combined_measure == 1.5


# -- agreement with the dimension module -------------------------------------------------


@pytest.mark.parametrize(
    "report,n,m",
    [
        (build_fractional_dim_witness(0.5, 1, 2), 1, 2),
        (build_integer_dim_witness(1, 1, 2, terms=4), 1, 2),
        (build_positive_measure_witness(1.5, 1, 2), 1, 2),
        (build_union_witness(WitnessSpec(r=2.0, l=2.5, n=2, m=2)), 2, 2),
    ],
)
def test_components_agree_with_dimension_reports(report, n, m):
    for comp in report.components:
        rep = full_report(comp.seq, n, m)
        assert abs(rep.hausdorff - comp.predicted_dim) < 1e-9
        assert abs(rep.expected_measure * comp.region.volume - comp.predicted_measure) < 1e-9


def test_combined_rules_exact():
    rep = build_union_witness(WitnessSpec(r=1.0, l=1.5, n=1, m=2))
    assert rep.combined_dim == max(c.predicted_dim for c in rep.components)
    assert rep.combined_measure == sum(c.predicted_measure for c in rep.components)


# -- region checks and sampling ---------------------------------------------------------


def test_report_rejects_overlapping_regions():
    seq = ProbSequence.mfp(0.9)
    a = WitnessComponent(Box((0.0,), 1.0), seq, 0.5, 0.0, "a")
    b = WitnessComponent(Box((0.5,), 1.0), seq, 0.5, 0.0, "b")
    with pytest.raises(InternalInvariantError):
        WitnessReport(1, 2, (a, b), 0.5, 0.0, 0.5, 0.0)


def test_integer_union_slots_abut_despite_rounding():
    # the sixth slot's lo + side rounds past the seventh's lo at J = 9: no overlap
    assert 5 * (1 / 9) + 1 / 9 > 6 * (1 / 9)
    for terms in range(2, 41):
        assert len(build_integer_dim_witness(1, 1, 2, terms=terms).components) == terms


def test_monte_carlo_cross_check_positive_measure():
    # scaled estimate must reproduce l times the finite-depth deficit
    rep = build_positive_measure_witness(1.5, 1, 2)
    (comp,) = rep.components
    params = PercolationParams(1, 2, 12, comp.seq, seed=55)
    est = estimate_measure(params, 1000)
    assert abs(est.z_score) < 4
    scaled_theory = comp.region.volume * est.theory
    assert scaled_theory == pytest.approx(2.0 * 0.75 ** (1 - 2.0**-12), rel=1e-12)
    assert abs(comp.region.volume * est.estimate - scaled_theory) < 4 * comp.region.volume * est.std_error


# -- ledger -------------------------------------------------------------------------------


def test_ledger_mentions_rules_and_components():
    text = format_witness_ledger(build_union_witness(WitnessSpec(r=1.0, l=1.5, n=1, m=2)))
    assert "max over components" in text
    assert "sum over disjoint regions" in text
    assert "measure_carrier" in text
    assert "low_dim_block" in text
    assert "1.5" in text
