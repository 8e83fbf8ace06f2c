"""Closed-form dimensions, windowed fallbacks, and report invariants."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import catalog_seqs, geometries
from perclab import (
    ExponentSpec,
    InvalidParamsError,
    ProbSequence,
    alpha_estimate,
    classify,
    dim_assouad,
    dim_hausdorff,
    dim_packing,
    expected_measure,
    expected_measure_limit,
    full_report,
)

WINDOW = (64, 512)


# -- expected measure ----------------------------------------------------------


def test_measure_telescope_is_p():
    assert expected_measure(ProbSequence.power_telescope(0.5, 0.5), 1, 2) == 0.5


def test_measure_mfp_vanishes():
    assert expected_measure(ProbSequence.mfp(0.9), 2, 2) == 0.0


def test_measure_all_ones_is_one():
    assert expected_measure(ProbSequence.explicit([], tail=1.0), 1, 2) == 1.0


def test_measure_limit_for_explicit_tails():
    assert expected_measure_limit(ProbSequence.explicit([0.5], tail=0.9)) == 0.0
    assert expected_measure_limit(ProbSequence.explicit([0.5, 0.8], tail=1.0)) == pytest.approx(0.4)
    assert expected_measure_limit(ProbSequence.explicit([0.5])) is None


# -- single dimensions ----------------------------------------------------------


def test_hausdorff_mfp_half():
    seq = ProbSequence.mfp(2.0**-0.5)
    assert dim_hausdorff(seq, 1, 2) == pytest.approx(0.5, abs=1e-12)


def test_hausdorff_telescope_is_full():
    assert dim_hausdorff(ProbSequence.power_telescope(0.37, 0.61), 2, 3) == 2.0


def test_hausdorff_all_ones_windowed():
    assert dim_hausdorff(ProbSequence.explicit([], tail=1.0), 3, 2) == 3.0


@pytest.mark.parametrize("dim", [dim_hausdorff, dim_packing, dim_assouad, expected_measure])
@pytest.mark.parametrize("n, m", [(1, 1), (0, 2)])
def test_single_dimension_rejects_invalid_geometry(dim, n, m):
    with pytest.raises(InvalidParamsError):
        dim(ProbSequence.mfp(0.7), n, m)


def test_packing_mfp():
    assert dim_packing(ProbSequence.mfp(0.7), 2, 2) == pytest.approx(2 + math.log2(0.7), abs=1e-12)
    assert dim_packing(ProbSequence.mfp(0.7), 2, 2) == pytest.approx(1.4854268271702415)


def test_packing_telescope():
    assert dim_packing(ProbSequence.power_telescope(0.5, 0.5), 1, 2) == 1.0


def test_assouad_matches_packing_on_catalog():
    for seq in (
        ProbSequence.mfp(0.7),
        ProbSequence.power_telescope(0.5, 0.5),
        ProbSequence.power_head(0.6, 2.0),
    ):
        assert dim_assouad(seq, 2, 2) == dim_packing(seq, 2, 2)


def test_power_explicit_tail_closed_forms_exact():
    # every analytic value is read from the tail exponent c = 1.5
    seq = ProbSequence.power(0.8, ExponentSpec.explicit_list([3.0, 2.0], 1.5))
    dim = 2 + 1.5 * math.log(0.8) / math.log(3)
    assert alpha_estimate(seq) == (0.8**1.5, "analytic")
    assert dim_packing(seq, 2, 3) == dim
    assert dim_assouad(seq, 2, 3) == dim
    assert expected_measure(seq, 2, 3) == 0.0
    assert expected_measure_limit(seq) == 0.0


def test_all_ones_every_dimension_windowed():
    seq = ProbSequence.explicit([], tail=1.0)
    rep = full_report(seq, 2, 2)
    assert rep.method == "windowed"
    assert rep.hausdorff == rep.packing == rep.assouad == 2.0
    assert rep.expected_measure == 1.0


# -- full report -----------------------------------------------------------------


def test_full_report_mfp_example_values():
    rep = full_report(ProbSequence.mfp(0.9), 2, 2)
    want = 2 + math.log2(0.9)
    for value in (rep.hausdorff, rep.packing, rep.assouad, rep.box_lower, rep.box_upper):
        assert value == pytest.approx(want, abs=1e-12)
    assert rep.expected_measure == 0.0
    assert rep.method == "analytic"
    assert rep.window is None
    assert not rep.degenerate


def test_full_report_telescope_row():
    rep = full_report(ProbSequence.power_telescope(0.75, 0.5), 1, 2)
    assert rep.hausdorff == 1.0
    assert rep.expected_measure == 0.75


def test_box_identities_hold_everywhere():
    for seq in (ProbSequence.mfp(0.8), ProbSequence.explicit([0.9, 0.95], tail=0.99)):
        rep = full_report(seq, 2, 2)
        assert rep.box_lower == rep.hausdorff
        assert rep.box_upper == rep.packing


def test_mfp_coincidence():
    rep = full_report(ProbSequence.mfp(0.55), 3, 2)
    assert abs(rep.hausdorff - rep.packing) < 1e-9
    assert abs(rep.packing - rep.assouad) < 1e-9


def test_degenerate_subcritical():
    rep = full_report(ProbSequence.mfp(0.4), 1, 2)  # alpha below the 1/2 threshold
    assert rep.degenerate
    assert rep.hausdorff == 0.0
    assert rep.expected_measure == 0.0


def test_windowed_report_carries_window():
    rep = full_report(ProbSequence.mfp(0.9), 1, 2, window=WINDOW, method="windowed")
    assert rep.method == "windowed"
    assert rep.window == WINDOW


@pytest.mark.parametrize("method", ["analytic", "windowed"])
def test_report_float_fields_are_plain_floats(method):
    # a numpy scalar here would leak into every caller of the report
    rep = full_report(ProbSequence.mfp(0.7), 2, 2, method=method)
    fields = ("hausdorff", "packing", "assouad", "box_lower", "box_upper", "expected_measure")
    assert {f: type(getattr(rep, f)) for f in fields} == dict.fromkeys(fields, float)


def test_analytic_method_refused_for_explicit():
    with pytest.raises(Exception):
        full_report(ProbSequence.explicit([0.9], tail=0.95), 1, 2, method="analytic")


@pytest.mark.parametrize("p", [0.55, 0.7, 0.9])
@pytest.mark.parametrize("nm", [(1, 2), (2, 3)])
@pytest.mark.parametrize(
    "family",
    [
        lambda p: ProbSequence.mfp(p),
        lambda p: ProbSequence.power_head(p, 1.5),
        lambda p: ProbSequence.power_telescope(p, 0.5),
    ],
)
def test_windowed_agrees_with_analytic(family, nm, p):
    n, m = nm
    seq = family(p)
    ana = full_report(seq, n, m, window=WINDOW)
    win = full_report(seq, n, m, window=WINDOW, method="windowed")
    assert ana.method == "analytic" and win.method == "windowed"
    for f in ("hausdorff", "packing", "assouad", "expected_measure"):
        assert abs(getattr(ana, f) - getattr(win, f)) < 5e-3, f


def test_power_family_exponent_reduction_two_paths():
    """Hausdorff via the probability route equals the exponent-route oracle.

    For p_k = p^(a_k), the dimension is n + log_m(p) times the limiting
    Cesaro mean of the exponents; the oracle evaluates that mean over the
    same tail window the module uses.
    """
    n, m = 2, 3
    k_lo, k_hi = WINDOW
    for espec in (
        ExponentSpec.constant_one(),
        ExponentSpec.explicit_list([1.8, 1.3, 1.1], 1.0),
        ExponentSpec.geometric_gap(0.5),
    ):
        seq = ProbSequence.power(0.7, espec)
        module_value = dim_hausdorff(seq, n, m, window=WINDOW, method="windowed")
        tail_means = []
        acc = 0.0
        for k in range(k_lo + 1, k_hi + 1):
            acc += espec.a_at(k)
            tail_means.append(acc / (k - k_lo))
        # log_m p < 0 flips which tail mean realizes the liminf of the product
        oracle = max(n + mean * math.log(0.7) / math.log(m) for mean in tail_means)
        oracle = min(oracle, float(n))
        assert abs(module_value - oracle) < 1e-9


# -- windowed tail means -----------------------------------------------------------


def _ordered(rep, tol=1e-9):
    h, p, a = rep.hausdorff, rep.packing, rep.assouad
    return 0.0 <= h and h <= p + tol and p <= a + tol and a <= rep.n + tol


@pytest.mark.parametrize(
    "seq, n, m, window, want",
    [
        # head below k_lo dropped by every limit, not just Hausdorff
        (ProbSequence.power_telescope(0.1, 0.5), 1, 2, (16, 64), None),
        (ProbSequence.power(0.1, ExponentSpec.explicit_list([5.0], 0.01)), 1, 2, (16, 64),
         1 + 0.01 * math.log2(0.1)),
        # no denominator left to push packing above Assouad on a short window
        (ProbSequence.mfp(0.5), 2, 2, (1, 9), 1.0),
        # the one table reaches k_hi and no further
        (ProbSequence.explicit([0.9] * 512), 1, 2, (64, 512), 1 + math.log2(0.9)),
    ],
)
def test_windowed_report_small_windows_and_short_prefixes(seq, n, m, window, want):
    rep = full_report(seq, n, m, window=window, method="windowed")
    assert _ordered(rep)
    if want is not None:
        for value in (rep.hausdorff, rep.packing, rep.assouad):
            assert value == pytest.approx(want, abs=1e-12)


def test_windowed_packing_equals_hausdorff_past_the_prefix():
    seq = ProbSequence.explicit([0.3, 0.5], tail=0.7)
    rep = full_report(seq, 1, 2)
    assert rep.packing == pytest.approx(rep.hausdorff, abs=1e-12)
    assert rep.packing == pytest.approx(1 + math.log2(0.7), abs=1e-12)
    rep = full_report(ProbSequence.explicit([0.3, 0.5], tail=1.0), 1, 2)
    assert rep.hausdorff == rep.packing == rep.assouad == 1.0


def test_windowed_limsups_read_the_deeper_half_off_monotone():
    # p_2 alone is high: packing reads only (1, k] with k >= 9, and the best
    # sub-window for Assouad is packing's (1, 9], so A = P exactly
    with pytest.warns(UserWarning):
        seq = ProbSequence.explicit([0.5, 0.99] + [0.9] * 7, tail=0.5, strict=False)
    rep = full_report(seq, 1, 2, window=(1, 17), method="windowed")
    assert rep.packing == pytest.approx(1 + (math.log(0.99) + 7 * math.log(0.9)) / (8 * math.log(2)), abs=1e-12)
    assert rep.assouad == rep.packing
    assert _ordered(rep)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda seq, window: full_report(seq, 2, 3, window=window, method="windowed"),
        lambda seq, window: classify(seq, 2, 3, window=window, method="windowed"),
        lambda seq, window: alpha_estimate(seq, window=window, method="windowed"),
    ],
    ids=["full_report", "classify", "alpha_estimate"],
)
def test_windowed_report_reads_one_log_prefix_table(monkeypatch, evaluate):
    calls = []
    original = ProbSequence.cumulative_log

    def counted(self, k_hi):
        calls.append(k_hi)
        return original(self, k_hi)

    monkeypatch.setattr(ProbSequence, "cumulative_log", counted)
    evaluate(ProbSequence.power_head(0.6, 2.0), (10, 90))
    assert calls == [90]


@st.composite
def windows(draw):
    k_lo = draw(st.integers(1, 200))
    return k_lo, k_lo + draw(st.integers(8, 200))


@settings(max_examples=60, deadline=None)
@given(seq=catalog_seqs(), nm=geometries(), window=windows())
def test_ordering_invariant_windowed(seq, nm, window):
    n, m = nm
    assert _ordered(full_report(seq, n, m, window=window, method="windowed"))


@settings(max_examples=60, deadline=None)
@given(
    seq=catalog_seqs(),
    nm=geometries(),
    window=windows(),
    method=st.sampled_from(["analytic", "windowed"]),
)
def test_every_reader_matches_the_full_report(seq, nm, window, method):
    n, m = nm
    rep = full_report(seq, n, m, window=window, method=method)
    assert dim_hausdorff(seq, n, m, window=window, method=method) == rep.hausdorff
    assert dim_packing(seq, n, m, window=window, method=method) == rep.packing
    assert dim_assouad(seq, n, m, window=window, method=method) == rep.assouad
    alpha = classify(seq, n, m, window=window, method=method).alpha
    assert alpha_estimate(seq, window=window, method=method) == (alpha, rep.method)


# -- invariants over random catalog configurations -------------------------------


@settings(max_examples=60, deadline=None)
@given(seq=catalog_seqs(), nm=geometries())
def test_ordering_invariant_analytic(seq, nm):
    n, m = nm
    rep = full_report(seq, n, m)
    assert 0.0 <= rep.hausdorff <= rep.box_lower + 1e-9
    assert rep.box_lower <= rep.box_upper + 1e-9
    assert rep.box_upper <= rep.assouad + 1e-9
    assert rep.assouad <= n + 1e-9


@settings(max_examples=60, deadline=None)
@given(seq=catalog_seqs(), nm=geometries())
def test_measure_dimension_equivalence_analytic(seq, nm):
    n, m = nm
    rep = full_report(seq, n, m)
    if rep.expected_measure > 0.0:
        assert abs(rep.hausdorff - n) < 1e-9
    if rep.hausdorff < n - 1e-6:
        assert rep.expected_measure == 0.0


def test_report_serialization_field_names():
    d = full_report(ProbSequence.mfp(0.9), 2, 2).to_dict()
    assert set(d) >= {
        "hausdorff",
        "packing",
        "assouad",
        "box_lower",
        "box_upper",
        "expected_measure",
        "method",
        "window",
        "n",
        "m",
    }
