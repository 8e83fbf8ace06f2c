"""Monte Carlo estimators against closed forms and independent oracles."""

import math

import pytest

from perclab import (
    AllExtinctError,
    BudgetExceededError,
    InvalidParamsError,
    PercolationParams,
    ProbSequence,
    branching_extinction_prob,
    estimate_boxdim,
    estimate_measure,
    estimate_survival,
    generate,
    sample_counts,
)
from perclab import engine
from perclab.estimators import CSV_COLUMNS, csv_row, format_float

FULL = ProbSequence.explicit([], tail=1.0)


# -- branching oracle -----------------------------------------------------------


def test_extinction_fixed_point_quadratic():
    # q = (0.2 + 0.8 q)^2 has roots 1/16 and 1; the iteration finds the smallest
    q = branching_extinction_prob(0.8, 2)
    assert q == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_extinction_subcritical_goes_to_one():
    assert branching_extinction_prob(0.45, 2) == pytest.approx(1.0, abs=1e-9)


def test_extinction_depth_iterates_monotone():
    qs = [branching_extinction_prob(0.8, 2, depth=k) for k in range(1, 20)]
    assert qs[0] == pytest.approx(0.04)
    assert all(a <= b + 1e-15 for a, b in zip(qs, qs[1:]))
    assert qs[-1] <= branching_extinction_prob(0.8, 2) + 1e-12


# -- expected measure --------------------------------------------------------------


def test_measure_telescope_depth12():
    params = PercolationParams(1, 2, 12, ProbSequence.power_telescope(0.5, 0.5), seed=40)
    rep = estimate_measure(params, 2000)
    assert rep.theory == pytest.approx(0.5 ** (1 - 2.0**-12), rel=1e-12)
    assert rep.theory_limit == 0.5
    assert abs(rep.z_score) < 4
    assert rep.estimate == pytest.approx(0.5, abs=0.05)


def test_measure_has_no_theory_past_a_tailless_prefix():
    # p_3 is undefined: the theory prod_{k<=5} p_k is null, and the
    # replicates, all dead within the prefix, are still estimated
    params = PercolationParams(1, 2, 5, ProbSequence.explicit([0.01, 0.01]), seed=0)
    rep = estimate_measure(params, 100)
    assert (rep.estimate, rep.theory, rep.z_score, rep.theory_limit) == (0.0, None, None, None)
    # within the prefix the theory stands
    assert estimate_measure(PercolationParams(1, 2, 2, params.seq), 100).theory == pytest.approx(1e-4)


def test_measure_replicate_alive_past_a_tailless_prefix_raises():
    params = PercolationParams(1, 2, 5, ProbSequence.explicit([0.9, 0.9]), seed=0)
    with pytest.raises(InvalidParamsError, match="defined only up to k=2, asked for k=3"):
        estimate_measure(params, 100)


def test_measure_full_cube_zero_se():
    rep = estimate_measure(PercolationParams(1, 2, 5, FULL, seed=1), 200)
    assert rep.estimate == 1.0
    assert rep.std_error == 0.0
    assert rep.z_score is None
    assert rep.theory == 1.0 and rep.theory_limit == 1.0


def test_measure_mfp_product_theory():
    params = PercolationParams(1, 2, 10, ProbSequence.mfp(0.6), seed=9)
    rep = estimate_measure(params, 5000)
    assert rep.theory == pytest.approx(0.6**10, rel=1e-12)
    assert rep.theory_limit == 0.0
    assert abs(rep.z_score) < 4


def test_measure_replicate_floor():
    with pytest.raises(InvalidParamsError):
        estimate_measure(PercolationParams(1, 2, 3, FULL), 99)


def test_budget_error_propagates_level_and_count():
    params = PercolationParams(2, 2, 6, FULL, seed=0, cell_budget=100)
    with pytest.raises(BudgetExceededError) as ref:
        generate(params)
    want = (ref.value.level, ref.value.count, ref.value.budget)
    assert want == (4, 256, 100)
    for estimate in (estimate_measure, estimate_survival, estimate_boxdim):
        with pytest.raises(BudgetExceededError) as err:
            estimate(params, 200)
        assert (err.value.level, err.value.count, err.value.budget) == want


# -- survival -----------------------------------------------------------------------


def test_survival_supercritical_against_fixed_point():
    params = PercolationParams(1, 2, 14, ProbSequence.mfp(0.8), seed=12)
    rep = estimate_survival(params, 10_000)
    assert rep.theory == pytest.approx(0.9375, abs=1e-9)
    assert abs(rep.estimate - 0.9375) < 0.02


def test_survival_subcritical_residual_matches_depth_oracle():
    """At p = 0.45 the process dies out, but depth 14 still shows the
    transient: P(alive at 14) = 1 - q_14 with q_14 from the iterated map."""
    params = PercolationParams(1, 2, 14, ProbSequence.mfp(0.45), seed=12)
    rep = estimate_survival(params, 4000)
    residual = 1.0 - branching_extinction_prob(0.45, 2, depth=14)
    assert residual == pytest.approx(0.0781, abs=5e-4)
    se = max(rep.std_error, math.sqrt(residual * (1 - residual) / rep.replicates))
    assert abs(rep.estimate - residual) < 4 * se
    assert rep.theory == pytest.approx(0.0, abs=1e-9)


def test_survival_decreases_with_depth_subcritical():
    estimates = []
    for depth in (6, 10, 14):
        params = PercolationParams(1, 2, depth, ProbSequence.mfp(0.45), seed=77)
        estimates.append(estimate_survival(params, 2000).estimate)
    assert estimates[0] >= estimates[1] >= estimates[2]


def test_survival_full_cube_is_one():
    rep = estimate_survival(PercolationParams(1, 2, 6, FULL, seed=5), 200)
    assert rep.estimate == 1.0
    assert rep.std_error == 0.0


def test_survival_theory_unavailable_off_catalog_constant():
    params = PercolationParams(1, 2, 8, ProbSequence.power_telescope(0.6, 0.5), seed=4)
    rep = estimate_survival(params, 200)
    assert rep.theory is None and rep.z_score is None


# -- box dimension ----------------------------------------------------------------


def test_boxdim_full_cube_exact():
    params = PercolationParams(2, 2, 6, FULL, seed=0)
    rep = estimate_boxdim(params, 3, fit_levels=(1, 6))
    assert abs(rep.slope - 2.0) < 1e-12
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.intercept) < 1e-12
    assert rep.attempts == 3
    assert rep.replicates_used == 3
    assert rep.conditioned_on_survival


def test_boxdim_mfp_planar():
    params = PercolationParams(2, 2, 10, ProbSequence.mfp(0.9), seed=21)
    rep = estimate_boxdim(params, 5, fit_levels=(4, 10))
    assert abs(rep.slope - (2 + math.log2(0.9))) < 0.15
    assert rep.levels_used == (4, 10)
    assert len(rep.per_level_counts) == 7


def test_boxdim_line_base3():
    params = PercolationParams(1, 3, 8, ProbSequence.mfp(0.7), seed=8)
    rep = estimate_boxdim(params, 10, fit_levels=(3, 8))
    want = 1 + math.log(0.7) / math.log(3)
    assert want == pytest.approx(0.6753404748720376, rel=1e-12)
    assert abs(rep.slope - want) < 0.15


def test_boxdim_all_extinct():
    params = PercolationParams(1, 2, 6, ProbSequence.mfp(0.05), seed=13)
    with pytest.raises(AllExtinctError):
        estimate_boxdim(params, 2, fit_levels=(1, 6), max_attempts=5)


def test_boxdim_partial_survival_raises():
    # some streams within the budget survive, but fewer than asked: no silent shortfall
    params = PercolationParams(1, 2, 8, ProbSequence.mfp(0.55), seed=21)
    alive = sum(sample_counts(params, i)[8] > 0 for i in range(40))
    assert 0 < alive < 20
    want = f"^{alive} of 20 replicates survived to depth 8 within 40 attempts$"
    with pytest.raises(AllExtinctError, match=want):
        estimate_boxdim(params, 20, max_attempts=2)


def test_boxdim_validation():
    params = PercolationParams(1, 2, 6, FULL)
    with pytest.raises(InvalidParamsError):
        estimate_boxdim(params, 2, fit_levels=(4, 6))  # only 3 levels
    with pytest.raises(InvalidParamsError):
        estimate_boxdim(params, 2, fit_levels=(0, 6))
    with pytest.raises(InvalidParamsError):
        estimate_boxdim(params, 0)


# -- the replicate-to-stream contract -----------------------------------------------


def test_replicate_i_is_stream_i_in_stream_order():
    # near-critical, so many replicates die and boxdim rejects some streams
    params = PercolationParams(1, 2, 8, ProbSequence.mfp(0.55), seed=21)
    K, R = params.depth, 100
    counts = [sample_counts(params, i) for i in range(300)]
    finals = [c[K] for c in counts[:R]]

    measure = estimate_measure(params, R)
    assert measure.estimate == (sum(finals) / R) * 2.0**-K
    mean = sum(finals) / R
    var = sum((x - mean) ** 2 for x in finals) / (R - 1)
    assert measure.std_error == pytest.approx(math.sqrt(var / R) * 2.0**-K, rel=1e-12)
    assert estimate_survival(params, R).estimate == sum(x > 0 for x in finals) / R

    alive = [i for i, c in enumerate(counts) if c[K] > 0]
    assert 20 < len(alive) < 280  # both deaths and enough survivors
    box = estimate_boxdim(params, 20)
    used = alive[:20]
    assert box.attempts == 1 + used[-1]
    assert box.per_level_counts == tuple(
        sum(counts[i][k] for i in used) / 20 for k in range(3, K + 1)
    )


def test_one_estimator_call_builds_each_level_bound_once(monkeypatch):
    # the draw loop builds the bounds once per call, not once per replicate
    calls = []
    keep_bound = engine._keep_bound

    def counted(p):
        calls.append(p)
        return keep_bound(p)

    monkeypatch.setattr(engine, "_keep_bound", counted)
    params = PercolationParams(2, 2, 6, ProbSequence.power_telescope(0.6, 0.5), seed=3)
    rep = estimate_survival(params, 300)
    assert 0.0 < rep.estimate < 1.0
    assert len(calls) <= params.depth


# -- CSV rows ----------------------------------------------------------------------


def test_csv_columns_fixed():
    assert CSV_COLUMNS == (
        "quantity", "n", "m", "K", "family", "params", "replicates",
        "estimate", "std_error", "theory", "z_score",
    )


def test_format_float_17_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(None) == ""


def test_csv_row_shape():
    row = csv_row("survival_prob", 1, 2, 5, "mfp", "p=0.8", 100, 0.5, 0.01, 0.52, -2.0)
    assert len(row) == len(CSV_COLUMNS)
    assert row[0] == "survival_prob"
    assert row[1:4] == ["1", "2", "5"]
    dims = csv_row("dims", 2, 2, None, "mfp", "p=0.9", None, 1.8, 0.0, 1.8, None)
    assert dims[1:4] == ["2", "2", ""] and dims[6] == "" and dims[-1] == ""
