"""Sampling engine: draw order, nesting, determinism, rasters, serialization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perclab import (
    BudgetExceededError,
    InvalidParamsError,
    PercolationParams,
    ProbSequence,
    RasterTooLargeError,
    Realization,
    UnsupportedDimensionError,
    derive_seed,
    generate,
    pgm_bytes,
    realization_from_dict,
    realization_to_dict,
    render_raster,
    sample_counts,
)
from perclab import engine
from perclab.engine import level_probs

from conftest import catalog_seqs, geometries

FULL = ProbSequence.explicit([], tail=1.0)


def _params(n=1, m=2, depth=3, seq=None, seed=0, budget=1 << 26):
    return PercolationParams(n, m, depth, seq or FULL, seed=seed, cell_budget=budget)


# -- basic generation -----------------------------------------------------------


def test_full_cube_counts():
    r = generate(_params(n=1, m=2, depth=3))
    assert r.counts == [1, 2, 4, 8]
    assert r.levels[3][:, 0].tolist() == list(range(8))
    assert r.survives()


def test_extinction_closes_all_deeper_levels():
    # p so small that level 1 dies for this seed; deeper levels stay empty
    r = generate(_params(seq=ProbSequence.mfp(1e-12), depth=4, seed=3))
    assert r.counts == [1, 0, 0, 0, 0]
    assert not r.survives()
    assert r.measure_at(4) == 0.0


def test_full_cube_levels_are_sorted_rows():
    r = generate(_params(n=2, m=2, depth=2))
    lvl = [tuple(row) for row in r.levels[2].tolist()]
    assert lvl == sorted(lvl)
    assert len(lvl) == 16


def test_retention_is_strict_below_one():
    # p = 1.0 via the explicit tail must retain every child for any seed
    for seed in range(5):
        r = generate(_params(n=2, m=3, depth=2, seed=seed))
        assert r.counts == [1, 9, 81]


def test_measure_at_examples():
    r = generate(_params(n=1, m=2, depth=3))
    assert r.measure_at(0) == 1.0
    assert r.measure_at(3) == 1.0
    handmade = Realization(
        _params(n=1, m=2, depth=3),
        [np.zeros((1, 1)), np.array([[0], [1]]), np.array([[0], [1], [2]]),
         np.array([[0], [1], [2], [4], [7]])],
    )
    assert handmade.measure_at(3) == 5 / 8
    with pytest.raises(InvalidParamsError):
        handmade.measure_at(4)


def test_measure_nonincreasing_along_levels():
    r = generate(_params(n=2, m=2, depth=6, seq=ProbSequence.mfp(0.8), seed=11))
    measures = [r.measure_at(k) for k in range(7)]
    assert all(a >= b for a, b in zip(measures, measures[1:]))


# -- moments (level counts against the branching law) -----------------------------


def test_level_one_moments_binomial():
    # X_1 ~ Binomial(m^n, p1) exactly
    p, reps = 0.9, 10_000
    params = _params(n=2, m=2, depth=1, seq=ProbSequence.mfp(p), seed=101)
    xs = [generate(params, stream=i).counts[1] for i in range(reps)]
    mean = sum(xs) / reps
    mu = 4 * p
    var_theory = 4 * p * (1 - p)
    se_mean = math.sqrt(var_theory / reps)
    assert abs(mean - mu) < 4 * se_mean
    s2 = sum((x - mean) ** 2 for x in xs) / (reps - 1)
    se_var = var_theory * math.sqrt(2.0 / (reps - 1))
    assert abs(s2 - var_theory) < 0.10 * var_theory + 4 * se_var


def test_level_two_moments_tree_law():
    """Depth-2 counts: mean (m^n)^2 p1 p2; variance from the two-stage law.

    Level-2 cells share level-1 ancestors, so X_2 is overdispersed relative
    to a single binomial.  With M = m^n, B ~ Bern(p1) per level-1 cell and
    Y ~ Bin(M, p2) per surviving one,
        Var X_2 = M (p1 M p2 (1 - p2) + p1 (1 - p1) (M p2)^2).
    """
    p, reps = 0.9, 10_000
    M = 4
    params = _params(n=2, m=2, depth=2, seq=ProbSequence.mfp(p), seed=202)
    xs = [generate(params, stream=i).counts[2] for i in range(reps)]
    mean = sum(xs) / reps
    mu = M**2 * p * p
    var_theory = M * (p * M * p * (1 - p) + p * (1 - p) * (M * p) ** 2)
    se_mean = math.sqrt(var_theory / reps)
    assert abs(mean - mu) < 4 * se_mean
    s2 = sum((x - mean) ** 2 for x in xs) / (reps - 1)
    se_var = var_theory * math.sqrt(2.0 / (reps - 1))
    assert abs(s2 - var_theory) < 0.10 * var_theory + 4 * se_var


# -- nesting & determinism properties ---------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 2),
    m=st.integers(2, 3),
    depth=st.integers(1, 4),
    p=st.floats(0.2, 0.95),
    telescoping=st.booleans(),
)
def test_nesting_and_count_bounds(seed, n, m, depth, p, telescoping):
    seq = ProbSequence.power_telescope(p, 0.5) if telescoping else ProbSequence.mfp(p)
    r = generate(PercolationParams(n, m, depth, seq, seed=seed))
    assert r.counts[0] == 1
    for k in range(1, depth + 1):
        parents = {tuple(row) for row in r.levels[k - 1].tolist()}
        assert r.counts[k] <= (m**n) * r.counts[k - 1]
        for row in r.levels[k].tolist():
            assert tuple(x // m for x in row) in parents
        cells = [tuple(row) for row in r.levels[k].tolist()]
        assert cells == sorted(cells)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 1000))
def test_bit_identical_regeneration(seed, stream):
    params = _params(n=2, m=2, depth=4, seq=ProbSequence.mfp(0.7), seed=seed)
    a = generate(params, stream=stream)
    b = generate(params, stream=stream)
    assert all(np.array_equal(x, y) for x, y in zip(a.levels, b.levels))


def test_streams_are_disjoint():
    params = _params(n=2, m=2, depth=4, seq=ProbSequence.mfp(0.7), seed=5)
    a = generate(params, stream=0)
    b = generate(params, stream=1)
    assert a.counts != b.counts or any(
        not np.array_equal(x, y) for x, y in zip(a.levels, b.levels)
    )


def test_stream_golden_counts():
    # regression anchor for the draw-order and keying contract
    params = _params(n=2, m=2, depth=4, seq=ProbSequence.mfp(0.7), seed=20260808)
    assert generate(params).counts == [1, 3, 8, 22, 63]


def test_derive_seed_is_fixed():
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(123, 7) == derive_seed(123, 7)
    assert 0 <= derive_seed(2**64 - 1, 2**32) < 2**64


# -- counts-only sampler against the reference generate ---------------------------


def explicit_tail_seqs():
    def build(prefix, tail):
        prefix = sorted(prefix)
        return ProbSequence.explicit(prefix, tail=max(prefix + [tail]))

    return st.builds(
        build, st.lists(st.floats(0.3, 1.0), max_size=4), st.floats(0.3, 1.0)
    )


def _outcome(fn):
    try:
        return fn()
    except BudgetExceededError as exc:
        return ("budget", exc.level, exc.count, exc.budget)
    except InvalidParamsError as exc:
        return ("invalid", str(exc))


@settings(max_examples=200, deadline=None)
@given(
    seq=st.one_of(catalog_seqs(), explicit_tail_seqs()),
    geometry=geometries(),
    depth=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    budget=st.integers(1, 4000),
)
def test_sample_counts_matches_generate(seq, geometry, depth, seed, stream, budget):
    n, m = geometry
    params = PercolationParams(n, m, depth, seq, seed=seed, cell_budget=budget)
    want = _outcome(lambda: generate(params, stream).counts)
    assert _outcome(lambda: sample_counts(params, stream)) == want
    probs = level_probs(params)
    assert _outcome(lambda: sample_counts(params, stream, probs)) == want


def test_sample_counts_tailless_prefix_shorter_than_depth():
    # streams that die within the prefix give counts; the rest reach level 3
    # alive, where the sequence is undefined, and fail there in both paths
    params = _params(n=1, m=2, depth=5, seq=ProbSequence.explicit([0.5, 0.5]), seed=4)
    assert level_probs(params) == (0.5, 0.5)
    seen = set()
    for stream in range(40):
        want = _outcome(lambda: generate(params, stream).counts)
        assert _outcome(lambda: sample_counts(params, stream)) == want
        seen.add("invalid" if isinstance(want, tuple) else "died out")
    assert seen == {"died out", "invalid"}


# -- level ordering against the reference lexsort path ----------------------------


def _reference_generate(params, stream=0):
    """Levels of ``generate`` by the original path: coordinate columns, lexsort."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([params.seed, stream], dtype=np.uint64))
    )
    n, m = params.n, params.m
    block = np.array(list(itertools.product(range(m), repeat=n)), dtype=np.uint64)
    levels = [np.zeros((1, n), dtype=np.uint64)]
    for k in range(1, params.depth + 1):
        parents = levels[-1]
        candidates = parents.shape[0] * m**n
        if candidates == 0:
            levels.append(np.zeros((0, n), dtype=np.uint64))
            continue
        if candidates > params.cell_budget:
            raise BudgetExceededError(k, candidates, params.cell_budget)
        children = (parents[:, None, :] * np.uint64(m) + block[None, :, :]).reshape(-1, n)
        kept = children[rng.random(candidates) < params.seq.p_at(k)]
        order = np.lexsort(tuple(kept[:, axis] for axis in range(n - 1, -1, -1)))
        levels.append(kept[order])
    return levels


def _assert_levels_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.uint64
        assert np.array_equal(a, b)


def _assert_sorted_and_nested(r):
    m = r.params.m
    for k in range(1, r.params.depth + 1):
        cells = [tuple(row) for row in r.levels[k].tolist()]
        assert all(a < b for a, b in zip(cells, cells[1:])), f"level {k} not strictly sorted"
        parents = {tuple(row) for row in r.levels[k - 1].tolist()}
        assert all(tuple(x // m for x in c) in parents for c in cells), f"level {k} not nested"


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 3),
    m=st.sampled_from([2, 3, 4, 10]),
    depth=st.integers(1, 12),
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    p=st.floats(0.01, 0.99),
)
def test_generate_matches_reference_ordering(n, m, depth, seed, stream, p):
    params = PercolationParams(n, m, depth, ProbSequence.mfp(p), seed=seed, cell_budget=1 << 14)
    try:
        want = _reference_generate(params, stream)
    except BudgetExceededError as exc:
        with pytest.raises(BudgetExceededError) as err:
            generate(params, stream)
        assert (err.value.level, err.value.count) == (exc.level, exc.count)
        return
    _assert_levels_equal(generate(params, stream).levels, want)


@pytest.mark.parametrize(
    "n, m, depth, p, first_wide",
    [(2, 10, 10, 0.02, 10), (3, 4, 12, 0.02, 11)],
)
def test_levels_past_64_bit_keys_match_reference(n, m, depth, p, first_wide):
    # m^(n k) > 2^64 from level first_wide on: no packed key fits there
    assert m ** (n * first_wide) > 2**64 >= m ** (n * (first_wide - 1))
    params = PercolationParams(n, m, depth, ProbSequence.mfp(p), seed=0)
    r = generate(params)
    assert r.counts[first_wide] > 1  # the wide levels are alive and ordered
    _assert_levels_equal(r.levels, _reference_generate(params))
    _assert_sorted_and_nested(r)


# -- budget and parameter validation ----------------------------------------------


def test_budget_exceeded_reports_level_and_count():
    with pytest.raises(BudgetExceededError) as err:
        generate(_params(n=2, m=2, depth=3, budget=10))
    assert err.value.level == 2
    assert err.value.count == 16
    assert err.value.budget == 10


@pytest.mark.parametrize("sampler", [generate, sample_counts])
def test_level_one_budget_checked_before_the_digit_block(monkeypatch, sampler):
    # m^n may be near 2^63, so the m^n-row block is built only once level 1
    # passed the budget
    def no_block(m, n):
        raise AssertionError("digit block built before the level-1 budget check")

    monkeypatch.setattr(engine, "_digit_block", no_block)
    with pytest.raises(BudgetExceededError) as err:
        sampler(_params(n=2, m=4, depth=3, budget=15))
    assert (err.value.level, err.value.count, err.value.budget) == (1, 4**2, 15)


def test_param_validation():
    with pytest.raises(InvalidParamsError):
        PercolationParams(4, 2, 3, FULL)
    with pytest.raises(InvalidParamsError):
        PercolationParams(1, 1, 3, FULL)
    with pytest.raises(InvalidParamsError):
        PercolationParams(1, 2, 0, FULL)
    with pytest.raises(InvalidParamsError):
        PercolationParams(1, 2, 64, FULL)  # m^depth past the packing limit
    with pytest.raises(InvalidParamsError):
        PercolationParams(1, 2, 3, FULL, seed=-1)


# -- raster and PGM ----------------------------------------------------------------


def test_raster_full_cube():
    r = generate(_params(n=2, m=2, depth=1))
    assert render_raster(r, 1).tolist() == [[1, 1], [1, 1]]


def test_raster_extinct_is_zeros():
    r = generate(_params(n=2, m=2, depth=2, seq=ProbSequence.mfp(1e-12), seed=3))
    assert render_raster(r, 2).tolist() == [[0] * 4 for _ in range(4)]


def test_raster_orientation_single_cell():
    # cell (x=0, y=0) must land in the bottom-left pixel, i.e. the last row
    params = _params(n=2, m=2, depth=1)
    handmade = Realization(params, [np.zeros((1, 2)), np.array([[0, 0]])])
    grid = render_raster(handmade, 1)
    assert grid.tolist() == [[0, 0], [1, 0]]


def test_raster_errors():
    with pytest.raises(UnsupportedDimensionError):
        render_raster(generate(_params(n=1, m=2, depth=1)), 1)
    params = _params(n=2, m=2, depth=13, seq=ProbSequence.mfp(1e-12), seed=3)
    extinct = generate(params)
    with pytest.raises(RasterTooLargeError):
        render_raster(extinct, 13)  # 8192 > 4096, checked before touching cells


def test_pgm_bytes_exact():
    r = generate(_params(n=2, m=2, depth=1))
    data = pgm_bytes(render_raster(r, 1))
    assert data == b"P5\n2 2\n255\n" + b"\xff" * 4


def test_pgm_header_for_larger_raster():
    r = generate(_params(n=2, m=2, depth=3, seq=ProbSequence.mfp(0.9), seed=9))
    data = pgm_bytes(render_raster(r, 3))
    assert data.startswith(b"P5\n8 8\n255\n")
    assert len(data) == len(b"P5\n8 8\n255\n") + 64


# -- serialization ------------------------------------------------------------------


def test_realization_round_trip():
    r = generate(_params(n=2, m=3, depth=3, seq=ProbSequence.mfp(0.6), seed=77))
    d = realization_to_dict(r)
    back = realization_from_dict(d)
    assert back.counts == r.counts
    assert all(np.array_equal(x, y) for x, y in zip(back.levels, r.levels))
    assert back.params == r.params


def test_from_dict_rejects_unsorted_levels():
    r = generate(_params(n=1, m=2, depth=2, seq=ProbSequence.mfp(0.9), seed=1))
    d = realization_to_dict(r)
    if len(d["levels"][2]) >= 2:
        d["levels"][2] = d["levels"][2][::-1]
        with pytest.raises(InvalidParamsError):
            realization_from_dict(d)


def test_from_dict_rejects_broken_nesting():
    d = {
        "n": 1, "m": 2, "depth": 2, "seed": 0,
        "seq": {"kind": "mfp", "p": 0.5},
        "levels": [[[0]], [[1]], [[0]]],  # level-2 cell 0 has parent 0, absent at level 1
    }
    with pytest.raises(InvalidParamsError):
        realization_from_dict(d)
