"""Sampling engine: draw order, nesting, determinism, rasters, serialization."""

import itertools
import math
import tracemalloc
from dataclasses import replace

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
    render_level,
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
         np.array([[0], [1], [2], [4], [5]])],
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


def key_width_shapes():
    """(n, m, depth) with depth <= 12 and m^(n depth) <= 2^64, the shapes generate takes."""

    def with_depth(nm):
        n, m = nm
        deepest = max(d for d in range(1, 13) if m ** (n * d) <= 2**64)
        return st.tuples(st.just(n), st.just(m), st.integers(1, deepest))

    return st.tuples(st.integers(2, 3), st.sampled_from([2, 3, 4, 10])).flatmap(with_depth)


@settings(max_examples=150, deadline=None)
@given(
    shape=key_width_shapes(),
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    p=st.floats(0.01, 0.99),
)
def test_generate_matches_reference_ordering(shape, seed, stream, p):
    n, m, depth = shape
    params = PercolationParams(n, m, depth, ProbSequence.mfp(p), seed=seed, cell_budget=1 << 14)
    try:
        want = _reference_generate(params, stream)
    except BudgetExceededError as exc:
        with pytest.raises(BudgetExceededError) as err:
            generate(params, stream)
        assert (err.value.level, err.value.count) == (exc.level, exc.count)
        return
    _assert_levels_equal(generate(params, stream).levels, want)


def test_generate_at_the_64_bit_key_limit():
    # m^(n K) = 2^64 exactly: the deepest keys use all 64 bits
    params = PercolationParams(2, 2, 32, ProbSequence.mfp(0.3), seed=0)
    r = generate(params)
    assert r.counts[32] == 644
    assert int(r._cells[32].max()) >= 2**63
    want = _reference_generate(params)
    _assert_levels_equal(r.levels, want)
    _assert_sorted_and_nested(r)
    _assert_levels_equal(Realization(params, want).levels, want)


@pytest.mark.parametrize("n, m, depth", [(2, 10, 10), (3, 4, 12), (2, 2, 33)])
def test_generate_rejects_keys_past_64_bits(monkeypatch, n, m, depth):
    # m^(n K) > 2^64: the deepest keys would not fit, so nothing is drawn;
    # the counts-only sampler takes the same params
    params = PercolationParams(n, m, depth, ProbSequence.mfp(0.02), seed=0)
    assert m ** (n * depth) > 2**64
    assert len(sample_counts(params)) == depth + 1

    def no_stream(bitgen, seed, stream):
        raise AssertionError("stream keyed before the key-width check")

    # every draw keys its stream through _key_stream first, so the patch
    # would catch a draw; sample_counts shows that it is on the draw path
    monkeypatch.setattr(engine, "_key_stream", no_stream)
    with pytest.raises(AssertionError, match="stream keyed"):
        sample_counts(params)
    with pytest.raises(InvalidParamsError, match="exceeds 2\\^64"):
        generate(params)
    with pytest.raises(InvalidParamsError, match="exceeds 2\\^64"):
        Realization(params, [np.zeros((1, n))] + [[]] * depth)


@pytest.mark.parametrize("stream", [-1, 2**64, 2**64 + 3], ids=["negative", "2^64", "past-2^64"])
def test_streams_outside_64_bits_rejected(monkeypatch, stream):
    # a stream is the second Philox key word: reducing it modulo 2^64 would
    # draw another stream than the one named, so no entry point takes it
    params = _params(n=2, m=2, depth=4, seq=ProbSequence.mfp(0.8), seed=5)
    d = realization_to_dict(generate(params))

    def no_stream(bitgen, seed, stream):
        raise AssertionError("stream keyed before the range check")

    monkeypatch.setattr(engine, "_key_stream", no_stream)
    with pytest.raises(InvalidParamsError, match=r"stream must lie in \[0, 2\^64\)"):
        generate(params, stream)
    with pytest.raises(InvalidParamsError, match=r"stream must lie in \[0, 2\^64\)"):
        sample_counts(params, stream)
    d["stream"] = stream
    with pytest.raises(InvalidParamsError, match=r"stream must lie in \[0, 2\^64\)"):
        realization_from_dict(d)


def test_stream_at_the_top_of_64_bits_is_its_own():
    # 2^64 - 1 is a valid stream, distinct from 0 and round-tripped as given
    params = _params(n=2, m=2, depth=6, seq=ProbSequence.mfp(0.8), seed=5)
    top = generate(params, 2**64 - 1)
    assert sample_counts(params, 2**64 - 1) == top.counts
    assert realization_from_dict(realization_to_dict(top)).stream == 2**64 - 1
    assert [generate(params, s).counts for s in (0, 1)] != [top.counts] * 2


# -- raw-word keep test and re-keyed bit generators ---------------------------------


UNIT = 2.0**-53  # the spacing of numpy's double uniforms
EDGE_PROBS = [
    1.0,
    1e-200 * 1e-200,  # 0.0, as a catalog p_k reaches it by underflow
    5e-324,
    UNIT,
    3 * UNIT,
    1.0 - UNIT,
    math.nextafter(0.5, 0.0),
    math.nextafter(0.5, 1.0),
    0.8,
    0.95,
]
EDGE_KEYS = [(0, 0), (12, 3), (2**64 - 1, 2**64 - 1)]


def _uniform(word: int) -> float:
    """numpy's Philox next_double of one raw word."""
    return (word >> 11) * UNIT


@pytest.mark.parametrize("seed, stream", EDGE_KEYS)
def test_philox_uniform_is_the_top_53_bits_of_its_word(seed, stream):
    words = engine.stream_generator(seed, stream).bit_generator.random_raw(4099)
    uniforms = engine.stream_generator(seed, stream).random(4099)
    assert uniforms.tolist() == [_uniform(int(w)) for w in words]


@pytest.mark.parametrize("p", EDGE_PROBS)
def test_keep_bound_splits_the_words_at_p(p):
    bound = engine._keep_bound(p)
    if p == 0.0:
        assert bound is None  # no word has a uniform below 0
        assert _uniform(0) >= p
        return
    bound = int(bound)
    assert 0 <= bound < 2**64
    assert _uniform(bound) < p
    if bound < 2**64 - 1:
        assert _uniform(bound + 1) >= p
    else:
        assert p == 1.0  # every word is kept


def _drawn_masks(params, stream, probs, bitgen):
    """(keep mask, kept count) of each level ``_draw_levels`` draws, masks by ``_keep_mask``."""
    drawn = []

    def draw(k, bitgen, candidates, bound):
        keep = engine._keep_mask(bitgen, candidates, bound)
        drawn.append((keep, int(np.count_nonzero(keep))))
        return drawn[-1][1]

    assert engine._draw_levels(params, stream, probs, draw, bitgen) == [kept for _, kept in drawn]
    return drawn


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("p", EDGE_PROBS)
def test_raw_word_mask_matches_the_uniform_test(monkeypatch, chunk, p):
    # one level of m = 4099 candidates: the mask word for word against u < p
    if chunk is not None:
        monkeypatch.setattr(engine, "_CHUNK", chunk)
    bitgen = np.random.Philox()
    for seed, stream in EDGE_KEYS:
        params = PercolationParams(1, 4099, 1, FULL, seed=seed)
        [(keep, kept)] = _drawn_masks(params, stream, (p,), bitgen)
        want = engine.stream_generator(seed, stream).random(4099) < p
        assert np.array_equal(keep, want)
        assert kept == int(np.count_nonzero(want))


def _fresh_state(seed, stream):
    return np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).state


def _assert_state_equal(got, want):
    assert got["state"]["key"].tolist() == want["state"]["key"].tolist()
    assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
    assert got["buffer"].tolist() == want["buffer"].tolist()
    assert [got[k] for k in ("buffer_pos", "has_uint32", "uinteger")] == [
        want[k] for k in ("buffer_pos", "has_uint32", "uinteger")
    ]


@pytest.mark.parametrize("seed, stream", EDGE_KEYS)
def test_rekeyed_bit_generator_matches_a_fresh_stream(seed, stream):
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)
    # an odd-length draw leaves the four-word buffer mid-block
    bitgen.random_raw(5)
    assert bitgen.state["buffer_pos"] not in (0, 4)
    engine._key_stream(bitgen, seed, stream)
    _assert_state_equal(bitgen.state, _fresh_state(seed, stream))
    want = engine.stream_generator(seed, stream).bit_generator.random_raw(11)
    assert np.array_equal(bitgen.random_raw(11), want)
    # a uint32 draw buffers the other half of its word
    rng.integers(0, 2**32, dtype=np.uint32)
    assert bitgen.state["has_uint32"] == 1
    engine._key_stream(bitgen, seed, stream)
    _assert_state_equal(bitgen.state, _fresh_state(seed, stream))
    fresh = engine.stream_generator(seed, stream)
    assert np.array_equal(
        rng.integers(0, 2**32, size=5, dtype=np.uint32),
        fresh.integers(0, 2**32, size=5, dtype=np.uint32),
    )
    assert np.array_equal(rng.random(9), fresh.random(9))


# -- chunked expansion and the packed level store -----------------------------------


CHUNK_CASES = [(1, 2, 12, 0.8, 1), (2, 2, 6, 0.8, 2), (3, 2, 4, 0.8, 3), (2, 10, 9, 0.02, 0)]


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("n, m, depth, p, seed", CHUNK_CASES)
def test_chunked_generate_matches_reference(monkeypatch, chunk, n, m, depth, p, seed):
    # every tier-1 level fits one chunk at the real size, so shrink it: the
    # draw and the expansion then cross chunk boundaries at every level,
    # mid-parent for the draw whenever the chunk is not a multiple of m^n
    monkeypatch.setattr(engine, "_CHUNK", chunk)
    params = PercolationParams(n, m, depth, ProbSequence.mfp(p), seed=seed)
    r = generate(params)
    assert r.counts[depth] > 1
    _assert_levels_equal(r.levels, _reference_generate(params))


def test_chunked_draw_gives_the_same_masks(monkeypatch):
    # one bit generator serves both draws: the second re-keys it mid-block
    params = _params(n=2, m=3, depth=5, seq=ProbSequence.mfp(0.7), seed=12)
    probs = level_probs(params)
    bitgen = np.random.Philox()
    whole = _drawn_masks(params, 0, probs, bitgen)
    monkeypatch.setattr(engine, "_CHUNK", 7)
    chunked = _drawn_masks(params, 0, probs, bitgen)
    assert len(whole) == len(chunked) == 5
    assert whole[-1][0].shape[0] > 7  # the last level spans several chunks
    for (a, x), (b, y) in zip(whole, chunked):
        assert x == y
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n, m, depth, p, seed", CHUNK_CASES)
def test_realization_from_rows_equals_generated(n, m, depth, p, seed):
    params = PercolationParams(n, m, depth, ProbSequence.mfp(p), seed=seed)
    rows = [lvl.copy() for lvl in generate(params).levels]
    r = generate(params)  # its levels are decoded only below
    handmade = Realization(params, rows)
    assert handmade.counts == r.counts
    _assert_levels_equal(handmade.levels, r.levels)
    back = realization_from_dict(realization_to_dict(r))
    assert back.counts == r.counts
    _assert_levels_equal(back.levels, r.levels)
    if (n, m) == (2, 2):
        assert np.array_equal(render_raster(handmade, depth), render_raster(r, depth))


def test_levels_are_decoded_once_and_read_only():
    r = generate(_params(n=2, m=3, depth=3, seq=ProbSequence.mfp(0.8), seed=4))
    assert r.levels is r.levels
    assert not any(lvl.flags.writeable for lvl in r.levels)


def test_constructor_leaves_the_callers_rows_writable():
    rows = [np.zeros((1, 2), dtype=np.uint64), np.array([[0, 1]], dtype=np.uint64)]
    r = Realization(_params(n=2, m=2, depth=1), rows)
    assert all(a.flags.writeable for a in rows)
    rows[1][0, 1] = 0  # the realization holds its own copy
    assert r.levels[1].tolist() == [[0, 1]]


@pytest.mark.parametrize(
    "row, match",
    [
        ([0, 0, 0], "2 coordinates each"),
        ([0], "2 coordinates each"),
        ([0, -1], "out of range"),
        ([0.5, 0], "must be integers"),
        (["1", 0], "must be integers"),
    ],
    ids=["three-coordinates", "one-coordinate", "negative", "fraction", "string"],
)
def test_malformed_rows_rejected_by_both_entry_points(row, match):
    params = _params(n=2, m=2, depth=1)
    with pytest.raises(InvalidParamsError, match=match):
        Realization(params, [[[0, 0]], [row]])
    d = realization_to_dict(generate(params))
    d["levels"][1] = [row]
    with pytest.raises(InvalidParamsError, match=match):
        realization_from_dict(d)


@pytest.mark.parametrize(
    "levels, match",
    [
        ([[[0]], [[1], [0]]], "level 1 addresses not strictly sorted"),
        ([[[0]], [[1], [1]]], "level 1 addresses not strictly sorted"),
        ([[[0]], [[1]], [[0]]], "nesting violated at level 2"),  # parent 0 is absent
        ([[[0]], [[0]], [[0], [1], [2]]], "nesting violated at level 2"),  # parent 1 past the end
        ([[[0]], [], [[2]]], "nesting violated at level 2"),  # under an empty level
    ],
    ids=["unsorted", "duplicated", "parent-absent", "parent-past-the-end", "empty-parent-level"],
)
def test_handmade_tables_must_be_sorted_and_nested(levels, match):
    with pytest.raises(InvalidParamsError, match=match):
        Realization(_params(n=1, m=2, depth=len(levels) - 1), levels)


def test_rows_past_the_level_side_rejected():
    # a coordinate >= m^k would not survive packing into a level-k key
    with pytest.raises(InvalidParamsError, match="out of range at level 1"):
        Realization(_params(n=2, m=2, depth=1), [np.zeros((1, 2)), np.array([[0, 2]])])


def test_level_count_other_than_depth_plus_one_rejected():
    # one level short of depth 3: survives() and measure_at(3) would have nothing to read
    params = PercolationParams(2, 2, 3, ProbSequence.mfp(0.9))
    with pytest.raises(InvalidParamsError, match="expected 4 levels, got 2"):
        Realization(params, [np.zeros((1, 2)), [[0, 1]]])
    with pytest.raises(InvalidParamsError, match="expected 4 levels, got 2"):
        realization_from_dict({**realization_to_dict(generate(params)), "levels": [[[0, 0]], [[0, 1]]]})


def _traced_peak(fn):
    """fn's result and the peak of the memory it traced beyond what was held before."""
    outer = tracemalloc.is_tracing()
    if not outer:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not outer:
            tracemalloc.stop()


def test_generate_peak_memory_per_level_k_cell():
    # render-large's shape: the packed store holds a level as 8 B keys and
    # builds it from 1 B of mask per candidate plus one chunk, where
    # coordinate columns next to the keys took ~33 B per level-K cell
    params = PercolationParams(2, 2, 12, ProbSequence.mfp(0.95), seed=0)
    r, peak = _traced_peak(lambda: generate(params))
    assert peak < 16 * r.counts[12]


def _assert_render_peak_bounded_by_the_raster(p):
    # K=12: render holds the raster (1 B per pixel), the level above it as a
    # bitmap (1 B per cell of side 2^11) and a few chunks of candidates,
    # whatever X_K is; no 8 B key per cell of any level
    params = PercolationParams(2, 2, 12, ProbSequence.mfp(p), seed=0)
    counts = sample_counts(params)
    grid, peak = _traced_peak(lambda: render_level(params, 12))
    assert np.count_nonzero(grid) == counts[12]
    bound = 4**12 + 4**11 + 40 * engine._CHUNK
    assert peak < bound < 8 * counts[12]
    return counts


def test_render_level_peak_memory_holds_no_level_k_keys():
    _assert_render_peak_bounded_by_the_raster(0.95)  # render-large's shape


def test_render_level_peak_memory_does_not_grow_with_the_cell_count():
    # fat regime: X_K is ~4^12 (~99.9% of the pixels set), and the same
    # bound holds
    counts = _assert_render_peak_bounded_by_the_raster(0.9999)
    assert counts[12] > 0.99 * 4**12


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


def test_pgm_maps_every_nonzero_value_to_255():
    data = pgm_bytes(np.array([[0, 1], [2, 3]]))
    assert data == b"P5\n2 2\n255\n" + b"\x00\xff\xff\xff"


def test_pgm_of_a_strided_grid_matches_its_c_ordered_copy(monkeypatch):
    monkeypatch.setattr(engine, "_PGM_BLOCK", 3)  # several row blocks, each of several tiles
    grid = np.random.default_rng(5).integers(0, 3, size=(11, 7)).astype(np.uint8)
    view = grid.T[::-1]
    assert pgm_bytes(view) == pgm_bytes(np.ascontiguousarray(view))
    assert pgm_bytes(view)[len(b"P5\n11 7\n255\n"):] == (
        np.where(np.ascontiguousarray(view) != 0, 255, 0).astype(np.uint8).tobytes()
    )


def test_pgm_header_for_larger_raster():
    r = generate(_params(n=2, m=2, depth=3, seq=ProbSequence.mfp(0.9), seed=9))
    data = pgm_bytes(render_raster(r, 3))
    assert data.startswith(b"P5\n8 8\n255\n")
    assert len(data) == len(b"P5\n8 8\n255\n") + 64


# -- render_level: the rendered level straight into the raster ----------------------


def _reference_render(params, level, stream=0):
    """The grid of ``render_level``: the realization cut to ``level``, rasterized."""
    return render_raster(generate(replace(params, depth=max(level, 1)), stream), level)


RENDER_CASES = [
    (2, 6, ProbSequence.mfp(0.85), 3, 0),
    (3, 4, ProbSequence.mfp(0.8), 5, 2),
    (2, 5, ProbSequence.mfp(1e-12), 3, 0),
    (2, 5, FULL, 0, 0),
    (2, 6, ProbSequence.power_telescope(0.7, 0.5), 8, 1),
    (3, 4, ProbSequence.explicit([0.6, 0.8], tail=0.9), 2, 0),
]


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize(
    "m, depth, seq, seed, stream", RENDER_CASES,
    ids=["m2", "m3", "extinct", "p1", "telescope", "explicit-tail"],
)
def test_render_level_matches_the_rendered_realization(monkeypatch, chunk, m, depth, seq, seed, stream):
    # a chunk of 7 candidates splits every rendered level past level 1 into
    # many chunks, mid-parent whenever 7 is not a multiple of m^2
    if chunk is not None:
        monkeypatch.setattr(engine, "_CHUNK", chunk)
    params = PercolationParams(2, m, depth, seq, seed=seed)
    counts = sample_counts(params, stream)
    for level in (0, 1, depth - 2, depth):
        got = render_level(params, level, stream)
        want = _reference_render(params, level, stream)
        assert got.shape == want.shape == (m**level, m**level)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.count_nonzero(got) == counts[level]
    if seq.p_at(1) > 0.5:
        assert counts[depth] > 7


def tailless_seqs():
    # defined on its prefix only: a run reaching the level past it alive raises
    return st.builds(
        lambda prefix: ProbSequence.explicit(sorted(prefix)),
        st.lists(st.floats(0.3, 1.0), min_size=1, max_size=4),
    )


@settings(max_examples=100, deadline=None)
@given(
    seq=st.one_of(catalog_seqs(), explicit_tail_seqs(), tailless_seqs()),
    m=st.integers(2, 3),
    depth_level=st.integers(1, 5).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))),
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    budget=st.integers(1, 4000),
)
def test_render_level_outcome_matches_the_reference(seq, m, depth_level, seed, stream, budget):
    # grid, budget error (level, count, budget) or prefix error, whichever the reference gives
    depth, level = depth_level
    params = PercolationParams(2, m, depth, seq, seed=seed, cell_budget=budget)
    want = _outcome(lambda: _reference_render(params, level, stream).tolist())
    assert _outcome(lambda: render_level(params, level, stream).tolist()) == want


@pytest.mark.parametrize("level", [2, 3])
def test_render_level_budget_error_matches_generate(level):
    # level 2's 16 candidates pass the budget of 10: rendered at level 2, stored at 3
    params = _params(n=2, m=2, depth=4, budget=10)
    with pytest.raises(BudgetExceededError) as want:
        generate(replace(params, depth=level))
    with pytest.raises(BudgetExceededError) as got:
        render_level(params, level)
    fields = (got.value.level, got.value.count, got.value.budget)
    assert fields == (want.value.level, want.value.count, want.value.budget) == (2, 16, 10)
    assert render_level(params, 1).tolist() == [[1, 1], [1, 1]]


def _refuse_draws(monkeypatch, message):
    # render enters the level loop through _draw_levels and draws every word
    # through _keep_mask
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    for name in ("_draw_levels", "_keep_mask"):
        monkeypatch.setattr(engine, name, refuse)


def test_render_level_zero_draws_nothing(monkeypatch):
    # the level-0 raster is the root pixel, whatever the budget or the stream's cells
    _refuse_draws(monkeypatch, "level 0 drew a level")
    assert render_level(_params(n=2, m=2, depth=3, budget=1), 0).tolist() == [[1]]


def test_render_level_tailless_prefix_error_matches_generate():
    params = _params(n=2, m=2, depth=5, seq=ProbSequence.explicit([0.9, 0.9]), seed=1)
    assert sample_counts(replace(params, depth=2))[2] > 0  # level 3 is reached alive
    for level in (3, 4):
        with pytest.raises(InvalidParamsError) as want:
            generate(replace(params, depth=level))
        with pytest.raises(InvalidParamsError) as got:
            render_level(params, level)
        assert str(got.value) == str(want.value)
    assert np.array_equal(render_level(params, 2), _reference_render(params, 2))


@pytest.mark.parametrize("level", [1, 2, 5])
def test_render_level_builds_no_key_level(monkeypatch, level):
    # every level is a bitmap of its own side: no level's keys are
    # gathered or sorted, and every candidate is expanded from a bitmap slice
    def refuse(*args, **kwargs):
        raise AssertionError("render built a key level")

    monkeypatch.setattr(engine, "_next_level_packed", refuse)
    built = []
    bitmap = engine._next_bitmap

    def counted(parents, m, side, bitgen, bound):
        child, kept = bitmap(parents, m, side, bitgen, bound)
        built.append((parents.dtype, parents.shape[0], child.shape[0]))
        return child, kept

    monkeypatch.setattr(engine, "_next_bitmap", counted)
    grid = render_level(_params(n=2, m=2, depth=6), level)  # every cell lives
    assert built == [(np.uint8, 4 ** (k - 1), 4**k) for k in range(1, level + 1)]
    assert grid.all()


def test_render_level_checks_before_drawing(monkeypatch):
    _refuse_draws(monkeypatch, "drew before the checks")
    with pytest.raises(InvalidParamsError, match=r"level 4 outside \[0, 3\]"):
        render_level(_params(n=2, m=2, depth=3), 4)
    with pytest.raises(RasterTooLargeError):
        render_level(_params(n=2, m=2, depth=13), 13)
    with pytest.raises(UnsupportedDimensionError):
        render_level(_params(n=3, m=2, depth=2), 2)
    with pytest.raises(InvalidParamsError, match="stream"):
        render_level(_params(n=2, m=2, depth=3), 3, stream=2**64)


def test_render_level_underflowed_level_draws_nothing(monkeypatch):
    # p_1 = (1e-200)^2 underflows to 0: level 1 has no bound, keeps nothing
    # and draws no word, so the raster of any level past it is empty
    params = _params(n=2, m=2, depth=4, seq=ProbSequence.power_head(1e-200, 2))
    assert engine._keep_bound(params.seq.p_at(1)) is None
    drawn = []
    monkeypatch.setattr(engine, "_keep_mask", _recording(engine._keep_mask, drawn))
    for level in (1, 3):
        want = _reference_render(params, level)
        drawn.clear()
        got = render_level(params, level)
        assert np.array_equal(got, want)
        assert got.shape == (2**level, 2**level) and not got.any()
        [(bitgen, size, bound)] = drawn
        assert (size, bound) == (4, None)
        assert bitgen.state["state"]["counter"].tolist() == [0, 0, 0, 0]  # no word drawn


def _recording(fn, calls):
    def recorded(bitgen, size, bound):
        calls.append((bitgen, size, bound))
        return fn(bitgen, size, bound)

    return recorded


@pytest.mark.parametrize("m", [2, 3])
def test_render_level_extinct_above_the_level_is_an_empty_raster(m):
    # one cell at level 1, none at level 2: the last bitmap drawn is level
    # 2's, and the level-4 raster is still of side m^4
    params = _params(n=2, m=m, depth=5, seq=ProbSequence.mfp(0.1), seed=0)
    assert sample_counts(params)[:3] == [1, 1, 0]
    assert np.count_nonzero(render_level(params, 1)) == 1
    got = render_level(params, 4)
    assert got.shape == (m**4, m**4) and got.dtype == np.uint8 and not got.any()
    assert np.array_equal(got, _reference_render(params, 4))


def test_render_level_slices_of_one_parent(monkeypatch):
    # a chunk below m^n = 9 makes every bitmap slice a single cell, so each
    # expansion sees at most one parent and draws at most m^n words
    monkeypatch.setattr(engine, "_CHUNK", 5)
    params = PercolationParams(2, 3, 4, ProbSequence.mfp(0.8), seed=5)
    drawn = []
    monkeypatch.setattr(engine, "_keep_mask", _recording(engine._keep_mask, drawn))
    got = render_level(params, 4)
    assert {size for _, size, _ in drawn} == {9}
    assert len(drawn) == sum(sample_counts(params)[:4])
    monkeypatch.undo()
    assert np.count_nonzero(got) > 9
    assert np.array_equal(got, _reference_render(params, 4))


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
    assert len(d["levels"][2]) >= 2
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
