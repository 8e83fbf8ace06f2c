"""Sampling engine for fat fractal percolation realizations.

One realization subdivides the unit n-cube into m^n children per cell,
retaining each child of a surviving parent independently with probability
p_k at round k, down to a finite depth K.  Only surviving cells are stored,
as per-axis base-m coordinates, so memory tracks the live population.

Randomness is a Philox-4x64 counter-based stream keyed by (seed, stream);
variates are consumed in a fixed order (parents in sorted order, children in
digit order), so a realization is bit-identical across runs and platforms
for a fixed key, and distinct replicates use disjoint keyed streams.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceededError,
    InvalidParamsError,
    RasterTooLargeError,
    UnsupportedDimensionError,
)
from .probseq import KIND_EXPLICIT, ProbSequence

DEFAULT_CELL_BUDGET = 1 << 26
MAX_RASTER_SIDE = 4096

_MASK64 = (1 << 64) - 1
_COORD_LIMIT = 1 << 63  # per-axis coordinates must stay packable
_KEY_LIMIT = 1 << 64  # a packed level key must fit in uint64


def splitmix64(x: int) -> int:
    """One splitmix64 output for input x; the standard finalizer constants."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, index: int) -> int:
    """Fixed mixing for derived seeds (sweep points)."""
    return splitmix64(((seed & _MASK64) + index) & _MASK64)


def stream_generator(seed: int, stream: int) -> np.random.Generator:
    """Philox-4x64 generator keyed by (seed, stream); the replicate stream contract."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PercolationParams:
    """Full recipe for one realization: geometry, sequence, seed, budget."""

    n: int
    m: int
    depth: int
    seq: ProbSequence
    seed: int = 0
    cell_budget: int = DEFAULT_CELL_BUDGET

    def __post_init__(self):
        if not 1 <= self.n <= 3:
            raise InvalidParamsError(f"ambient dimension n must be 1..3, got {self.n}")
        if self.m < 2:
            raise InvalidParamsError(f"subdivision index m must be >= 2, got {self.m}")
        if self.depth < 1:
            raise InvalidParamsError(f"depth must be >= 1, got {self.depth}")
        if not 0 <= self.seed <= _MASK64:
            raise InvalidParamsError("seed must fit in 64 unsigned bits")
        if self.cell_budget < 1:
            raise InvalidParamsError("cell_budget must be >= 1")
        if self.m**self.n > _COORD_LIMIT:
            raise InvalidParamsError(f"m^n = {self.m}^{self.n} exceeds 64-bit packing")
        # m >= 2 puts every depth past 63 over the limit; testing that first
        # keeps m**depth from being built as a huge integer
        if self.depth > 63 or self.m**self.depth > _COORD_LIMIT:
            raise InvalidParamsError(
                f"m^depth = {self.m}^{self.depth} exceeds the coordinate packing limit"
            )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "depth": self.depth,
            "seed": self.seed,
            "cell_budget": self.cell_budget,
            "seq": self.seq.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PercolationParams":
        return cls(
            n=int(d["n"]),
            m=int(d["m"]),
            depth=int(d["depth"]),
            seq=ProbSequence.from_dict(d["seq"]),
            seed=int(d.get("seed", 0)),
            cell_budget=int(d.get("cell_budget", DEFAULT_CELL_BUDGET)),
        )


class Realization:
    """Surviving-cell table of one sampled percolation, levels 0..K.

    ``levels[k]`` is an (X_k, n) uint64 array of per-axis coordinates at
    level k, sorted lexicographically with axis 0 most significant.  The
    cells nest: every level-k cell's parent (coordinates // m) survives at
    level k-1.  Arrays are read-only; instances are safe to share.
    """

    __slots__ = ("params", "stream", "levels")

    def __init__(self, params: PercolationParams, levels, stream: int = 0):
        self.params = params
        self.stream = stream
        frozen = []
        for arr in levels:
            a = np.ascontiguousarray(arr, dtype=np.uint64)
            a.setflags(write=False)
            frozen.append(a)
        self.levels = tuple(frozen)

    @property
    def counts(self) -> list[int]:
        return [int(a.shape[0]) for a in self.levels]

    def measure_at(self, k: int) -> float:
        """Lebesgue measure of the level-k union: X_k * m^(-n k)."""
        if not 0 <= k <= self.params.depth:
            raise InvalidParamsError(f"level {k} outside [0, {self.params.depth}]")
        return self.levels[k].shape[0] * float(self.params.m) ** (-self.params.n * k)

    def survives(self) -> bool:
        """Finite-depth survival proxy: any cell alive at the deepest level.

        Overestimates true (infinite-depth) survival; deeper K tightens it.
        """
        return self.levels[self.params.depth].shape[0] > 0


def _digit_block(m: int, n: int) -> np.ndarray:
    # child offsets in lexicographic digit order, axis 0 most significant
    return np.array(list(itertools.product(range(m), repeat=n)), dtype=np.uint64)


def _pack(cells: np.ndarray, side: np.uint64) -> np.ndarray:
    """Row-major key of each row, sum_a X_a * side^(n-1-a), as uint64.

    The arithmetic wraps modulo 2^64, so the key is exact whenever its true
    value fits, whatever the intermediate terms.
    """
    key = cells[:, 0].copy()
    for axis in range(1, cells.shape[1]):
        key *= side
        key += cells[:, axis]
    return key


def _unpack(key: np.ndarray, side: np.uint64, n: int) -> np.ndarray:
    """Coordinate rows of packed keys; consumes ``key``."""
    cells = np.empty((key.shape[0], n), dtype=np.uint64)
    for axis in range(n - 1, 0, -1):
        np.divmod(key, side, out=(key, cells[:, axis]))
    cells[:, 0] = key
    return cells


def _next_level_packed(parents, block, m, side, keep) -> np.ndarray:
    # candidate keys in draw order: parents in sorted order, children in
    # digit order; a child's key is m * (its parent's key at this side) plus
    # its digit offset's key
    side64 = np.uint64(side)
    base = _pack(parents, side64)
    base *= np.uint64(m)
    key = (base[:, None] + _pack(block, side64)[None, :]).reshape(-1)[keep]
    if block.shape[1] > 1:
        key.sort()  # keys are unique, so stability is moot
    return _unpack(key, side64, block.shape[1])


def _next_level_lexsort(parents, block, m, keep) -> np.ndarray:
    n = block.shape[1]
    children = (parents[:, None, :] * np.uint64(m) + block[None, :, :]).reshape(-1, n)
    kept = children[keep]
    del children
    return kept[np.lexsort(tuple(kept[:, axis] for axis in range(n - 1, -1, -1)))]


def _draw_levels(params: PercolationParams, stream: int, probs: tuple[float, ...]):
    """Yield (keep mask, kept count) for levels 1, 2, ... of one realization.

    The stream contract of :func:`generate` and :func:`sample_counts`.  Level
    k has X_{k-1} * m^n candidates, parents in sorted order and children in
    digit order.  If they would exceed the cell budget, the run aborts with
    the level and count (conservative on purpose: it also bounds peak
    memory).  Otherwise one uniform per candidate is drawn from the keyed
    stream in that order, and a child is kept iff its variate is strictly
    below p_k, so p_k = 1 always retains.  Past a tail-less prefix, ``p_at``
    raises.  Drawing stops after the first empty level.
    """
    rng = stream_generator(params.seed, stream)
    mn = params.m**params.n
    kept = 1
    for k in range(1, params.depth + 1):
        candidates = kept * mn
        if candidates > params.cell_budget:
            raise BudgetExceededError(k, candidates, params.cell_budget)
        p = probs[k - 1] if k <= len(probs) else params.seq.p_at(k)
        keep = rng.random(candidates) < p
        kept = int(np.count_nonzero(keep))
        yield keep, kept
        if kept == 0:
            return


def generate(params: PercolationParams, stream: int = 0) -> Realization:
    """Sample one realization level by level, drawing through :func:`_draw_levels`.

    Each level is ordered through one row-major uint64 key per cell,
    sum_a X_a * (m^k)^(n-1-a): children are expanded as keys, selected,
    sorted with ``ndarray.sort`` and decoded into coordinate columns.  A
    level whose keys would pass 64 bits (m^(nk) > 2^64) expands coordinate
    columns and orders them with ``np.lexsort`` instead.  Both give the same
    sorted level.
    """
    m, n = params.m, params.n
    levels: list[np.ndarray] = [np.zeros((1, n), dtype=np.uint64)]
    for k, (keep, _) in enumerate(_draw_levels(params, stream, level_probs(params)), 1):
        if k == 1:
            # only now that m^n candidates passed the budget: m^n may be ~2^63
            block = _digit_block(m, n)
        side = m**k
        if side**n <= _KEY_LIMIT:
            levels.append(_next_level_packed(levels[-1], block, m, side, keep))
        else:
            levels.append(_next_level_lexsort(levels[-1], block, m, keep))
    empty = np.zeros((0, n), dtype=np.uint64)
    levels.extend([empty] * (params.depth + 1 - len(levels)))
    return Realization(params, levels, stream)


def level_probs(params: PercolationParams) -> tuple[float, ...]:
    """p_1..p_K of params, cut short where the sequence ends.

    A tail-less explicit sequence is defined only on its prefix.  The levels
    past it are left out, so a sampler fails on one of them only if it
    reaches it with live cells.
    """
    seq = params.seq
    depth = params.depth
    if seq.kind == KIND_EXPLICIT and seq.tail is None:
        depth = min(depth, len(seq.prefix))
    return tuple(seq.p_at(k) for k in range(1, depth + 1))


def sample_counts(
    params: PercolationParams, stream: int = 0, probs: tuple[float, ...] | None = None
) -> list[int]:
    """Level counts X_0..X_K of ``generate(params, stream)``, without its cells.

    Draws through the same :func:`_draw_levels` loop, so it consumes the
    same uniforms and raises the same errors at the same level, but keeps
    only each level's kept count: no coordinate is expanded, sorted or
    stored.  ``probs`` is ``level_probs(params)``; callers sampling many
    streams pass it once.
    """
    if probs is None:
        probs = level_probs(params)
    counts = [1]
    counts.extend(kept for _, kept in _draw_levels(params, stream, probs))
    counts.extend([0] * (params.depth + 1 - len(counts)))
    return counts


# ---------------------------------------------------------------------------
# raster output (n = 2)


def render_raster(realization: Realization, k: int) -> np.ndarray:
    """Binary occupancy grid of level k for a planar realization.

    Row 0 is the top of the image, i.e. the cells with maximal second
    coordinate; columns follow the first coordinate.
    """
    params = realization.params
    if params.n != 2:
        raise UnsupportedDimensionError(f"raster output needs n = 2, got n = {params.n}")
    if not 0 <= k <= params.depth:
        raise InvalidParamsError(f"level {k} outside [0, {params.depth}]")
    side = params.m**k
    if side > MAX_RASTER_SIDE:
        raise RasterTooLargeError(f"raster side m^k = {side} exceeds {MAX_RASTER_SIDE}")
    grid = np.zeros((side, side), dtype=np.uint8)
    cells = realization.levels[k]
    if cells.shape[0]:
        # row side-1-y, column x, as one index into the flat grid
        flat = np.subtract(side - 1, cells[:, 1], dtype=np.intp)
        flat *= side
        np.add(flat, cells[:, 0], out=flat, dtype=np.intp)
        grid.reshape(-1)[flat] = 1
    return grid


def pgm_bytes(grid: np.ndarray) -> bytes:
    """Binary PGM (P5, maxval 255): vacant 0, occupied 255.

    Header is exactly ``P5\\n<w> <h>\\n255\\n`` so outputs are byte-stable.
    """
    if grid.ndim != 2:
        raise InvalidParamsError("grid must be 2-D")
    h, w = grid.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + (grid.astype(np.uint8) * np.uint8(255)).tobytes()


# ---------------------------------------------------------------------------
# serialization


def realization_to_dict(r: Realization) -> dict:
    d = r.params.to_dict()
    d["stream"] = r.stream
    d["counts"] = r.counts
    d["levels"] = [lvl.tolist() for lvl in r.levels]
    return d


def realization_from_dict(d: dict) -> Realization:
    params = PercolationParams.from_dict(d)
    raw_levels = d["levels"]
    if len(raw_levels) != params.depth + 1:
        raise InvalidParamsError(
            f"expected {params.depth + 1} levels, got {len(raw_levels)}"
        )
    levels = []
    prev: set[tuple[int, ...]] | None = None
    for k, rows in enumerate(raw_levels):
        arr = np.array(rows, dtype=np.uint64).reshape(len(rows), params.n)
        limit = params.m**k
        if arr.size and int(arr.max()) >= limit:
            raise InvalidParamsError(f"coordinate out of range at level {k}")
        tuples = [tuple(map(int, row)) for row in arr.tolist()]
        if any(tuples[i] >= tuples[i + 1] for i in range(len(tuples) - 1)):
            raise InvalidParamsError(f"level {k} addresses not strictly sorted")
        if prev is not None:
            for t in tuples:
                if tuple(x // params.m for x in t) not in prev:
                    raise InvalidParamsError(f"nesting violated at level {k}")
        prev = set(tuples)
        levels.append(arr)
    return Realization(params, levels, stream=int(d.get("stream", 0)))
