"""Sampling engine for fat fractal percolation realizations.

One realization subdivides the unit n-cube into m^n children per cell,
retaining each child of a surviving parent independently with probability
p_k at round k, down to a finite depth K.  Only surviving cells are stored,
each level as its sorted row-major uint64 keys (8 bytes per cell), so
memory tracks the live population and a realization needs m^(nK) <= 2^64.
A planar render holds each level instead as a 0/1 bitmap of its own side,
indexed by the same keys, so its memory is bounded by the raster; it
expands a level by writing each parent's children through strided views of
the bitmaps, and builds no key.

Randomness is a Philox-4x64 counter-based stream keyed by (seed, stream);
one raw 64-bit word is drawn per candidate child in a fixed order (parents
in sorted order, children in digit order), and a child is kept iff its word
is at most an exact bound from p_k, which is the same test as u < p_k on the
uniform u numpy's Philox makes of that word.  So a realization is
bit-identical across runs and platforms for a fixed key and a fixed numpy,
and distinct replicates use disjoint keyed streams.  Every sampler draws
through one loop, :func:`_draw_levels`, which re-keys one bit generator per
stream.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from . import _import_numpy_without_blas_pool
from .errors import (
    DEFAULT_CELL_BUDGET,
    BudgetExceededError,
    InvalidParamsError,
    RasterTooLargeError,
    UnsupportedDimensionError,
)
from .probseq import KIND_EXPLICIT, ProbSequence

np = _import_numpy_without_blas_pool()

MAX_RASTER_SIDE = 4096
_PGM_BLOCK = 256  # side of the image tiles converted at a time

_MASK64 = (1 << 64) - 1
_COORD_LIMIT = 1 << 63  # per-axis coordinates must stay packable
_KEY_LIMIT = 1 << 64  # a packed level key must fit in uint64
_CHUNK = 1 << 18  # candidates drawn and expanded at a time within one level


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
    """Philox-4x64 generator keyed by (seed, stream); the replicate stream contract.

    Its ``random()`` variates are the uniforms u that the draw loop tests
    as u < p_k, one per raw word; :func:`_draw_levels` makes the same test
    on the words themselves.
    """
    return np.random.Generator(_key_stream(np.random.Philox(), seed, stream))


_EMPTY_BLOCK = (0, 0, 0, 0)


def _check_stream(stream: int) -> None:
    """A stream is the second word of the Philox key, so it must fit 64 bits."""
    if not 0 <= stream <= _MASK64:
        raise InvalidParamsError(f"stream must lie in [0, 2^64), got {stream}")


def _key_stream(bitgen: np.random.Philox, seed: int, stream: int) -> np.random.Philox:
    """Set ``bitgen`` to the start of the stream keyed (seed, stream); return it.

    The state is that of a fresh ``Philox(key=[seed, stream])``, whatever
    ``bitgen`` drew before: counter 0, an empty four-word buffer and no
    buffered uint32.  The dict follows numpy's Philox state layout.  Setting
    it costs a fraction of building a bit generator, so a caller drawing
    many streams re-keys one; its construction-time seed is overwritten.
    """
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": _EMPTY_BLOCK, "key": (seed & _MASK64, stream & _MASK64)},
        "buffer": _EMPTY_BLOCK,
        "buffer_pos": len(_EMPTY_BLOCK),
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def _keep_bound(p: float) -> np.uint64 | None:
    """The largest raw Philox word kept at probability p; None when p is 0.

    numpy's Philox ``next_double`` maps a raw word x to u = (x >> 11) * 2^-53,
    so u < p iff x >> 11 < ceil(p * 2^53) iff x <= (ceil(p * 2^53) << 11) - 1.
    Scaling by 2^53 is exact, and p = 1 gives 2^64 - 1, which keeps every
    word.
    """
    t = math.ceil(p * 2.0**53)
    return np.uint64((t << 11) - 1) if t else None


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

    Each level is held as its sorted row-major keys
    sum_a X_a * (m^k)^(n-1-a), 8 bytes per cell, so m^(nK) <= 2^64.
    ``levels`` is decoded from the keys on first read and cached;
    ``counts``, ``measure_at`` and ``survives`` read only each level's
    length.  The constructor checks coordinate rows, as a handmade table or
    :func:`realization_from_dict` gives them, and packs them.
    """

    __slots__ = ("params", "stream", "_cells", "_levels")

    def __init__(self, params: PercolationParams, levels, stream: int = 0):
        _check_key_width(params)
        levels = list(levels)
        if len(levels) != params.depth + 1:
            raise InvalidParamsError(f"expected {params.depth + 1} levels, got {len(levels)}")
        cells: list[np.ndarray] = []
        for k, rows in enumerate(levels):
            cells.append(_level_keys(params, k, rows, cells[-1] if k else None))
        self._init(params, cells, stream)

    @classmethod
    def _of_cells(cls, params: PercolationParams, cells, stream: int) -> "Realization":
        """A realization from each level's sorted keys, taken as they are."""
        self = cls.__new__(cls)
        self._init(params, cells, stream)
        return self

    def _init(self, params, cells, stream):
        self.params = params
        self.stream = stream
        self._cells = tuple(_frozen(a) for a in cells)
        self._levels = None

    @property
    def levels(self) -> tuple[np.ndarray, ...]:
        if self._levels is None:
            m, n = self.params.m, self.params.n
            self._levels = tuple(
                _frozen(_unpack(a, np.uint64(m**k), n)) for k, a in enumerate(self._cells)
            )
        return self._levels

    @property
    def counts(self) -> list[int]:
        return [int(a.shape[0]) for a in self._cells]

    def measure_at(self, k: int) -> float:
        """Lebesgue measure of the level-k union: X_k * m^(-n k)."""
        if not 0 <= k <= self.params.depth:
            raise InvalidParamsError(f"level {k} outside [0, {self.params.depth}]")
        return self._cells[k].shape[0] * float(self.params.m) ** (-self.params.n * k)

    def survives(self) -> bool:
        """Finite-depth survival proxy: any cell alive at the deepest level.

        Overestimates true (infinite-depth) survival; deeper K tightens it.
        """
        return self._cells[self.params.depth].shape[0] > 0


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_key_width(params: PercolationParams) -> None:
    # the deepest level's keys are below (m^K)^n
    if params.m ** (params.n * params.depth) > _KEY_LIMIT:
        raise InvalidParamsError(
            f"m^(n*depth) = {params.m}^{params.n * params.depth} exceeds 2^64, "
            "past the uint64 keys that hold each level"
        )


def _level_keys(params: PercolationParams, k: int, rows, above) -> np.ndarray:
    """Sorted keys of one level's coordinate rows, checked against the level above.

    The rows must be an (X_k, n) table of integers in [0, m^k) (integral
    floats count), strictly sorted, each with its parent in ``above``, the
    keys of level k-1.  An empty level may have any empty shape.
    """
    n, m = params.n, params.m
    try:
        a = np.asarray(rows)
    except ValueError:
        raise InvalidParamsError(f"level {k} rows are ragged") from None
    if a.size == 0:
        return np.zeros(0, dtype=np.uint64)
    if a.shape != a.shape[:1] + (n,):
        raise InvalidParamsError(f"level {k} rows must hold {n} coordinates each")
    if a.dtype.kind not in "iuf" or (a.dtype.kind == "f" and not np.all(a == np.floor(a))):
        raise InvalidParamsError(f"level {k} coordinates must be integers")
    if a.min() < 0 or a.max() >= m**k:
        raise InvalidParamsError(f"coordinate out of range at level {k}")
    a = a.astype(np.uint64)
    key = _pack(a, np.uint64(m**k))
    if not np.all(key[1:] > key[:-1]):
        raise InvalidParamsError(f"level {k} addresses not strictly sorted")
    if k:
        parent = _pack(a // np.uint64(m), np.uint64(m ** (k - 1)))
        found = above.take(np.searchsorted(above, parent), mode="clip") if above.size else above
        if not np.array_equal(found, parent):
            raise InvalidParamsError(f"nesting violated at level {k}")
    return key


def _digit_block(m: int, n: int) -> np.ndarray:
    # child offsets in lexicographic digit order, axis 0 most significant
    return np.array(list(itertools.product(range(m), repeat=n)), dtype=np.uint64)


def _pack(cells: np.ndarray, side: np.uint64) -> np.ndarray:
    """Row-major key of each row, sum_a X_a * side^(n-1-a), as uint64.

    The arithmetic wraps modulo 2^64, so the key is exact whenever its true
    value fits, whatever the intermediate values.
    """
    key = cells[:, 0].copy()
    for axis in range(1, cells.shape[1]):
        key *= side
        key += cells[:, axis]
    return key


def _unpack(key: np.ndarray, side: np.uint64, n: int) -> np.ndarray:
    """Coordinate rows of packed keys."""
    cells = np.empty((key.shape[0], n), dtype=np.uint64)
    if n > 1:
        key = key.copy()
    for axis in range(n - 1, 0, -1):
        np.divmod(key, side, out=(key, cells[:, axis]))
    cells[:, 0] = key
    return cells


def _offsets(m: int, n: int, side: int) -> np.ndarray:
    # each child's key at ``side`` less m * its parent's, in digit order; built
    # only once a level's candidates passed the budget, as m^n may be ~2^63
    return _pack(_digit_block(m, n), np.uint64(side))


def _candidates(parents, offsets, m, side, n):
    """Keys at ``side`` of every child of ``parents`` (keys at side // m), in draw order.

    A child's key is m * (its parent's key at this side) plus its digit
    offset's key: parents in the given order, children in digit order.
    """
    base = _pack(_unpack(parents, np.uint64(side // m), n), np.uint64(side))
    base *= np.uint64(m)
    return (base[:, None] + offsets).reshape(-1)


def _next_level_packed(parents, m, n, side, keep, kept) -> np.ndarray:
    """Sorted keys at ``side`` of the ``kept`` children that ``keep`` selects.

    ``parents`` are the previous level's sorted keys.  Their candidates are
    built about _CHUNK at a time, and each chunk's kept keys go straight
    into one array of ``kept`` keys, which is then sorted in place, so
    beyond the mask a level costs 8 bytes per kept cell plus one chunk.
    """
    mn = m**n
    offsets = _offsets(m, n, side)
    step = max(1, _CHUNK // mn)
    out = np.empty(kept, dtype=np.uint64)
    pos = 0
    for lo in range(0, parents.shape[0], step):
        chunk = parents[lo : lo + step]
        chosen = _candidates(chunk, offsets, m, side, n)[keep[lo * mn : (lo + chunk.shape[0]) * mn]]
        out[pos : pos + chosen.shape[0]] = chosen
        pos += chosen.shape[0]
    if n > 1:
        out.sort()  # keys are unique, so stability is moot
    return out


def _keep_mask(bitgen: np.random.Philox, size: int, bound: np.uint64) -> np.ndarray:
    """Whether each of the next ``size`` raw words of ``bitgen`` is at most ``bound``.

    Past one chunk the words are drawn _CHUNK at a time: consecutive draws
    continue the stream, so the words are the same.
    """
    if size <= _CHUNK:
        return bitgen.random_raw(size) <= bound
    keep = np.empty(size, dtype=bool)
    for lo in range(0, size, _CHUNK):
        # a chunk's words stay unnamed: freed before the next chunk is drawn
        np.less_equal(bitgen.random_raw(min(_CHUNK, size - lo)), bound, out=keep[lo : lo + _CHUNK])
    return keep


def _count_kept(k, bitgen, candidates, bound) -> int:
    # the level drawer of sample_counts: the kept count, no cell
    return int(np.count_nonzero(_keep_mask(bitgen, candidates, bound)))


def _draw_levels(params: PercolationParams, streams, draw):
    """Yield the kept counts X_1, X_2, ... of each stream's realization, in stream order.

    The stream contract of every sampler and the one place that rules which
    level is drawn and how.  Per call it builds each level's bound once and
    one Philox, re-keyed by :func:`_key_stream` to (seed, stream) before
    each stream.  Level k has X_{k-1} * m^n candidates, parents in sorted
    order and children in digit order.  If they would exceed the cell
    budget, the run aborts with the level and count (conservative on
    purpose: it also bounds peak memory).  Otherwise ``draw(k, bitgen,
    candidates, bound)`` draws one raw word per candidate in that order,
    keeps a child iff :func:`_keep_mask` does, and returns the kept count.
    ``bound`` is ``_keep_bound(p_k)``: a word is at most it iff u < p_k for
    the uniform u the word gives as a variate of ``stream_generator(seed,
    stream).random()``, so p_k = 1 always retains.  A p_k that underflowed
    to 0 has no bound: the stream ends there with X_k = 0, and ``draw`` is
    not called.  Past a tail-less prefix, ``p_at`` raises.  Drawing stops
    after the first empty level.
    """
    bounds = tuple(map(_keep_bound, level_probs(params)))
    bitgen = np.random.Philox()
    mn = params.m**params.n
    for stream in streams:
        _key_stream(bitgen, params.seed, stream)
        counts = []
        kept = 1
        for k in range(1, params.depth + 1):
            candidates = kept * mn
            if candidates > params.cell_budget:
                raise BudgetExceededError(k, candidates, params.cell_budget)
            bound = bounds[k - 1] if k <= len(bounds) else params.seq.p_at(k)  # raises there
            kept = 0 if bound is None else draw(k, bitgen, candidates, bound)
            counts.append(kept)
            if kept == 0:
                break
        yield counts


def generate(params: PercolationParams, stream: int = 0) -> Realization:
    """Sample one realization level by level, drawing through :func:`_draw_levels`.

    Each level is ordered through one row-major uint64 key per cell,
    sum_a X_a * (m^k)^(n-1-a): its whole keep mask is drawn, then children
    are expanded as keys in chunks, selected into one array and sorted in
    place with ``ndarray.sort``; the level is kept as those keys.  Params
    with m^(nK) > 2^64, whose deepest keys would pass 64 bits, and a stream
    outside [0, 2^64) raise InvalidParamsError before any draw.
    """
    _check_stream(stream)
    _check_key_width(params)
    m, n = params.m, params.n
    cells = [np.zeros(1, dtype=np.uint64)]

    def next_level(k, bitgen, candidates, bound):
        keep = _keep_mask(bitgen, candidates, bound)
        kept = int(np.count_nonzero(keep))
        cells.append(_next_level_packed(cells[-1], m, n, m**k, keep, kept))
        return kept

    next(_draw_levels(params, (stream,), next_level))
    cells.extend(np.zeros(0, dtype=np.uint64) for _ in range(len(cells), params.depth + 1))
    return Realization._of_cells(params, cells, stream)


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


def sample_counts(params: PercolationParams, stream: int = 0) -> list[int]:
    """Level counts X_0..X_K of ``generate(params, stream)``, without its cells.

    Draws through the same :func:`_draw_levels` loop, so it consumes the
    same words and raises the same errors at the same level, but keeps
    only each level's kept count: no coordinate is expanded, sorted or
    stored.  A stream outside [0, 2^64) raises InvalidParamsError, as in
    :func:`generate`.
    """
    _check_stream(stream)
    return next(_replicate_counts(params, (stream,)))


def _replicate_counts(params: PercolationParams, streams):
    """Yield ``sample_counts(params, stream)`` for each of ``streams``, from one draw loop."""
    for counts in _draw_levels(params, streams, _count_kept):
        yield [1, *counts] + [0] * (params.depth - len(counts))


# ---------------------------------------------------------------------------
# raster output (n = 2)


def raster_side(n: int, m: int, k: int) -> int:
    """Side m^k of the level-k raster of an (n, m) realization.

    Raises unless that raster can be drawn: it needs n = 2 and a side of at
    most ``MAX_RASTER_SIDE``.  Both depend on the shape alone, so a caller
    can check before sampling anything.
    """
    if n != 2:
        raise UnsupportedDimensionError(f"raster output needs n = 2, got n = {n}")
    side = m**k
    if side > MAX_RASTER_SIDE:
        raise RasterTooLargeError(f"raster side m^k = {side} exceeds {MAX_RASTER_SIDE}")
    return side


def render_raster(realization: Realization, k: int) -> np.ndarray:
    """Binary occupancy grid of level k for a planar realization.

    Row 0 is the top of the image, i.e. the cells with maximal second
    coordinate; columns follow the first coordinate.  The grid is a
    flipped, transposed view, not a C-ordered array.
    """
    params = realization.params
    if not 0 <= k <= params.depth:
        raise InvalidParamsError(f"level {k} outside [0, {params.depth}]")
    side = raster_side(params.n, params.m, k)
    flat = np.zeros(side * side, dtype=np.uint8)
    # the key x * side + y is the flat index of cell (x, y) in the transposed
    # grid; keys stay below 2^24, so their int64 view is exact
    flat[realization._cells[k].view(np.intp)] = 1
    return _image(flat, side)


def render_level(params: PercolationParams, level: int, stream: int = 0) -> np.ndarray:
    """The grid ``render_raster(generate(params cut to depth level, stream), level)``.

    Deeper levels draw later in the stream, so the grid does not depend on
    ``params.depth`` past ``level``.  Every level is drawn through
    :func:`_draw_levels`, with the words :func:`generate` draws and the same
    budget and prefix errors at the same level, but is held as a 0/1 bitmap
    of its own side m^k, not as keys: a cell's flat index is its row-major
    key, and the level-``level`` bitmap is the raster.  Each level is built
    from the one above by :func:`_next_bitmap`, which writes every kept
    child straight to its pixel through strided views of the two bitmaps,
    so no cell's key is ever built.  Only those two bitmaps are held, so
    render peaks at the raster plus 1/m^2 of it plus a few chunks,
    whatever the cell counts.  Level 0 is the root pixel and draws nothing.
    The level and the raster side are checked before any draw.
    """
    if not 0 <= level <= params.depth:
        raise InvalidParamsError(f"level {level} outside [0, {params.depth}]")
    side = raster_side(params.n, params.m, level)
    _check_stream(stream)
    flat = np.ones(1, dtype=np.uint8)  # level 0: the root cell

    def next_level(k, bitgen, candidates, bound):
        nonlocal flat
        flat, kept = _next_bitmap(flat, params.m, params.m**k, bitgen, bound)
        return kept

    if level:
        next(_draw_levels(replace(params, depth=level), (stream,), next_level))
    if flat.shape[0] < side * side:  # extinct above the rendered level
        flat = np.zeros(side * side, dtype=np.uint8)
    return _image(flat, side)


def _next_bitmap(parents, m, side, bitgen, bound):
    """The level bitmap at ``side`` under the level bitmap ``parents``, and its cell count.

    Both bitmaps are viewed as square grids, cell (x, y) at row x and
    column y, so a parent's m^2 children fill the m x m block at rows
    m*x .. m*x+m-1 and columns m*y .. m*y+m-1.  ``parents`` is scanned in
    key order in slices of at most _CHUNK // m^2 cells: whole rows when a
    row fits in one slice, pieces of one row when it does not.  A slice
    draws m^2 words per live parent, continuing the stream: its mask is
    (live, m, m), parents in key order and digits (dx, dy) in digit order.
    The m digits dy of one child row dx are m adjacent bytes in both the
    mask and the new bitmap, so each is moved as one m-byte item: for each
    dx, one boolean assignment through the slice's live cells into rows
    dx, dx + m, ... of the slice's band of the new bitmap.  That assignment
    follows the cells' C order, which is the parents' key order, so every
    word lands on the pixel its child's key names, and no key is built.
    """
    top = side // m  # the parents' side
    above = parents.view(bool).reshape(top, top)
    child = np.zeros(side * side, dtype=np.uint8)
    run = np.dtype((np.void, m))  # one child row of one parent: m bytes
    runs = child.view(run).reshape(side, top)
    step = max(1, _CHUNK // (m * m))
    rows, width = max(1, step // top), min(step, top)
    kept = 0
    for x0 in range(0, top, rows):
        band = runs[m * x0 : m * (x0 + rows)]
        for y0 in range(0, top, width):
            alive = above[x0 : x0 + rows, y0 : y0 + width]
            live = int(np.count_nonzero(alive))
            if live:
                keep = _keep_mask(bitgen, live * m * m, bound)
                drawn = keep.view(run).reshape(live, m)
                for dx in range(m):
                    band[dx::m, y0 : y0 + width][alive] = drawn[:, dx]
                kept += int(np.count_nonzero(keep))
    return child, kept


def _image(flat: np.ndarray, side: int) -> np.ndarray:
    # row 0 at the top: the flat buffer, transposed and flipped
    return flat.reshape(side, side).T[::-1]


def pgm_bytes(grid: np.ndarray) -> bytes:
    """Binary PGM (P5, maxval 255): vacant (zero) 0, occupied (nonzero) 255.

    Header is exactly ``P5\\n<w> <h>\\n255\\n`` so outputs are byte-stable.
    The bytes are the chunks of :func:`_pgm_chunks` joined.
    """
    return b"".join(_pgm_chunks(grid))


def _pgm_chunks(grid: np.ndarray):
    """Yield the PGM of ``grid``: its header, then its image in blocks of _PGM_BLOCK rows.

    Each block is a new C-ordered array of 0/255 bytes, so a writer holds
    one block beyond the grid, and a consumer may keep every block.
    """
    if len(grid.shape) != 2:
        raise InvalidParamsError("grid must be 2-D")
    h, w = grid.shape
    yield f"P5\n{w} {h}\n255\n".encode("ascii")
    for top in range(0, h, _PGM_BLOCK):
        rows = grid[top : top + _PGM_BLOCK]
        block = np.empty(rows.shape, dtype=np.uint8)
        # square tiles keep both a transposed grid's reads and the block's
        # writes within cache
        for lo in range(0, w, _PGM_BLOCK):
            cols = slice(lo, lo + _PGM_BLOCK)
            np.not_equal(rows[:, cols], 0, out=block[:, cols].view(bool))
        block *= np.uint8(255)
        yield block


# ---------------------------------------------------------------------------
# serialization


def realization_to_dict(r: Realization) -> dict:
    d = r.params.to_dict()
    d["stream"] = r.stream
    d["counts"] = r.counts
    d["levels"] = [lvl.tolist() for lvl in r.levels]
    return d


def realization_from_dict(d: dict) -> Realization:
    stream = int(d.get("stream", 0))
    _check_stream(stream)
    return Realization(PercolationParams.from_dict(d), d["levels"], stream=stream)
