"""Print one repr line per case of the sampling layer, the renderer and the estimators.

The sampling grid is fixed: seven geometries (n, m, K), two of them with
level keys near the 64-bit limit, six sequences (one a tail-less prefix
shorter than some depths), two cell budgets, the smallest and largest seed,
and three streams.  Each line gives ``generate``'s level counts with a
sha256 of its level bytes, and ``sample_counts``' result.  Then, for the
planar (n = 2) geometries, every level whose raster side m^k is at most
4096, and the same sequences, budgets, seeds and streams, one line gives
the sha256 of ``render_level``'s grid bytes.  Then, for three
small geometries, the same sequences and both seeds, one line per estimator
gives its report as a dict: ``measure`` and ``survival`` over 100
replicates, ``boxdim`` over 10 survivors within 50 attempts each; these
draw many streams through one re-keyed bit generator.  An error prints as
``(error type, level, count, message)``, with level and count None unless
it is a budget error.  Two versions of the package that print byte-identical
output sample bit-identical realizations and estimates and raise the same
errors everywhere on the grid.

    PYTHONPATH=src python scripts/sample_probe.py > probe.txt
"""

import hashlib

from perclab import PercolationParams, ProbSequence, generate, sample_counts
from perclab.engine import MAX_RASTER_SIDE, render_level
from perclab.estimators import estimate_boxdim, estimate_measure, estimate_survival

GEOMETRIES = ((1, 2, 20), (2, 2, 10), (2, 3, 7), (3, 3, 5), (3, 2, 7), (2, 10, 9), (3, 4, 10))
SEQUENCES = (
    ("mfp(0.9)", ProbSequence.mfp(0.9)),
    ("mfp(0.5)", ProbSequence.mfp(0.5)),
    ("mfp(0.02)", ProbSequence.mfp(0.02)),
    ("power_telescope(0.3, 0.5)", ProbSequence.power_telescope(0.3, 0.5)),
    ("explicit((0.8, 0.9), 1.0)", ProbSequence.explicit([0.8, 0.9], tail=1.0)),
    ("explicit((0.95,) * 3)", ProbSequence.explicit([0.95] * 3)),
)
BUDGETS = (1 << 20, 1000)
SEEDS = (0, (1 << 64) - 1)
STREAMS = (0, 1, 2)
ESTIMATOR_GEOMETRIES = ((1, 2, 12), (2, 2, 6), (3, 2, 6))
ESTIMATORS = (
    ("measure", lambda params: estimate_measure(params, 100)),
    ("survival", lambda params: estimate_survival(params, 100)),
    ("boxdim", lambda params: estimate_boxdim(params, 10, max_attempts=50)),
)


def outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the probe records every error as a result
        return type(exc).__name__, getattr(exc, "level", None), getattr(exc, "count", None), str(exc)


def levels_digest(params, stream):
    r = generate(params, stream)
    h = hashlib.sha256()
    for level in r.levels:
        h.update(level.tobytes())
    return r.counts, h.hexdigest()


def grid_digest(params, level, stream):
    return hashlib.sha256(render_level(params, level, stream).tobytes()).hexdigest()


def main():
    for n, m, depth in GEOMETRIES:
        for label, seq in SEQUENCES:
            for budget in BUDGETS:
                for seed in SEEDS:
                    params = PercolationParams(n, m, depth, seq, seed=seed, cell_budget=budget)
                    for stream in STREAMS:
                        gen = outcome(lambda: levels_digest(params, stream))
                        counts = outcome(lambda: sample_counts(params, stream))
                        print(repr((n, m, depth, label, budget, seed, stream, gen, counts)))
    for n, m, depth in GEOMETRIES:
        if n != 2:
            continue
        for level in range(depth + 1):
            if m**level > MAX_RASTER_SIDE:
                break
            for label, seq in SEQUENCES:
                for budget in BUDGETS:
                    for seed in SEEDS:
                        params = PercolationParams(n, m, depth, seq, seed=seed, cell_budget=budget)
                        for stream in STREAMS:
                            grid = outcome(lambda: grid_digest(params, level, stream))
                            print(repr(("render", n, m, depth, level, label, budget, seed, stream, grid)))
    for n, m, depth in ESTIMATOR_GEOMETRIES:
        for label, seq in SEQUENCES:
            for seed in SEEDS:
                params = PercolationParams(n, m, depth, seq, seed=seed, cell_budget=BUDGETS[0])
                for quantity, estimate in ESTIMATORS:
                    result = outcome(lambda: estimate(params).to_dict())
                    print(repr(("estimate", quantity, n, m, depth, label, seed, result)))


if __name__ == "__main__":
    main()
