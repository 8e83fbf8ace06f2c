"""Print one repr line per case of the sampling layer.

The grid is fixed: seven geometries (n, m, K), two of them with levels past
64-bit packed keys, six sequences (one a tail-less prefix shorter than some
depths), two cell budgets, the smallest and largest seed, and three
streams.  Each line gives ``generate``'s level counts with a sha256 of its
level bytes, and ``sample_counts``' result.  An error prints as
``(error type, level, count, message)``, with level and count None unless
it is a budget error.  Two versions of the package that print byte-identical
output sample bit-identical realizations and raise the same errors
everywhere on the grid.

    PYTHONPATH=src python scripts/sample_probe.py > probe.txt
"""

import hashlib

from perclab import PercolationParams, ProbSequence, generate, sample_counts

GEOMETRIES = ((1, 2, 20), (2, 2, 10), (2, 3, 7), (3, 3, 5), (3, 2, 7), (2, 10, 10), (3, 4, 12))
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


if __name__ == "__main__":
    main()
