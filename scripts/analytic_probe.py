"""Print one repr line per call of the analytic and windowed layer.

The grid is fixed: catalog families at ten base probabilities spanning
(0, 1), a few explicit sequences (with and without a tail, and tails at
and just above each survival boundary m^-n),
four geometries, five windows (two of them below the minimum
windowed span) and the three methods.  Every call prints the repr of what it
returns, or ``(error type, message)`` when it raises.  Two versions of the
package that print byte-identical output compute bit-identical values and
raise the same errors everywhere on the grid.

    PYTHONPATH=src python scripts/analytic_probe.py > probe.txt
"""

import math

from perclab import (
    ExponentSpec,
    ProbSequence,
    alpha_estimate,
    beta_estimate,
    classify,
    dim_assouad,
    dim_hausdorff,
    dim_packing,
    expected_measure,
    full_report,
)

PS = (1e-300, 1e-6, 0.1, 0.25, 0.45, 0.5, 0.7, 0.9, 0.99, 1.0 - 2.0**-52)
GEOMETRIES = ((1, 2), (2, 3), (3, 5), (2, 10))
WINDOWS = ((64, 512), (1, 9), (16, 64), (100, 180), (1, 5))
METHODS = ("auto", "analytic", "windowed")
PER_GEOMETRY = (full_report, classify, beta_estimate, dim_hausdorff, dim_packing, dim_assouad)


def sequences():
    for p in PS:
        yield f"mfp({p!r})", ProbSequence.mfp(p)
        for a in (1.5, 3.0):
            yield f"power_head({p!r}, {a!r})", ProbSequence.power_head(p, a)
        for a in (0.5, 0.1):
            yield f"power_telescope({p!r}, {a!r})", ProbSequence.power_telescope(p, a)
        for values, tail in (((2.0, 1.0), 0.25), ((5.0,), 0.01)):
            espec = ExponentSpec.explicit_list(values, tail)
            yield f"power({p!r}, {values!r}, {tail!r})", ProbSequence.power(p, espec)
    yield "explicit((0.3, 0.5), 0.7)", ProbSequence.explicit([0.3, 0.5], tail=0.7)
    yield "explicit((0.3, 0.5), 1.0)", ProbSequence.explicit([0.3, 0.5], tail=1.0)
    yield "explicit((), 1.0)", ProbSequence.explicit([], tail=1.0)
    yield "explicit((0.9,) * 600, 1.0)", ProbSequence.explicit([0.9] * 600, tail=1.0)
    for n, m in GEOMETRIES:
        edge = float(m) ** (-n)
        yield f"explicit((), {edge!r})", ProbSequence.explicit([], tail=edge)
        above = math.nextafter(edge, 1.0)
        yield f"explicit((), {above!r})", ProbSequence.explicit([], tail=above)
    yield "explicit((0.9,) * 512)", ProbSequence.explicit([0.9] * 512)
    yield "explicit((0.9,) * 20)", ProbSequence.explicit([0.9] * 20)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the probe records every error as a result
        return type(exc).__name__, str(exc)


def main():
    for label, seq in sequences():
        for n, m in GEOMETRIES:
            for window in WINDOWS:
                for method in METHODS:
                    for fn in PER_GEOMETRY:
                        got = outcome(fn, seq, n, m, window=window, method=method)
                        print(repr((label, fn.__name__, n, m, window, method, got)))
        for window in WINDOWS:
            for method in METHODS:
                got = outcome(alpha_estimate, seq, window=window, method=method)
                print(repr((label, "alpha_estimate", window, method, got)))
        for n, m in GEOMETRIES:
            for method in ("auto", "windowed"):
                got = outcome(expected_measure, seq, n, m, method=method)
                print(repr((label, "expected_measure", n, m, method, got)))


if __name__ == "__main__":
    main()
