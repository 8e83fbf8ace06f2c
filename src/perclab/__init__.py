"""perclab: a desk-scale laboratory for fat fractal percolation.

Random sets built by repeated m-ary subdivision of the unit n-cube with
level-dependent retention probabilities p_k.  The package computes the
analytic fractal dimensions and survival/interior classifiers of the limit
set from the probability sequence, samples finite-depth realizations with
reproducible counter-based randomness, verifies the closed forms with Monte
Carlo estimators, and assembles witness constructions hitting prescribed
(dimension, expected measure) targets.

Each public name loads its submodule on first use (PEP 562), so
``import perclab`` and the analytic layer (dimensions, classifiers,
witnesses) load no numpy.  numpy loads on the first draw or windowed
evaluation, through :func:`_import_numpy_without_blas_pool`: perclab calls
no BLAS routine, so OpenBLAS is capped at one thread, unless the caller set
a BLAS thread count or loaded numpy first, and ``os.environ`` is left as it
was found.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the submodule that defines it, in ``__all__`` order
_EXPORTS = {
    "probseq": ("ProbSequence", "ExponentSpec", "ClassifierReport", "classify", "alpha_estimate",
                "beta_estimate"),
    "dimensions": ("DimensionReport", "full_report", "dim_hausdorff", "dim_packing", "dim_assouad",
                   "expected_measure"),
    "engine": ("PercolationParams", "Realization", "generate", "sample_counts", "derive_seed", "render_level",
               "render_raster", "pgm_bytes", "realization_to_dict", "realization_from_dict"),
    "estimators": ("EstimateReport", "BoxFitReport", "estimate_measure", "estimate_survival", "estimate_boxdim",
                   "branching_extinction_prob"),
    "witness": ("WitnessSpec", "WitnessReport", "WitnessComponent", "Box", "build_witness",
                "format_witness_ledger"),
    "errors": ("PercLabError", "InvalidParamsError", "WindowTooSmallError", "BudgetExceededError",
               "AllExtinctError", "UnsupportedDimensionError", "RasterTooLargeError", "InternalInvariantError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    # looked up afresh on every access and never stored here, so a wrapper
    # installed on a submodule (a tracer's) is seen, and gone once removed
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())


def _import_numpy_without_blas_pool():
    """numpy, the one way perclab imports it.

    OpenBLAS sizes its worker pool once, when numpy loads it; one thread per
    CPU would cost ~0.1 s of CPU per process for nothing.
    """
    import os
    import sys

    chosen = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys()
    if "numpy" in sys.modules or chosen:
        return importlib.import_module("numpy")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
