"""perclab: a desk-scale laboratory for fat fractal percolation.

Random sets built by repeated m-ary subdivision of the unit n-cube with
level-dependent retention probabilities p_k.  The package computes the
analytic fractal dimensions and survival/interior classifiers of the limit
set from the probability sequence, samples finite-depth realizations with
reproducible counter-based randomness, verifies the closed forms with Monte
Carlo estimators, and assembles witness constructions hitting prescribed
(dimension, expected measure) targets.
"""

__version__ = "0.1.0"

from .dimensions import (
    DimensionReport,
    dim_assouad,
    dim_hausdorff,
    dim_packing,
    expected_measure,
    expected_measure_limit,
    full_report,
)
from .engine import (
    PercolationParams,
    Realization,
    derive_seed,
    generate,
    pgm_bytes,
    realization_from_dict,
    realization_to_dict,
    render_raster,
    sample_counts,
)
from .errors import (
    AllExtinctError,
    BudgetExceededError,
    InternalInvariantError,
    InvalidParamsError,
    PercLabError,
    RasterTooLargeError,
    UnsupportedDimensionError,
    WindowTooSmallError,
)
from .estimators import (
    BoxFitReport,
    EstimateReport,
    branching_extinction_prob,
    estimate_boxdim,
    estimate_measure,
    estimate_survival,
)
from .probseq import (
    ClassifierReport,
    ExponentSpec,
    ProbSequence,
    alpha_estimate,
    beta_estimate,
    classify,
)
from .witness import (
    Box,
    WitnessComponent,
    WitnessReport,
    WitnessSpec,
    build_fractional_dim_witness,
    build_integer_dim_witness,
    build_positive_measure_witness,
    build_union_witness,
    build_witness,
    format_witness_ledger,
)

__all__ = [
    "__version__",
    "ProbSequence",
    "ExponentSpec",
    "ClassifierReport",
    "classify",
    "alpha_estimate",
    "beta_estimate",
    "DimensionReport",
    "full_report",
    "dim_hausdorff",
    "dim_packing",
    "dim_assouad",
    "expected_measure",
    "expected_measure_limit",
    "PercolationParams",
    "Realization",
    "generate",
    "sample_counts",
    "derive_seed",
    "render_raster",
    "pgm_bytes",
    "realization_to_dict",
    "realization_from_dict",
    "EstimateReport",
    "BoxFitReport",
    "estimate_measure",
    "estimate_survival",
    "estimate_boxdim",
    "branching_extinction_prob",
    "WitnessSpec",
    "WitnessReport",
    "WitnessComponent",
    "Box",
    "build_witness",
    "build_fractional_dim_witness",
    "build_integer_dim_witness",
    "build_positive_measure_witness",
    "build_union_witness",
    "format_witness_ledger",
    "PercLabError",
    "InvalidParamsError",
    "WindowTooSmallError",
    "BudgetExceededError",
    "AllExtinctError",
    "UnsupportedDimensionError",
    "RasterTooLargeError",
    "InternalInvariantError",
]
