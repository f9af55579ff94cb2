"""Data-driven identification of linear dynamics and input maps.

Estimates one-step operators from snapshot data by truncated-SVD
regression, with and without knowledge of the actuation map, and turns
the fits into reduced-order state-space models for simulation and
frequency-domain comparison.
"""

from .dmd import (
    DmdcModel,
    dmd_fit,
    split_trajectory,
)
from .dmdc import (
    IdentifiabilityReport,
    dmdc_fit_known_b,
    dmdc_fit_unknown_b,
)
from .errors import (
    DegenerateMatrixError,
    DivergenceError,
    DmdcError,
    FormatError,
    InsufficientDataError,
    InvalidConfigError,
    InvalidInputError,
    LengthError,
    NumericalFailureError,
    ParseError,
    SchemaError,
    ShapeError,
    SingularFrequencyError,
    TruncationOrderError,
    UsageError,
)
from .linalg import (
    EigenDecomposition,
    TruncatedSvd,
    eig,
    numerical_rank,
    truncated_svd,
)
from .rom import (
    FrequencyResponseCurve,
    StateSpaceRealization,
    default_frequency_grid,
    frequency_response,
    match_eigenvalues,
    mode_cosine_similarities,
    realize,
    realize_truth,
    simulate,
    spectral_distance,
)
from .synth import (
    ActuationSpec,
    GroundTruth,
    SynthDataset,
    add_noise,
    gen_example1,
    gen_example2,
    gen_random_inputs,
    gen_random_stable_ss,
    gen_sparse_fourier,
)

__version__ = "0.1.0"

__all__ = [
    "ActuationSpec",
    "DegenerateMatrixError",
    "DivergenceError",
    "DmdcError",
    "DmdcModel",
    "EigenDecomposition",
    "FormatError",
    "FrequencyResponseCurve",
    "GroundTruth",
    "IdentifiabilityReport",
    "InsufficientDataError",
    "InvalidConfigError",
    "InvalidInputError",
    "LengthError",
    "NumericalFailureError",
    "ParseError",
    "SchemaError",
    "ShapeError",
    "SingularFrequencyError",
    "StateSpaceRealization",
    "SynthDataset",
    "TruncatedSvd",
    "TruncationOrderError",
    "UsageError",
    "add_noise",
    "default_frequency_grid",
    "dmd_fit",
    "dmdc_fit_known_b",
    "dmdc_fit_unknown_b",
    "eig",
    "frequency_response",
    "gen_example1",
    "gen_example2",
    "gen_random_inputs",
    "gen_random_stable_ss",
    "gen_sparse_fourier",
    "match_eigenvalues",
    "mode_cosine_similarities",
    "numerical_rank",
    "realize",
    "realize_truth",
    "simulate",
    "spectral_distance",
    "split_trajectory",
    "truncated_svd",
]
