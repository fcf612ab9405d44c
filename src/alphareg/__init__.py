"""Regression for compositional responses via a power-parameterized
transformation, with spatially lagged covariates and locally weighted
variants, leave-one-out hyper-parameter selection, and marginal-effect
inference.
"""

from .exceptions import (
    AlphaRegError,
    AllCoincident,
    CovarianceNotPsd,
    DataError,
    DegenerateWeights,
    DimensionMismatch,
    InterceptEffectRequested,
    InvalidDimension,
    InvalidK,
    InvalidParameters,
    MissingColumn,
    NegativeEntry,
    NegativeWeight,
    NonFiniteResidual,
    NonNumericCell,
    NonpositiveBandwidth,
    NonpositiveFitted,
    NumericalError,
    OutOfImage,
    OutOfRangeCoordinate,
    ShapeMismatch,
    SingularH,
    SingularNormalEquations,
    TrainingDataChanged,
    ZeroRow,
    ZeroWithLogRatio,
    ZeroWithNonpositiveAlpha,
)
from .simplex import (
    alpha_transform,
    alpha_transform_inverse,
    closure,
    helmert_submatrix,
    ilr_transform,
    power_transform,
)
from .optim import (
    Convergence,
    LmOptions,
    LmResult,
    ResidualSystem,
    apply_weights,
    levenberg_marquardt,
)
from .regression import (
    FitResult,
    RowBlocks,
    fit_alpha_batch,
    fit_alpha_regression,
    fitted_mean,
    gradient,
    hessian_exact,
    hessian_gauss_newton,
    kld,
    predict,
    residual_system,
    sse,
    transformed_mean,
)
from .spatial import (
    GeoCoordinates,
    GwarFit,
    SlxFit,
    chordal_distance_sq,
    contiguity_matrix,
    fit_alpha_slx,
    fit_gwar,
    gaussian_kernel_weights,
    neighbor_lag,
    neighbor_table,
    pairwise_chordal_sq,
    predict_gwar,
    row_weights,
    spatial_lag,
    to_cartesian,
)
from .inference import (
    CovarianceEstimate,
    SlxEffects,
    average_marginal_effects,
    bootstrap_ame_standard_errors,
    bootstrap_covariance,
    gwar_marginal_effects,
    marginal_effects,
    sandwich_covariance,
    slx_effects,
)
from .selection import (
    CvGrid,
    CvResult,
    default_h_grid,
    default_k_grid,
    loocv_alpha,
    loocv_gwar,
    loocv_slx,
    median_heuristic_bandwidth,
    select,
)
from .datasets import (DatasetSpec, generate_synthetic, load_covariates, load_dataset,
                       synthesize)
from .run import RunConfig, run_cv, run_fit

__version__ = "0.1.0"
