"""Exception hierarchy.

Two branches below the package base class:

* ``DataError`` -- the inputs are malformed or incompatible with the
  requested configuration (bad shapes, zeros with a nonpositive alpha,
  missing columns, ...).  The CLI maps these to exit code 2.
* ``NumericalError`` -- the computation itself broke down (singular
  systems, non-finite residuals, degenerate kernel weights, ...).
  The CLI maps these to exit code 3.
"""


class AlphaRegError(Exception):
    """Base class for all errors raised by this package."""


class DataError(AlphaRegError):
    """Invalid or incompatible input data."""


class NumericalError(AlphaRegError):
    """Numerical failure during a computation."""


# -- data / configuration errors ---------------------------------------------

class NegativeEntry(DataError):
    """A composition contains a negative entry."""


class ZeroRow(DataError):
    """A row of raw amounts sums to zero and cannot be closed."""


class InvalidDimension(DataError):
    """A dimension argument is out of range (e.g. fewer than 2 components)."""


class DimensionMismatch(DataError):
    """Matrix shapes are not conformable."""


class ShapeMismatch(DataError):
    """Two arrays that must share a shape do not."""


class ZeroWithNonpositiveAlpha(DataError):
    """The data contain zeros but the transform parameter is <= 0."""


class ZeroWithLogRatio(DataError):
    """A log-ratio transform was requested on data containing zeros."""


class NegativeWeight(DataError):
    """A residual weight is negative."""


class InvalidK(DataError):
    """Neighbor count outside 1 <= k <= n-1."""


class NonpositiveBandwidth(DataError):
    """Kernel bandwidth must be strictly positive."""


class OutOfRangeCoordinate(DataError):
    """Latitude or longitude outside its valid range."""


class InterceptEffectRequested(DataError):
    """Marginal effects are defined for covariates, not the intercept."""


class NonpositiveFitted(DataError):
    """Fitted compositions must be strictly positive for divergence scoring."""


class AllCoincident(DataError):
    """Pairwise distances are all zero; no bandwidth heuristic exists."""


class MissingColumn(DataError):
    """A required column is absent from the input file."""


class NonNumericCell(DataError):
    """A cell could not be parsed as a number (reports row and column)."""


class InvalidParameters(DataError):
    """A parameter value violates its documented range."""


class TrainingDataChanged(DataError):
    """The training file a result document names is missing or was edited."""


# -- numerical errors ---------------------------------------------------------

class OutOfImage(NumericalError):
    """A point does not lie in the image of the forward transformation."""


class NonFiniteResidual(NumericalError):
    """The residual or Jacobian evaluated to NaN or infinity."""


class SingularNormalEquations(NumericalError):
    """The damped normal equations are unsolvable even at maximum damping."""


class SingularH(NumericalError):
    """The curvature matrix of the covariance estimator is ill-conditioned."""


class DegenerateWeights(NumericalError):
    """All non-self kernel weights underflowed to zero at the given bandwidth."""


class CovarianceNotPsd(NumericalError):
    """A covariance estimate has eigenvalues below the rounding tolerance."""
