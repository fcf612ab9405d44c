"""Exception hierarchy.

Two branches below the package base class:

* ``DataError`` -- the inputs are malformed or incompatible with the
  requested configuration (bad shapes, zeros with a nonpositive alpha,
  missing columns, ...).  The CLI maps these to exit code 2.
* ``NumericalError`` -- the computation itself broke down (singular
  systems, non-finite residuals, degenerate kernel weights, ...).
  The CLI maps these to exit code 3.

Four data errors refine others, so one ``except`` clause catches each
kind at every entry point: :class:`ShapeMismatch` is a
:class:`DimensionMismatch`; :class:`NonpositiveBandwidth` and
:class:`InvalidK` are :class:`InvalidParameters`, each raised by one rule
(``spatial._check_bandwidth``, ``spatial._check_k``); and
:class:`ZeroWithLogRatio`, zeros at alpha = 0, is a
:class:`ZeroWithNonpositiveAlpha`, whether alpha is fixed or on a grid.  A
NaN or an infinity in an array, whether a cell of a file or an entry of an
array passed to the library, is a :class:`NonNumericCell`.

:func:`check_integer` is the one rule for an integer setting, and
:func:`check_real` the one for a real-valued setting; each returns the
value as a Python ``int`` or ``float``, which a setting stores.
"""

import numpy as np


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


class ShapeMismatch(DimensionMismatch):
    """Two arrays that must share a shape do not."""


class ZeroWithNonpositiveAlpha(DataError):
    """The data contain zeros but the transform parameter is <= 0."""


class ZeroWithLogRatio(ZeroWithNonpositiveAlpha):
    """A log-ratio transform (alpha = 0) was requested on data containing zeros."""


class NegativeWeight(DataError):
    """A residual weight is negative."""


class InvalidParameters(DataError):
    """A parameter value violates its documented range."""


class InvalidK(InvalidParameters):
    """Integer neighbor count below 1, or above what the locations allow:
    n-1 for n locations, n-2 in a leave-one-out search."""


class NonpositiveBandwidth(InvalidParameters):
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
    """A cell of a file, or an entry of an array passed to the library, is
    not a finite number; the message names the row and the column."""


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
    """The covariance estimator's design or curvature is ill-conditioned."""


class DegenerateWeights(NumericalError):
    """All non-self kernel weights underflowed to zero at the given bandwidth."""


def check_integer(name, value, least=None):
    """:class:`InvalidParameters` unless ``value`` is an ``int`` or a numpy
    integer (never a bool, and never a float, which would be truncated) of
    at least ``least``, when given.  Returns it as an int."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (least is not None and value < least)):
        bounds = "" if least is None else f" >= {least}"
        raise InvalidParameters(f"{name} must be an integer{bounds}, got {value!r}")
    return int(value)


def check_real(name, value, interval):
    """:class:`InvalidParameters` unless ``value`` is a real number (an
    ``int``, a ``float`` or a numpy real; never a bool, a string or NaN) in
    ``interval``, written as in mathematics: ``"[-1, 1]"``, ``"(0, inf)"``.
    Returns it as a float."""
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not (low <= value if interval[0] == "[" else low < value)
            or not (value <= high if interval[-1] == "]" else value < high)):
        bound = (f"lie in {interval}" if high < np.inf
                 else f"be finite and {'>=' if interval[0] == '[' else '>'} {low:g}")
        raise InvalidParameters(f"{name} must {bound}, got {value!r}")
    return float(value)
