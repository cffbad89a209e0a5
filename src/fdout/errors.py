"""Exception hierarchy shared by all fdout modules.

Two broad families matter for the CLI exit-code contract: input/validation
problems (exit code 2) and numeric failures (exit code 3). Everything
derives from :class:`FdoutError` so callers can catch the whole library
with one clause.
"""


class FdoutError(Exception):
    """Base class for all errors raised by fdout."""


class ValidationError(FdoutError):
    """Bad input data or parameters (CLI exit code 2)."""


class NumericError(FdoutError):
    """A numeric procedure failed on otherwise well-formed input (CLI exit code 3)."""


# --- validation errors -------------------------------------------------

class NonFiniteValue(ValidationError):
    """An array contains NaN or infinity.

    ``index`` locates the first offending entry (0-based); ``row``, ``col``
    and ``dim`` are its first three parts, None where the array has fewer
    axes.
    """

    def __init__(self, *index):
        self.index = index
        self.row, self.col, self.dim = (index + (None,) * 3)[:3]
        super().__init__(f"non-finite value at ({', '.join(map(str, index))})")


class RaggedRows(ValidationError):
    """Rows of a curve matrix do not all have the same length."""


class NonIncreasingGrid(ValidationError):
    """Grid points are not strictly increasing (or fewer than 2)."""


class DegenerateInterval(ValidationError):
    """Requested interval has non-positive length (a >= b)."""


class EmptyInput(ValidationError):
    """An operation requiring data received an empty sequence."""


class TooFewCurves(ValidationError):
    """Sample has fewer curves than the operation requires."""


class TooFewPoints(ValidationError):
    """Sample has fewer grid points than the operation requires."""


class InvalidLevel(ValidationError):
    """Significance level outside (0, 1)."""


class BadCentralRegion(ValidationError):
    """Central-region fraction outside (0, 1), or a central count outside 1..n."""


class BadRate(ValidationError):
    """Contamination rate outside [0, 1]."""


class BadModel(ValidationError):
    """Simulation model id outside 1..9."""


class BadCoverage(ValidationError):
    """MCD coverage fraction outside [0.5, 1]."""


class EmptySequence(ValidationError):
    """seq_transform received an empty transformation sequence."""


class OOnUnivariate(ValidationError):
    """The O transformation was requested on univariate data."""


class UnknownDepthMethod(ValidationError):
    """Depth/ordering method label not recognised."""


class UnknownErldType(ValidationError):
    """Extreme rank length tail convention not recognised."""


class UnknownCutMethod(ValidationError):
    """MUOD cutoff method not recognised."""


class ParseError(ValidationError):
    """A CSV cell could not be parsed.

    ``line`` and ``column`` are 1-based to match what users see in a text
    editor.
    """

    def __init__(self, line, column, message="could not parse value"):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ShapeMismatch(ValidationError):
    """Inputs that must match do not: per-dimension CSV files of different
    shapes or grids, or two of them whose ids differ in some row."""


class InconsistentReport(ValidationError):
    """A detection report does not match the sample it is plotted against."""


# --- numeric errors ----------------------------------------------------

class SingularSubsets(NumericError):
    """Every MCD candidate subset had a singular covariance matrix."""


class SingularCovariance(NumericError):
    """Covariance matrix not invertible even after regularisation."""


class NonConvergence(NumericError):
    """Iterative procedure failed to converge within its iteration budget."""


class CovarianceNotPD(NumericError):
    """Covariance matrix could not be Cholesky-factorised, even with jitter."""


class AllDegenerate(NumericError):
    """Every curve in the sample has zero variance."""


class NonFiniteIndex(NumericError):
    """A MUOD index overflows, as for curves near the largest double."""


class NonFiniteOutlyingness(NumericError):
    """Outlyingness is not finite, so no finite MO/VO summary exists: it is
    infinite where the pointwise MAD is zero and some curve is off the
    median, and NaN where deviations from the median overflow (curves near
    the largest double)."""


class NonFiniteResult(NumericError):
    """A computed result is infinite or NaN although the input is finite, as
    when curves near the largest double overflow a fence, a depth score, a
    sequential stage or a report value."""
