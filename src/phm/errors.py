"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` used by the CLI:
1 = input could not be parsed, 2 = a precondition was violated,
3 = a numerical stage could not produce a result.
"""


class PhmError(Exception):
    exit_code = 1


class ParseError(PhmError):
    """Malformed file content (PLY header/payload, CSV, config document)."""

    exit_code = 1


class ColorMissing(PhmError):
    """PLY vertex element lacks red/green/blue properties."""

    exit_code = 2


class EmptyCloud(PhmError):
    """A point cloud (or index) with zero points."""

    exit_code = 2


class TooManySeeds(PhmError):
    """Farthest point sampling asked for more seeds than points."""

    exit_code = 2


class CloudTooSmall(PhmError):
    """Not enough points for the requested neighborhood size."""

    exit_code = 2


class ShapeError(PhmError):
    """Signal length does not match the graph/spectrum it is used with."""

    exit_code = 2


class DomainError(PhmError):
    """Numeric argument outside the documented domain."""

    exit_code = 2


class SpectralError(PhmError):
    """Eigendecomposition failed to converge."""

    exit_code = 3


class FitError(PhmError):
    """Logistic fit impossible (degenerate predictions or too few records)."""

    exit_code = 3


class CorrelationUndefined(PhmError):
    """Correlation requested on a zero-variance input."""

    exit_code = 3


class TestUndefined(PhmError):
    """F-test denominator has zero variance."""

    exit_code = 3
    __test__ = False  # keep pytest from collecting the Test* name
