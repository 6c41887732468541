"""Exception types shared across the package.

Each type carries the exit code ``dgn`` ends with when it reaches the
command line: 2 for a parse or configuration error, 3 for a dimension or
data error, 1 (the default) for an internal error.
"""

EXIT_INTERNAL = 1
EXIT_PARSE = 2
EXIT_DATA = 3


class DgnError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_INTERNAL

    def __init_subclass__(cls, exit_code: int = EXIT_INTERNAL, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.exit_code = exit_code


class ZeroVectorRow(DgnError, exit_code=EXIT_DATA):
    """A row that must be normalized has (near-)zero norm."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"row {index} has norm <= 1e-12 and cannot be normalized")


class NonUnitInput(DgnError, exit_code=EXIT_DATA):
    """An input vector expected on the unit sphere is off-sphere."""


class DimensionMismatch(DgnError, exit_code=EXIT_DATA):
    """Operand shapes do not agree."""


class DegenerateRow(DgnError, exit_code=EXIT_DATA):
    """A posterior row has no probability mass (all effective weights zero)."""


class NonFiniteOutput(DgnError, exit_code=EXIT_DATA):
    """The network's outputs hold a nan or inf: training has diverged."""


class EmptyLabelSet(DgnError, exit_code=EXIT_DATA):
    """A supervised loss was called with zero labeled points."""


class InvalidBeta(DgnError, exit_code=EXIT_PARSE):
    """Truncation threshold outside (0, 1]."""


class InvalidGrid(DgnError, exit_code=EXIT_PARSE):
    """An ablation grid names a key that cannot be swept."""


class SingleCluster(DgnError, exit_code=EXIT_DATA):
    """An operation requiring >= 2 clusters got fewer."""


class ShapeMismatch(DgnError, exit_code=EXIT_DATA):
    """Gradient/parameter containers do not line up."""


class StaleCache(DgnError, exit_code=EXIT_INTERNAL):
    """A forward cache does not correspond to the given parameters."""


class EmptyScene(DgnError, exit_code=EXIT_DATA):
    """A scene with zero points where at least one is required."""


class LengthMismatch(DgnError, exit_code=EXIT_DATA):
    """Paired label vectors differ in length."""


class ParseError(DgnError, exit_code=EXIT_PARSE):
    """A structured text or binary file failed to parse."""

    def __init__(self, path: str, line: int, reason: str):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(f"{path}:{line}: {reason}")
