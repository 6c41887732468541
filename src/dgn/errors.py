"""Exception types shared across the package."""


class DgnError(Exception):
    """Base class for all package errors."""


class ZeroVectorRow(DgnError):
    """A row that must be normalized has (near-)zero norm."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"row {index} has norm <= 1e-12 and cannot be normalized")


class NonUnitInput(DgnError):
    """An input vector expected on the unit sphere is off-sphere."""


class DimensionMismatch(DgnError):
    """Operand shapes do not agree."""


class DegenerateRow(DgnError):
    """A posterior row has no probability mass (all effective weights zero)."""


class DegenerateCluster(DgnError):
    """A cluster's weighted embedding sum vanished."""

    def __init__(self, cluster: int, message: str | None = None):
        self.cluster = cluster
        super().__init__(message or f"cluster {cluster} has vanishing weighted mass")


class EmptyLabelSet(DgnError):
    """A supervised loss was called with zero labeled points."""


class InvalidBeta(DgnError):
    """Truncation threshold outside (0, 1]."""


class SingleCluster(DgnError):
    """An operation requiring >= 2 clusters got fewer."""


class ShapeMismatch(DgnError):
    """Gradient/parameter containers do not line up."""


class StaleCache(DgnError):
    """A forward cache does not correspond to the given parameters."""


class EmptyScene(DgnError):
    """A scene with zero points where at least one is required."""


class LengthMismatch(DgnError):
    """Paired label vectors differ in length."""


class ParseError(DgnError):
    """A structured text or binary file failed to parse."""

    def __init__(self, path: str, line: int, reason: str):
        self.path = path
        self.line = line
        self.reason = reason
        super().__init__(f"{path}:{line}: {reason}")
