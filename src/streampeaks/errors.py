"""Shared exception types."""


class StreamClusteringError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(StreamClusteringError):
    """Point dimensionality differs from the stream's declared dimension."""


class NonFiniteInput(StreamClusteringError, ValueError):
    """Point coordinate or timestamp is NaN or infinite."""


class OutOfOrderTimestamp(StreamClusteringError):
    """Point arrived with a timestamp earlier than one already processed."""


class UnknownCell(StreamClusteringError, KeyError):
    """Cell id not present in the store."""


class CellStateError(StreamClusteringError):
    """Operation applied to a cell in the wrong activation state."""


class ConfigError(StreamClusteringError, ValueError):
    """Invalid or inconsistent run configuration."""


class EngineStateError(StreamClusteringError):
    """Engine method called in the wrong lifecycle phase."""


class StreamFormatError(StreamClusteringError):
    """Malformed stream input: bad header, wrong arity, unparsable value."""


class MissingLabels(StreamClusteringError):
    """Evaluation requested on a stream that carries no ground-truth labels."""
