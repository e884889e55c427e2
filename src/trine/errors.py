"""Exception types shared across the package."""


class TrineError(Exception):
    """Base class for all errors raised by this package."""


class _LineError(TrineError):
    """Malformed input file. Carries the offending line number, if known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EdgeListError(_LineError):
    """Malformed edge-list input. Carries the offending line number."""


class SchemaError(TrineError):
    """Node label or metapath inconsistent with the declared schema."""


class ConfigError(TrineError):
    """Invalid configuration value or combination."""


class SamplerError(TrineError):
    """Negative sampling cannot produce a valid sample."""


class EmptyGraphError(TrineError, ValueError):
    """A graph has no nodes or no edges to train on."""


class NonFiniteError(TrineError):
    """A parameter update produced NaN or Inf."""


class EmbeddingFileError(_LineError):
    """Malformed embedding file. Carries the offending line number."""


class EvalError(TrineError):
    """Evaluation harness cannot proceed (degenerate data or metrics)."""
