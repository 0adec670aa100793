"""Exception types shared across the package."""


class HclError(Exception):
    """Base class for all package errors."""


class ShapeError(HclError, ValueError):
    """Operands have incompatible shapes; the message names both."""


class ContractError(HclError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateBatchError(ContractError):
    """A batch cannot support the requested loss (e.g. no valid label has
    both positives and negatives); the message describes the composition."""


class IngestionError(HclError, ValueError):
    """A data file is malformed; the message carries file and line context."""


class ConfigError(HclError, ValueError):
    """A run configuration key is missing, unknown, or out of range."""


class NumericError(HclError, ArithmeticError):
    """A non-finite value appeared where the computation cannot proceed."""


class OutputError(HclError):
    """An output file cannot be written; the message names the path and the
    OS reason."""
