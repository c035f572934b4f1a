"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Array or weight dimensions are inconsistent with the operation."""


class ArgumentError(ValueError):
    """An argument value is out of contract (non-finite coordinate, bad range, ...)."""


class FormatError(ValueError):
    """Malformed input file. `offset` is the byte position where parsing
    failed, or None when the fault is not at one position.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at byte offset {offset})")
        self.offset = offset


class ConfigurationError(ValueError):
    """A wiring constraint is violated (e.g. branch parameters not shared)."""


class ConvergenceError(RuntimeError):
    """An iterative procedure could not satisfy its bound."""


class CapabilityError(RuntimeError):
    """The object lacks a capability the operation requires (e.g. gradients)."""


class UsageError(RuntimeError):
    """The operation was invoked out of sequence or with an unknown selector."""
