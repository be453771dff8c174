"""Exception types shared across the package."""

import copyreg


class CollapseLabError(Exception):
    """Base class for all package errors.

    An error pickles as its ``args`` and attributes and unpickles without
    calling ``__init__``, so every subclass, whatever its constructor takes,
    comes back with the same type, message and attributes (the pool sends a
    task's error back from its worker this way)."""

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidConfigError(CollapseLabError, ValueError):
    """A configuration object violates its invariants."""


class InvalidInputError(CollapseLabError, ValueError):
    """An operation received arguments outside its contract."""


class DegenerateInputError(InvalidInputError):
    """Numerically degenerate input (singular covariance, rank deficiency...)."""


class DataExhaustedError(CollapseLabError, RuntimeError):
    """The human corpus cannot supply the records a chain needs."""

    def __init__(self, generation, requested, available):
        self.generation = generation
        self.requested = requested
        self.available = available
        super().__init__(
            f"corpus exhausted at generation {generation}: "
            f"needed {requested} records, {available} left"
        )


class InvalidTraceError(CollapseLabError, ValueError):
    """A chain trace is missing data an analysis requires."""


class RankError(DegenerateInputError):
    """Design matrix is rank deficient."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"design matrix is rank deficient; dependent columns: {self.columns}")


class ShortfallError(CollapseLabError, ValueError):
    """Fewer items available than a procedure must produce."""

    def __init__(self, needed, available, what):
        self.needed = needed
        self.available = available
        super().__init__(f"needed {needed} {what}, only {available} available")


class TransportError(CollapseLabError, RuntimeError):
    """A remote call failed after retries."""


class ProtocolError(CollapseLabError, RuntimeError):
    """A remote endpoint returned a malformed response."""


class TaskError(CollapseLabError, RuntimeError):
    """Stands for a task's exception that cannot cross from its worker process
    as itself; its message is that exception's ``"Type: message"``."""
