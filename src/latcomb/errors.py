"""Exception types, and the count check, shared across the package."""


class LatcombError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(LatcombError):
    """An argument or input violates a documented precondition."""


class FormatError(ContractError):
    """A text input could not be parsed; carries file and line context."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{where} {message}" if where else message)


class NoPathError(LatcombError):
    """The machine accepts nothing: no initial-to-final path exists."""


def check_count(name: str, value: object) -> None:
    """Reject ``value`` unless it is an int (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ContractError(f"{name} must be a positive integer, got {value!r}")
