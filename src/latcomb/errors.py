"""Exception types, the count check and checked records, shared across the package."""


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


class Checked:
    """Base that runs a record's ``_check`` however the record is built.

    For a class ``Name(Checked, _NameFields)`` whose ``_NameFields`` is a
    ``typing.NamedTuple``: the constructor (which unpickling, under every
    protocol, and ``copy`` call too) and ``_make`` (which ``_replace``
    calls) both return what ``_check`` returns, the record itself or one
    with normalized values.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._check()

    @classmethod
    def _make(cls, iterable):
        return super()._make(iterable)._check()

    def __reduce__(self):
        return type(self), tuple(self)
