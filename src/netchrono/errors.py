"""Exception types raised by netchrono operations, and the integer rule.

`_is_integer_type` is the one test of an integer (an int or numpy integer,
not a bool), read by `_require_integer` (counts), `_require_seed` (unsigned
64-bit seeds) and `graph._int64_labels` (labels).  The kind rule is
`centrality._require_kind`; n > c >= 1 is checked only by `BAConfig`.
"""
from __future__ import annotations

from numbers import Integral


class NetchronoError(Exception):
    """Base class for all netchrono errors."""


class SelfLoopError(NetchronoError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"self-loop on vertex {vertex} is not allowed")


class UnknownVertexError(NetchronoError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} is not in the graph")


class InvalidConfigError(NetchronoError):
    pass


class NoConvergenceError(NetchronoError):
    pass


class InvalidDeltaError(NetchronoError):
    pass


class SizeMismatchError(NetchronoError):
    pass


class EmptyBatchError(NetchronoError):
    pass


class CyclicInputError(NetchronoError):
    pass


class NotAPartitionError(NetchronoError):
    pass


class DegenerateBinsError(NetchronoError):
    pass


class TooSmallError(NetchronoError):
    pass


class InputFormatError(NetchronoError, ValueError):
    """A malformed line in an input file; the message starts with path:line."""


def _is_integer_type(t: type) -> bool:
    """An int or numpy integer type.  bool is an Integral too, but as a
    count, a seed or a label it is surely a mistake (True would read as 1)."""
    return issubclass(t, Integral) and not issubclass(t, bool)


def _require_integer(value, name: str, low: int | None = None, high: int | None = None,
                     error: type[NetchronoError] = InvalidConfigError) -> None:
    """`error` naming `name` unless value is an integer (`_is_integer_type`),
    at least `low` and at most `high` where they are given."""
    if not (_is_integer_type(type(value)) and (low is None or low <= value)
            and (high is None or value <= high)):
        bound = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")


def _require_seed(seed, name: str = "seed") -> None:
    """InvalidConfigError naming `name` unless seed is an integer
    (`_is_integer_type`) in the unsigned 64-bit range."""
    if not _is_integer_type(type(seed)) or not 0 <= seed < 2**64:
        raise InvalidConfigError(f"{name} must be an integer, unsigned 64-bit, got {seed!r}")
