"""Exception types raised by netchrono operations."""
from __future__ import annotations


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
