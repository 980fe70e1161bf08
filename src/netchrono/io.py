"""Text file formats: edge lists and chronologies.

Edge list: one edge per line as two whitespace-separated non-negative
integers; lines starting with '#' are comments.  A graph whose labels are
contiguous 0..N-1 carries a "# vertices: N" header so isolated vertices
survive a round trip; a file has at most one.

Chronology: one vertex label per line, in arrival order.

Writers refuse a label no reader takes (negative, repeated, non-integer) before opening the file.

Readers reject a malformed line with an `InputFormatError` naming
path:line: a wrong number of fields, a label or a "# vertices:" count
that is not a non-negative ASCII decimal integer, a label or a vertex
count above the int64 maximum (graphs store labels as int64), in an edge
list a second "# vertices: N" header or, after one, a label of N or
more, and in a chronology a label listed twice.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import InputFormatError, NetchronoError
from .graph import Chronology, UndirectedGraph, _csr_layout, from_edge_list

_VERTICES_HEADER = re.compile(r"#\s*vertices:(.*)$")
_LABEL_MAX = 2**63 - 1


def _labels(line: str, count: int, path, lineno: int) -> list[int]:
    """The line's `count` whitespace-separated non-negative integer labels."""
    parts = line.split()
    if len(parts) != count:
        raise InputFormatError(
            f"{path}:{lineno}: expected {count} label(s), got {line!r}")
    for token in parts:
        if not (token.isascii() and token.isdecimal()):
            raise InputFormatError(
                f"{path}:{lineno}: {token!r} is not a non-negative integer label")
    return [_bounded(token, "label", path, lineno) for token in parts]


def _bounded(digits: str, what: str, path, lineno: int) -> int:
    """The decimal `digits` as an int, rejected above the int64 maximum.
    A longer string is converted only when its significant digits are 19
    or fewer: `int` refuses a string of over 4300 digits."""
    if len(digits) <= 19 and (value := int(digits)) <= _LABEL_MAX:
        return value
    significant = digits.lstrip("0") or "0"
    if len(significant) > 19 or int(significant) > _LABEL_MAX:
        raise InputFormatError(
            f"{path}:{lineno}: {what} {significant} is above the int64 maximum {_LABEL_MAX}")
    return int(significant)


def write_edge_list(g: UndirectedGraph, path: str | Path) -> None:
    labels, indptr, _ = g.csr_arrays()
    if len(labels) and labels[0] < 0:
        raise NetchronoError(f"label {labels[0]} is negative: an edge list holds labels >= 0")
    contiguous = np.array_equal(labels, np.arange(len(labels)))
    if np.any(np.diff(indptr) == 0) and not contiguous:
        raise NetchronoError(
            "edge-list format cannot represent isolated vertices "
            "with non-contiguous labels"
        )
    with open(path, "w", encoding="utf-8") as fh:
        if contiguous:
            fh.write(f"# vertices: {len(labels)}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str | Path) -> UndirectedGraph:
    pairs: list[tuple[int, int]] = []
    declared = None
    top = -1  # the largest label read so far
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = _VERTICES_HEADER.match(line)
                if m:
                    if declared is not None:
                        raise InputFormatError(
                            f"{path}:{lineno}: a second vertices header "
                            f"(one already declared {declared})")
                    count = m.group(1).strip()
                    if not (count.isascii() and count.isdecimal()):
                        raise InputFormatError(
                            f"{path}:{lineno}: vertex count {count!r} "
                            "is not a non-negative integer")
                    declared = _bounded(count, "vertex count", path, lineno)
                    if top >= declared:
                        raise InputFormatError(
                            f"{path}:{lineno}: header declares {declared} vertices, "
                            f"but label {top} appears above it")
                continue
            u, v = _labels(line, 2, path, lineno)
            top = max(top, u, v)
            if declared is not None and top >= declared:
                raise InputFormatError(
                    f"{path}:{lineno}: label {top} is not below the declared "
                    f"vertex count {declared}")
            pairs.append((u, v))
    g = from_edge_list(pairs)
    if declared is not None and g.vertex_count < declared:
        # pad the isolated vertices in: the labels become 0..declared-1, so
        # each label is its own row and a neighbour position is its label
        labels, indptr, indices = g.csr_arrays()
        g = UndirectedGraph._from_csr(np.arange(declared, dtype=np.int64), *_csr_layout(
            declared, np.repeat(labels, np.diff(indptr)), labels[indices]))
    return g


def write_chronology(chron: Iterable[int], path: str | Path) -> None:
    chron = Chronology(chron).tolist()
    if min(chron, default=0) < 0:
        raise NetchronoError(f"label {min(chron)} is negative: a chronology holds labels >= 0")
    with open(path, "w", encoding="utf-8") as fh:
        for v in chron:
            fh.write(f"{v}\n")


def read_chronology(path: str | Path) -> np.ndarray:
    first_line: dict[int, int] = {}  # label -> its line, in arrival order
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            (label,) = _labels(line, 1, path, lineno)
            if label in first_line:
                raise InputFormatError(
                    f"{path}:{lineno}: label {label} already appeared on line {first_line[label]}")
            first_line[label] = lineno
    return Chronology(first_line)
