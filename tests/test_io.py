import re

import pytest

from netchrono import (
    Chronology,
    UndirectedGraph,
    from_edge_list,
    read_chronology,
    read_edge_list,
    write_chronology,
    write_edge_list,
)
from netchrono.errors import InputFormatError


def test_edge_list_roundtrip(tmp_path):
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3)])
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


def test_edge_list_comments_ignored(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a comment\n0 1\n\n# another\n1 2\n")
    g = read_edge_list(path)
    assert g.edge_count == 2 and g.vertices == {0, 1, 2}


def test_edge_list_header_preserves_isolated_vertices(tmp_path):
    g = UndirectedGraph({0: [1], 1: [0], 2: []})
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert "# vertices: 3" in path.read_text()
    assert read_edge_list(path) == g


def test_edge_list_isolated_noncontiguous_rejected(tmp_path):
    g = UndirectedGraph({0: [1], 1: [0], 7: []})
    with pytest.raises(ValueError):
        write_edge_list(g, tmp_path / "g.edges")


def test_edge_list_malformed_line(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1 2\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


@pytest.mark.parametrize("text, lineno", [
    ("0 1\n-1 2\n", 2),       # negative label
    ("# c\n0 1\n3\n", 3),     # one field
    ("0 1 2\n", 1),           # three fields
    ("0 1\n1 x\n", 2),        # non-integer token
    ("1.5 2\n", 1),           # non-integer number
])
def test_edge_list_rejects_malformed_line(tmp_path, text, lineno):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(InputFormatError, match="^" + re.escape(f"{path}:{lineno}: ")):
        read_edge_list(path)


@pytest.mark.parametrize("text, lineno", [
    ("0\n1\nabc\n", 3),       # not a number
    ("0\n2.0\n", 2),          # non-integer number
    ("4\n-3\n", 2),           # negative label
    ("0 1\n", 1),             # two labels on one line
    ("5\n# c\n7\n5\n", 4),     # a label listed twice
])
def test_chronology_rejects_malformed_line(tmp_path, text, lineno):
    path = tmp_path / "bad.chron"
    path.write_text(text)
    with pytest.raises(InputFormatError, match="^" + re.escape(f"{path}:{lineno}: ")):
        read_chronology(path)


def test_chronology_repeat_names_label_and_first_line(tmp_path):
    path = tmp_path / "dup.chron"
    path.write_text("5\n# c\n7\n5\n")
    with pytest.raises(InputFormatError, match="label 5 already appeared on line 1$"):
        read_chronology(path)


@pytest.mark.parametrize("text, lineno", [
    ("0 1\n1 9223372036854775808\n", 2),          # 2^63, one above the int64 maximum
    ("99999999999999999999 1\n", 1),
    ("# vertices: 3\n0 1\n0 5\n", 3),           # label above the declared count
    ("# vertices: 3\n0 3\n", 2),                 # the declared count itself
    ("0 5\n1 2\n# vertices: 3\n", 3),           # the header follows a larger label
])
def test_edge_list_rejects_labels_the_graph_cannot_hold(tmp_path, text, lineno):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(InputFormatError, match="^" + re.escape(f"{path}:{lineno}: ")):
        read_edge_list(path)


def test_edge_list_accepts_the_int64_maximum(tmp_path):
    path = tmp_path / "big.edges"
    path.write_text(f"0 {2**63 - 1}\n")
    assert read_edge_list(path).vertices == {0, 2**63 - 1}


def test_chronology_rejects_labels_above_int64(tmp_path):
    path = tmp_path / "bad.chron"
    path.write_text(f"0\n{2**63 - 1}\n{2**63}\n")
    with pytest.raises(InputFormatError, match="^" + re.escape(f"{path}:3: ")):
        read_chronology(path)


def test_chronology_roundtrip(tmp_path):
    c = Chronology([5, 3, 0, 2])
    path = tmp_path / "c.chron"
    write_chronology(c, path)
    assert read_chronology(path) == c
