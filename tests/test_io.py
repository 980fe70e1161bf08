import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netchrono import (
    Chronology,
    from_edge_list,
    read_chronology,
    read_edge_list,
    write_chronology,
    write_edge_list,
)
from netchrono.errors import InputFormatError, NetchronoError

from builders import graph


def test_edge_list_roundtrip(tmp_path):
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3)])
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert read_edge_list(path) == g
    # a negative label was written, and the reader refused it
    with pytest.raises(NetchronoError, match="label -1 is negative"):
        write_edge_list(from_edge_list([(-1, 2), (2, 3)]), tmp_path / "neg.edges")
    assert not (tmp_path / "neg.edges").exists()


def test_edge_list_comments_ignored(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("# a comment\n0 1\n\n# another\n1 2\n")
    g = read_edge_list(path)
    assert g.edge_count == 2 and g.vertices == {0, 1, 2}


def test_edge_list_header_preserves_isolated_vertices(tmp_path):
    g = graph({0: [1], 1: [0], 2: []})
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert "# vertices: 3" in path.read_text()
    assert read_edge_list(path) == g


@pytest.mark.parametrize("text, adjacency", [
    ("# vertices: 4\n", {0: [], 1: [], 2: [], 3: []}),      # header only
    ("# vertices: 6\n0 1\n1 2\n", {0: [1], 1: [2], 2: [], 3: [], 4: [], 5: []}),  # above every label
    ("# vertices: 7\n0 3\n3 6\n", {0: [3], 1: [], 2: [], 3: [6], 4: [], 5: [], 6: []}),  # between
    ("# vertices: 0\n", {}),
])
def test_edge_list_header_pads_isolated_vertices(tmp_path, text, adjacency):
    path = tmp_path / "g.edges"
    path.write_text(text)
    g = read_edge_list(path)
    assert g == graph(adjacency)
    write_edge_list(g, tmp_path / "again.edges")
    assert (tmp_path / "again.edges").read_text() == text
    assert read_edge_list(tmp_path / "again.edges") == g


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 20), data=st.data())
def test_edge_list_roundtrip_keeps_isolated_vertices(tmp_path_factory, n, data):
    """read(write(g)) == g for graphs on 0..n-1, isolated vertices included."""
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda p: p[0] != p[1]), max_size=40)) if n else []
    adj = {v: [] for v in range(n)}
    for u, v in pairs:
        adj[u].append(v)
    g = graph(adj)
    path = tmp_path_factory.mktemp("roundtrip") / "g.edges"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


def test_edge_list_isolated_noncontiguous_rejected(tmp_path):
    g = graph({0: [1], 1: [0], 7: []})
    with pytest.raises(NetchronoError, match="isolated vertices"):
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
    ("# vertices: 3\n0 1\n# vertices: 5\n3 4\n", 3),  # a second header
    ("# vertices: 3\n# vertices: 3\n", 2),            # a second header, even an equal one
    ("# vertices: 9223372036854775808\n", 1),        # a vertex count above the int64 maximum
    ("# vertices: \u0663\n0 1\n", 1),                 # a count in Arabic-Indic digits, not ASCII
])
def test_edge_list_rejects_labels_the_graph_cannot_hold(tmp_path, text, lineno):
    path = tmp_path / "bad.edges"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputFormatError, match="^" + re.escape(f"{path}:{lineno}: ")):
        read_edge_list(path)


@pytest.mark.parametrize("text", ["# vertices: " + "9" * 5000 + "\n", "0 " + "1" * 5000 + "\n"],
                         ids=["count", "label"])
def test_edge_list_rejects_numbers_too_long_to_convert(tmp_path, text):
    # `int` refuses a string of over 4300 digits with a ValueError of its own
    path = tmp_path / "long.edges"
    path.write_text(text)
    with pytest.raises(InputFormatError, match="^" + re.escape(f"{path}:1: ") + ".*int64 maximum"):
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
    # a negative label was written, and the reader refused it
    with pytest.raises(NetchronoError, match="label -4 is negative"):
        write_chronology(Chronology([5, -1, -4, 2]), tmp_path / "neg.chron")
    assert not (tmp_path / "neg.chron").exists()
