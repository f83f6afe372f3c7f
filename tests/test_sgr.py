from fractions import Fraction

import pytest

from irslab.analysis import root_isomorphic, rooted_equal_finite
from irslab.errors import DomainError, InvalidGraphError
from irslab.laws import trivial_law
from irslab.oracles import CayleyOracle, FiniteOracle, ball
from irslab.poulsen import PercolationGraph, star_ball, view_equal_exact
from irslab.sgr import (
    emit_edgelist,
    emit_sgr,
    parse_complete_oracle,
    parse_sgr,
)

from helpers import index2_oracle, star_records

INDEX2_TEXT = """\
schreier r=2
root A
A s1 B
B s1 A
A s2 A
B s2 B
"""


def test_parse_complete_index2():
    oracle = parse_complete_oracle(INDEX2_TEXT)
    assert rooted_equal_finite(oracle, index2_oracle())


def test_emit_parse_emit_fixpoint():
    for oracle in (CayleyOracle(2), index2_oracle()):
        for radius in (0, 1, 2, 3):
            text = emit_sgr(ball(oracle, radius))
            again = emit_sgr(parse_sgr(text))
            assert again == text


def test_parse_emit_roundtrip_structure(cayley2):
    view = ball(cayley2, 2)
    back = parse_sgr(emit_sgr(view))
    assert back.radius == view.radius
    assert root_isomorphic(back, view)
    assert back.boundary == view.boundary


def test_star_edges_roundtrip():
    graph = PercolationGraph(trivial_law(2), Fraction(1, 2), seed=4)
    view = star_ball(graph, 2)
    assert view.has_stars()
    text = emit_sgr(view)
    back = parse_sgr(text)
    assert emit_sgr(back) == text
    assert star_records(back) == star_records(view) != ()


def test_parse_comments_and_blank_lines():
    text = "# produced by a run\n\n" + INDEX2_TEXT
    oracle = parse_complete_oracle(text)
    assert rooted_equal_finite(oracle, index2_oracle())


def test_parse_errors():
    with pytest.raises(DomainError):
        parse_sgr("root A\n")  # no header
    with pytest.raises(DomainError):
        parse_sgr("schreier r=2\nA s1 B\n")  # no root
    with pytest.raises(DomainError):
        parse_sgr("schreier r=2\nroot A\nA s3 B\n")  # label out of range
    with pytest.raises(DomainError):
        parse_sgr("schreier r=2\nroot A\nA s1\n")  # malformed edge
    with pytest.raises(DomainError):
        parse_complete_oracle(
            "schreier r=2\nroot A\nA s1 A\nA s2 A\nboundary A\n"
        )


@pytest.mark.parametrize("inner", ["e", "s1", "s2^-1*s1"])
def test_parse_rejects_a_boundary_vertex_inside_the_ball(cayley2, inner):
    text = emit_sgr(ball(cayley2, 3))
    assert parse_sgr(text + "boundary s1*s2*s1\n").radius == 3
    with pytest.raises(DomainError):
        parse_sgr(text + f"boundary {inner}\n")


def test_parse_rejects_disconnected():
    text = INDEX2_TEXT + "C s1 C\nC s2 C\n"
    with pytest.raises(DomainError):
        parse_sgr(text)


STAR_TEXT = """\
schreier r=1
root a
a s1 a
b s1 b
a * b
"""


def test_star_edge_recorded_both_ways_is_stored_once():
    once = parse_sgr(STAR_TEXT)
    twice = parse_sgr(STAR_TEXT + "b * a\n")
    assert emit_sgr(twice) == emit_sgr(once) == STAR_TEXT
    assert twice.edges == once.edges
    assert root_isomorphic(once, twice)


def test_edgelist_export(index2):
    out = emit_edgelist(ball(index2, 1))
    lines = out.strip().splitlines()
    assert "A B label=s1" in lines
    assert "A A label=s2" in lines
    assert all(len(l.split()) == 3 for l in lines)


@pytest.mark.parametrize("name", ["root", "schreier", "boundary"])
def test_vertex_named_like_a_header_round_trips(name):
    oracle = FiniteOracle.from_perms([(1, 0), (0, 1)], names=[name, "B"])
    for radius in (0, 1, 2):
        text = emit_sgr(ball(oracle, radius))
        assert emit_sgr(parse_sgr(text)) == text


@pytest.mark.parametrize("name", ["#b", "a b", "", "b\n", 7])
def test_emit_rejects_a_token_the_format_cannot_hold(name):
    # "#b" would turn its edge lines into comments, "a b" and "b\n" would
    # split into two fields, "" would leave a field empty
    oracle = FiniteOracle.from_perms([(1, 0), (0, 1)], names=["a", name])
    with pytest.raises(DomainError):
        emit_sgr(ball(oracle, 2))


@pytest.mark.parametrize("text", [
    "schreier r=1\nroot a\na s1 #b\n",
    "schreier r=1\nroot #a\n",
    "schreier r=1\nroot a\na s1 a\nboundary #b\n",
    "schreier r=2\nroot A\nA s1 #B\n#B s1 A\nA s2 A\n#B s2 #B\n",
], ids=["edge-target", "root", "boundary", "complete-graph"])
def test_parse_rejects_a_token_starting_with_a_hash(text):
    with pytest.raises(DomainError):
        parse_sgr(text)


def test_to_oracle_keeps_the_file_names():
    text = "schreier r=2\nY s1 X\nX s1 Y\nX s2 X\nY s2 Y\nroot X\n"
    oracle = parse_complete_oracle(text)
    assert oracle.vertices == ("X", "Y") and oracle.root == "X"
    assert oracle.neighbor("X", 1) == "Y" and oracle.neighbor("Y", -2) == "Y"
    assert rooted_equal_finite(oracle, index2_oracle())


HEAD2 = "schreier r=2\nroot A\n"
NOT_A_TOKEN = ("a token is non-empty, has no whitespace and does not start "
               "with '#'")


@pytest.mark.parametrize("text, error, message", [
    ("root A\n", DomainError, "missing 'schreier r=<r>' header"),
    ("schreier r=x\nroot A\n", DomainError, "line 1: bad header 'schreier r=x'"),
    ("  schreier\t r=x \nroot A\n", DomainError,
     "line 1: bad header 'schreier\\t r=x'"),
    ("schreier\nroot A\n", DomainError, "line 1: bad header 'schreier'"),
    ("schreier r=0\nroot A\n", DomainError, "line 1: rank must be >= 1"),
    ("schreier r=2\nschreier r=2\nroot A\n", DomainError,
     "line 2: second 'schreier' header"),
    ("root A\nA s1 A\nschreier r=2\n", DomainError,
     "line 2: edge line before 'schreier' header"),
    ("schreier r=2\nA s1 A\n", DomainError, "missing 'root <token>' line"),
    ("schreier r=2\nroot\n", DomainError, "line 2: bad root line"),
    ("schreier r=2\nroot A B C\n", DomainError, "line 2: bad root line"),
    ("schreier r=2\nroot A\nroot A\n", DomainError, "line 3: second 'root' line"),
    (HEAD2 + "A s1 A\nboundary\n", DomainError, "line 4: bad boundary line"),
    (HEAD2 + "A s1 A\nboundary Z\n", DomainError,
     "boundary vertex 'Z' has no edges"),
    (HEAD2 + "A s3 A\n", DomainError, "line 3: label 's3' out of range"),
    (HEAD2 + "A s0 A\n", DomainError, "line 3: label 's0' out of range"),
    ("schreier r=70\nroot A\nA s71 A\n", DomainError,
     "line 3: label 's71' out of range"),
    (HEAD2 + "A x A\n", DomainError, "line 3: bad label 'x'"),
    (HEAD2 + "A S1 A\n", DomainError, "line 3: bad label 'S1'"),
    (HEAD2 + "A s1\n", DomainError, "line 3: bad edge line 'A s1'"),
    (HEAD2 + "A s1 A A\n", DomainError, "line 3: bad edge line 'A s1 A A'"),
    (HEAD2 + "A s1 #B\n", DomainError, f"bad vertex token '#B': {NOT_A_TOKEN}"),
    (HEAD2 + "A s1 A\nC s1 C\n", DomainError,
     "graph is not connected from the root"),
    ("schreier r=1\nroot A\nA s1 B\nB s1 C\nboundary B\n", DomainError,
     "a boundary vertex is not in the farthest layer"),
    (HEAD2 + "A s1 B\nA s1 C\n", InvalidGraphError, "two outgoing s1-edges at 'A'"),
    (HEAD2 + "A s1 B\nC s1 B\n", InvalidGraphError, "two incoming s1-edges at 'B'"),
    ("schreier r=1\nroot a\na * b\na * c\n", DomainError,
     "vertex 'a' is incident to two star edges"),
    # int() refuses more than 4 300 digits on Python 3.11+, not on 3.10
    ("schreier r=" + "9" * 5000 + "\nroot A\n", DomainError,
     "line 1: rank has more than 640 digits"),
    (HEAD2 + "A s" + "9" * 5000 + " A\n", DomainError,
     "line 3: label has more than 640 digits"),
    (HEAD2 + "A s" + "0" * 640 + "1 A\n", DomainError,
     "line 3: label has more than 640 digits"),
], ids=[
    "no-header", "bad-header", "bad-header-quotes-stripped-line",
    "header-without-rank", "rank-zero", "second-header", "edge-before-header",
    "no-root", "root-without-token", "root-with-three-tokens", "second-root",
    "bad-boundary-line", "boundary-without-edges", "label-out-of-range",
    "label-s0", "label-past-rank-70", "bad-label", "upper-case-label",
    "two-field-edge", "four-field-edge", "hash-token-as-dst", "disconnected",
    "boundary-inside-the-ball", "two-outgoing-s1", "two-incoming-s1",
    "two-star-edges", "rank-of-5000-digits", "label-of-5000-digits",
    "zero-padded-label-of-641-digits",
])
def test_parse_sgr_rejects_with_a_pinned_message(text, error, message):
    with pytest.raises(DomainError) as caught:
        parse_sgr(text)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("text, vertices, edges, radius, boundary", [
    ("schreier r=1\nA s1 B\nB s1 A\nroot B\n",
     ("B", "A"), (("B", 1, "A"), ("A", 1, "B")), 1, ()),
    ("schreier r=1\r\nroot A\r\nA s1 B\r\nB s1 A\r\nboundary B\r\n",
     ("A", "B"), (("A", 1, "B"), ("B", 1, "A")), 1, ("B",)),
    ("schreier\tr=1\nroot\tA\nA\ts1\tB\n\tboundary B\t\n",
     ("A", "B"), (("A", 1, "B"),), 1, ("B",)),
    ("  # a note\nschreier r=1\n\t#x y z\nroot A\n   \nA s1 A\n",
     ("A",), (("A", 1, "A"),), 0, ()),
    ("schreier r=2\nroot A\nA s01 B\nB s002 A\n",
     ("A", "B"), (("A", 1, "B"), ("B", 2, "A")), 1, ()),
    ("schreier r=1\nroot a\na s1 a\nb s1 b\na * b\nb * a\n",
     ("a", "b"), (("a", 1, "a"), ("b", 1, "b"), ("a", "*", "b")), 1, ()),
    ("schreier r=2\nroot A\nA s1 A\nA s2 A\n",
     ("A",), (("A", 1, "A"), ("A", 2, "A")), 0, ()),
    ("schreier r=70\nroot A\nA s70 B\nB s65 A\nA s1 A\n",
     ("A", "B"), (("A", 1, "A"), ("A", 70, "B"), ("B", 65, "A")), 1, ()),
    ("schreier r=3\nroot A\n", ("A",), (), 0, ()),
    ("schreier r=3\nroot A\nboundary A\n", ("A",), (), 0, ("A",)),
    ("schreier r=1\nroot root\nroot s1 boundary\nboundary s1 root\n",
     ("root", "boundary"), (("root", 1, "boundary"), ("boundary", 1, "root")),
     1, ()),
    ("schreier r=" + "0" * 639 + "2\nroot A\nA s" + "0" * 639 + "2 A\n",
     ("A",), (("A", 2, "A"),), 0, ()),
], ids=[
    "root-after-edges", "crlf", "tabs", "indented-comments", "zero-padded-labels",
    "star-edge-both-ways", "self-loops", "rank-70", "root-without-edges",
    "root-without-edges-on-the-boundary", "vertices-named-like-headers",
    "zero-padded-rank-and-label-of-640-digits",
])
def test_parse_sgr_accepts_odd_input_as_pinned(text, vertices, edges, radius,
                                               boundary):
    view = parse_sgr(text)
    assert view.vertices == vertices
    assert view.edges == edges
    assert view.radius == radius
    assert view.boundary == frozenset(boundary)


def test_a_complete_ball_asked_beyond_its_eccentricity_reads_back_smaller():
    # the parsed radius is the depth of the farthest layer: the index-2
    # graph is complete at radius 1, so its radius-3 ball reads back as 1
    view = ball(index2_oracle(), 3)
    back = parse_sgr(emit_sgr(view))
    assert (view.radius, back.radius) == (3, 1)
    assert not view_equal_exact(view, back)
    assert back.boundary == view.boundary == frozenset()
    assert emit_sgr(back) == emit_sgr(view)
