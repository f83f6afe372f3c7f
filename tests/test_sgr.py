from fractions import Fraction

import pytest

from irslab import (
    CayleyOracle,
    DomainError,
    FiniteOracle,
    ball,
    emit_edgelist,
    emit_sgr,
    parse_complete_oracle,
    parse_sgr,
    root_isomorphic,
    rooted_equal_finite,
    trivial_law,
)
from irslab.poulsen import PercolationGraph, star_ball

from helpers import index2_oracle

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
    assert back.star and len(back.star) == len(view.star)


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
    assert oracle.vertices == ("Y", "X") and oracle.root == "X"
    assert oracle.neighbor("X", 1) == "Y" and oracle.neighbor("Y", -2) == "Y"
    assert rooted_equal_finite(oracle, index2_oracle())
