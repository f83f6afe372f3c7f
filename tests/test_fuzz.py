"""Hypothesis fuzzing of the text parsers: mutated valid inputs and random
text either parse or raise DomainError, never another exception, and what
`parse_sgr` accepts is a view connected from its root whose boundary is
its farthest layer, and which reads back from its own text unchanged."""

from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings, strategies as st

from irslab.actions import parse_action
from irslab.analysis import ball_code
from irslab.encoding import PsiOracle, parse_subshift
from irslab.errors import DomainError
from irslab.laws import NormalizerLaw, PoulsenLaw, trivial_law
from irslab.montecarlo import CylinderSpec
from irslab.oracles import CayleyOracle, ball, bfs
from irslab.poulsen import PercolationGraph, star_ball, view_equal_exact
from irslab.sgr import emit_sgr, parse_sgr
from irslab.words import word_from_str

from helpers import index2_oracle

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ACTION_TEXT = "points 3\nperm s1: (0 1 2)\nperm s2: (0 1)\n"
SUBSHIFT_TEXT = ("alphabet 2\npoints 2\nperm s1: (0 1)\nperm s2: id\n"
                 "label 0 1\nlabel 1 2\nbasepoint 0\n")


def _sgr_seeds():
    space, q = parse_subshift(SUBSHIFT_TEXT)
    views = [ball(CayleyOracle(2), 2), ball(index2_oracle(), 2),
             ball(PsiOracle(space.point(q)), 3),
             star_ball(PercolationGraph(trivial_law(2), Fraction(1, 2), 4), 2)]
    return [emit_sgr(v) for v in views]


SEEDS = {
    "sgr": _sgr_seeds(),
    "action": [ACTION_TEXT, "points 1\nperm s1: id\n"],
    "subshift": [SUBSHIFT_TEXT],
    "word": ["e", "s1*s2^-1", "s2^-1*s1^-1*s1*s2"],
    "fingerprint": ["e", "e,s1,s1^-1", "e,s1*s2,s2^-1*s1^-1,s2,s2^-1"],
}

# Pieces of the formats, and characters that str methods treat specially
# (a non-ASCII decimal digit, a superscript digit, a vertical tab and a
# line separator).
PIECES = ["schreier", "root", "boundary", "r=", "s", "s1", "s2", "s0", "*",
          "^-1", "e", "points", "perm", "id", "label", "alphabet",
          "basepoint", ":", "(", ")", "#", "-", "0", "1", "2", "3", " ",
          ",", "\n", "\u0663", "\u00b2", "\x0b", "\u2028"]
HEADS = ["boundary", "root", "points", "alphabet", "label 0", "basepoint"]


@st.composite
def mutated(draw, kind):
    """A valid input of `kind` after up to four edits: insert a piece,
    delete a span, duplicate, drop or swap lines, or add a header line
    naming the last field of a line (say `boundary <an inner vertex>`)."""
    text = draw(st.sampled_from(SEEDS[kind]))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(
            ["insert", "delete", "dup", "drop", "swap", "name"]))
        if op in ("insert", "delete"):
            i = draw(st.integers(0, len(text)))
            if op == "insert":
                text = text[:i] + draw(st.sampled_from(PIECES)) + text[i:]
            else:
                text = text[:i] + text[i + draw(st.integers(1, 8)):]
            continue
        lines = text.split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        if op == "dup":
            lines.insert(j, lines[i])
        elif op == "name":
            head = draw(st.sampled_from(HEADS))
            lines.insert(j, f"{head} {(lines[i].split() or ['e'])[-1]}")
        elif op == "drop":
            del lines[i]
        else:
            lines[i], lines[j] = lines[j], lines[i]
        text = "\n".join(lines)
    return text


def pieced():
    return st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


@FUZZ
@given(st.one_of(mutated("sgr"), pieced()))
def test_parse_sgr_raises_only_domain_errors(text):
    try:
        view = parse_sgr(text)
    except DomainError:
        return
    number, depth, _ = bfs(view.root, view.step, view.letters)
    assert set(number) == set(view.vertices)
    assert view.radius == max(depth)
    assert all(depth[number[v]] == view.radius for v in view.boundary)
    again = emit_sgr(view)
    back = parse_sgr(again)
    assert emit_sgr(back) == again
    assert view_equal_exact(back, view)
    assert back.vertices == view.vertices == tuple(number)


_HALF = Fraction(1, 2)
_NORMALIZER = NormalizerLaw(trivial_law(2), _HALF)
SHUFFLED = {
    "ball trivial": trivial_law(2),
    "ball normalizer:trivial": _NORMALIZER,
    "ball poulsen:normalizer:trivial": PoulsenLaw(_NORMALIZER, _HALF),
    "star_ball trivial": None,
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SHUFFLED)), st.integers(0, 2**32),
       st.integers(0, 3), st.randoms(use_true_random=False))
def test_a_files_line_order_changes_nothing(family, seed, radius, rnd):
    """Shuffled edge and boundary lines read back as the file that
    `emit_sgr` wrote: the same canonical view, code and text."""
    law = SHUFFLED[family]
    if law is None:
        view = star_ball(PercolationGraph(trivial_law(2), _HALF, seed), radius)
    else:
        view = ball(law.sample(seed), radius)
    text = emit_sgr(view)
    lines = text.splitlines()
    body = lines[2:]
    rnd.shuffle(body)
    shuffled = parse_sgr("\n".join(lines[:2] + body) + "\n")
    plain = parse_sgr(text)
    assert view_equal_exact(shuffled, plain)
    assert shuffled.vertices == plain.vertices
    assert ball_code(shuffled) == ball_code(plain)
    assert emit_sgr(shuffled) == emit_sgr(plain) == text


@FUZZ
@given(st.one_of(mutated("action"), pieced()))
def test_parse_action_raises_only_domain_errors(text):
    try:
        action = parse_action(text)
    except DomainError:
        return
    assert all(sorted(p) == list(range(action.n)) for p in action.perms)


@FUZZ
@given(st.one_of(mutated("subshift"), pieced()))
def test_parse_subshift_raises_only_domain_errors(text):
    try:
        space, basepoint = parse_subshift(text)
    except DomainError:
        return
    assert 0 <= basepoint < space.action.n


@FUZZ
@given(st.one_of(mutated("word"), pieced()), st.sampled_from([None, 1, 2, 3]))
@example("s" + "9" * 5000, None)  # int() refuses more than 4 300 digits
@example("s1*s" + "9" * 5000 + "^-1", 2)
@example("s" + "9" * 640, 2)
def test_word_from_str_raises_only_domain_errors(text, rank):
    try:
        w = word_from_str(text, rank)
    except DomainError:
        return
    assert all(l != 0 and (rank is None or abs(l) <= rank) for l in w)


@FUZZ
@given(st.one_of(mutated("fingerprint"), pieced()), st.integers(-2, 4))
def test_cylinder_spec_raises_only_domain_errors(text, radius):
    try:
        spec = CylinderSpec(
            tuple(word_from_str(w, 2) for w in text.split(",")), radius)
    except DomainError:
        return
    assert () in spec.fingerprint
    assert all(len(w) <= radius for w in spec.fingerprint)
