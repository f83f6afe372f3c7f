import itertools
import tracemalloc

import pytest

from irslab import actions
from irslab.actions import (
    first_return,
    is_totally_nonfree,
    orbit_schreier,
    parse_action,
    parse_cycles,
    random_action,
    random_transitive_action,
    stab_pushforward_law,
)
from irslab.analysis import (
    array_code,
    aut_count,
    canonical_code,
    rooted_equal_finite,
)
from irslab.encoding import parse_subshift
from irslab.errors import BudgetError, DomainError
from irslab.oracles import FiniteAction
from irslab.randomness import KeyedRng

from helpers import (
    conjugate_code,
    contains,
    emit_action,
    format_cycles,
    index2_oracle,
    pushforward,
)
from test_words import random_word


def index2_action():
    return FiniteAction(2, ((1, 0), (0, 1)))


def separating_action():
    # all three stabilizers distinct: s1 swaps {0,1}, s2 swaps {1,2}
    return FiniteAction(3, ((1, 0, 2), (0, 2, 1)))


def test_orbit_schreier_is_index2():
    g = orbit_schreier(index2_action(), 0)
    assert rooted_equal_finite(g, index2_oracle())


def test_orbit_schreier_trivial_action():
    a = FiniteAction(3, ((0, 1, 2), (0, 1, 2)))
    g = orbit_schreier(a, 1)
    assert len(g.vertices) == 1
    for w in ((1,), (2, 1), (-1, 2)):
        assert contains(g, w)


def test_contains_iff_word_fixes_point():
    rng = KeyedRng(43, "fixes")
    for seed in range(5):
        a = random_action(6, 2, seed)
        x = seed % 6
        g = orbit_schreier(a, x)
        for _ in range(200):
            w = random_word(rng, 8)
            assert contains(g, w) == (a.act(x, w) == x)


def stab_equal(action: FiniteAction, x: int, y: int) -> bool:
    """Whether two points have the same stabilizer: equal stabilizer codes."""
    return array_code(action.perms, x) == array_code(action.perms, y)


def test_stab_equal():
    a = index2_action()
    assert stab_equal(a, 0, 0)
    assert stab_equal(a, 0, 1)  # normal stabilizer shared by both points
    # a point fixed by s2 vs a point moved by s2
    c = FiniteAction(3, ((0, 1, 2), (0, 2, 1)))
    assert not stab_equal(c, 0, 1)


def test_stab_equal_is_equivalence():
    for seed in range(4):
        a = random_action(6, 2, seed)
        classes = {}
        for x in range(6):
            for y in range(6):
                assert stab_equal(a, x, y) == stab_equal(a, y, x)
        for x in range(6):
            for y in range(6):
                for z in range(6):
                    if stab_equal(a, x, y) and stab_equal(a, y, z):
                        assert stab_equal(a, x, z)


def test_totally_nonfree_examples():
    trivial = FiniteAction(3, ((0, 1, 2), (0, 1, 2)))
    assert not is_totally_nonfree(trivial)
    assert not is_totally_nonfree(index2_action())
    assert is_totally_nonfree(separating_action())


def test_tnf_iff_singleton_classes():
    for seed in range(8):
        a = random_action(5, 2, seed)
        singleton = all(
            not stab_equal(a, x, y)
            for x in range(5) for y in range(5) if x != y
        )
        assert is_totally_nonfree(a) == singleton


def test_first_return_full_subset():
    f = (1, 2, 3, 4, 0)
    fr = first_return(f, set(range(5)))
    assert fr == {i: f[i] for i in range(5)}


def test_first_return_five_cycle():
    f = (1, 2, 3, 4, 0)
    assert first_return(f, {0, 2}) == {0: 2, 2: 0}


def _brute_first_return(perm, Y, y):
    # independent oracle: walk the full cycle of y and pick the next member
    orbit = [y]
    z = perm[y]
    while z != y:
        orbit.append(z)
        z = perm[z]
    for w in orbit[1:] + [y]:
        if w in Y:
            return w
    raise AssertionError


def test_first_return_exhaustive_small():
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            for mask in range(1, 1 << n):
                Y = frozenset(i for i in range(n) if mask >> i & 1)
                fr = first_return(perm, Y)
                assert sorted(fr.values()) == sorted(Y)  # bijection of Y
                for y in Y:
                    assert fr[y] == _brute_first_return(perm, Y, y)


def test_first_return_rejects_empty():
    with pytest.raises(DomainError):
        first_return((0, 1), set())


def test_stab_law_trivial_action():
    a = FiniteAction(4, ((0, 1, 2, 3), (0, 1, 2, 3)))
    law = stab_pushforward_law(a)
    assert len(law) == 1
    assert law.total() == 1


def test_stab_law_index2_merges():
    law = stab_pushforward_law(index2_action())
    assert len(law) == 1
    (code, mass), = law.data.items()
    assert mass == 1
    assert code[1] == 2


def test_stab_law_rebasing_invariant_random():
    for seed in range(20):
        a = random_action(8, 2, seed)
        law = stab_pushforward_law(a)
        assert law.total() == 1
        for letter in (1, -1, 2, -2):
            pushed = pushforward(law, lambda c: conjugate_code(c, (letter,)))
            assert pushed == law


def test_orbit_stabilizer_bookkeeping():
    # transitive: aut_count(orbit graph) * #distinct stabilizers = n
    for seed in range(8):
        a = random_transitive_action(6, 2, seed)
        g = orbit_schreier(a, 0)
        distinct = len({canonical_code(orbit_schreier(a, x)) for x in range(6)})
        assert aut_count(g) * distinct == 6


def test_cycles_parse_format():
    assert parse_cycles("(0 1 2)(3 4)", 5) == (1, 2, 0, 4, 3)
    assert parse_cycles("id", 3) == (0, 1, 2)
    assert format_cycles((1, 2, 0, 4, 3)) == "(0 1 2)(3 4)"
    assert format_cycles((0, 1)) == "id"
    with pytest.raises(DomainError):
        parse_cycles("(0 1)(1 2)", 3)
    with pytest.raises(DomainError):
        parse_cycles("(0 9)", 3)


def test_action_file_roundtrip():
    a = separating_action()
    text = emit_action(a)
    b = parse_action(text)
    assert a == b
    assert emit_action(b) == text


ACTION2 = "points 2\nperm s1: (0 1)\n"


@pytest.mark.parametrize("text, message", [
    ("points x\nperm s1: id\n", "line 1: bad point count 'x'"),
    ("points\nperm s1: id\n", "line 1: cannot parse 'points'"),
    ("points\t2 3\nperm s1: id\n", "line 1: cannot parse 'points\\t2 3'"),
    ("points 2\npoints 2\nperm s1: id\n", "line 2: second 'points' line"),
    ("points " + "9" * 641 + "\nperm s1: id\n",
     "line 1: point count has more than 640 digits"),
    ("points 0\nperm s1: id\n", "need at least one point"),
    ("perm s1: id\npoints 2\n", "line 1: 'points <n>' must come first"),
    ("points 2\nperm sx: id\n", "line 2: bad generator 'sx'"),
    ("points 2\nperm s" + "9" * 641 + ": id\n",
     "line 2: generator has more than 640 digits"),
    (ACTION2 + "perm s1: id\n", "line 3: second 'perm s1' line"),
    (ACTION2 + "perm s01: id\n", "line 3: second 'perm s1' line"),
    ("points 2\nperm\n", "line 2: cannot parse 'perm'"),
    ("points 2\nperm s1 id\n", "line 2: cannot parse 'perm s1 id'"),
    (ACTION2 + "foo\n", "line 3: cannot parse 'foo'"),
    ("# only a comment\n\n", "action file needs 'points' and 'perm' lines"),
    ("points 2\n", "action file needs 'points' and 'perm' lines"),
    ("points 2\nperm s2: id\n", "perm lines must cover s1..sr without gaps"),
    ("points 2\nperm s1: 0 1\n", "line 2: bad cycle '0 1'"),
    ("points 2\nperm s1: (0 1\n", "line 2: bad cycle '(0 1'"),
    ("points 2\nperm s1: (0 1)1\n", "line 2: bad cycle '1'"),
    ("points 2\nperm s1: (0 a)\n", "line 2: bad cycle '(0 a)'"),
    ("points 2\nperm s1: (0 -1)\n", "line 2: bad cycle '(0 -1)'"),
    ("points 2\nperm s1: (+1 0)\n", "line 2: bad cycle '(+1 0)'"),
    ("points 2\nperm s1: (0 0)\n", "line 2: point 0 appears twice"),
    ("points 2\nperm s1: (0 5)\n", "line 2: point '5' out of range 0..1"),
    ("points 3\nperm s1: (0 1)(1 2)\n", "line 2: point 1 appears twice"),
], ids=[
    "bad-point-count", "bare-points", "points-with-two-fields",
    "repeated-points", "point-count-of-641-digits", "no-points",
    "perm-before-points", "bad-generator", "generator-of-641-digits",
    "repeated-perm-s1", "repeated-perm-s01", "bare-perm", "perm-without-colon",
    "unknown-line", "no-lines", "no-perm-line", "gap-in-generators",
    "cycles-without-parentheses", "unclosed-cycle", "trailing-point",
    "letter-in-cycle", "minus-sign-in-cycle", "plus-sign-in-cycle",
    "repeated-point-in-cycle", "point-out-of-range",
    "point-in-two-cycles",
])
def test_parse_action_rejects_with_a_pinned_message(text, message):
    with pytest.raises(DomainError) as caught:
        parse_action(text)
    assert str(caught.value) == message


def test_a_point_count_past_the_budget_raises(monkeypatch):
    monkeypatch.setattr(actions, "DEFAULT_BUDGET", 4)
    assert parse_action("points 4\nperm s1: (0 1 2 3)\n").n == 4
    with pytest.raises(BudgetError) as caught:
        parse_action("# five\npoints 5\nperm s1: (0 1)\n")
    assert str(caught.value) == "line 2: point count exceeds budget 4"
    with pytest.raises(BudgetError) as caught:
        parse_subshift("alphabet 2\npoints 5\nperm s1: id\nperm s2: id\n")
    assert str(caught.value) == "line 2: point count exceeds budget 4"


@pytest.mark.parametrize("count", ["1" + "0" * 600, "1" + "0" * 9])
def test_a_huge_point_count_is_refused_before_anything_is_built(count):
    text = f"points {count}\nperm s1: (0 1)\n"
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            parse_action(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
