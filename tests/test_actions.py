import itertools
from fractions import Fraction

import pytest

from irslab import (
    DomainError,
    FiniteAction,
    aut_count,
    canonical_code,
    contains,
    first_return,
    graphing_cost,
    is_totally_nonfree,
    orbit_schreier,
    rooted_equal_finite,
    stab_equal,
    stab_pushforward_law,
)
from irslab.actions import (
    emit_action,
    format_cycles,
    parse_action,
    parse_cycles,
    random_action,
    random_transitive_action,
)
from irslab.analysis import conjugate_code
from irslab.randomness import KeyedRng

from helpers import index2_oracle
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


def test_graphing_cost_examples():
    a = random_action(4, 2, seed=1)
    assert graphing_cost(a, [set(range(4)), set(range(4))]) == 2
    assert graphing_cost(a, [set(range(4)), {0, 1}]) == Fraction(3, 2)
    assert graphing_cost(a, [{0, 1}, set()]) == Fraction(1, 2)


def test_graphing_cost_spanning_tree():
    a = random_transitive_action(6, 2, seed=9)
    # greedy BFS spanning tree: one incoming generator edge per new vertex
    domains = [set(), set()]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for i in (0, 1):
                w = a.perms[i][v]
                if w not in seen:
                    seen.add(w)
                    domains[i].add(v)
                    nxt.append(w)
                w = a.inv[i][v]
                if w not in seen:
                    seen.add(w)
                    domains[i].add(w)
                    nxt.append(w)
        frontier = nxt
    assert graphing_cost(a, domains) == Fraction(5, 6)


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
            pushed = law.map_keys(lambda c: conjugate_code(c, (letter,)))
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
