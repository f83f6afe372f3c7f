from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from irslab import (
    CayleyOracle,
    aut_count,
    ball,
    canonical_code,
    conjugate,
    contains,
    cylinder_fingerprint,
    metric,
    normalizer_oracle,
    oracle_from_code,
    root_isomorphic,
    rooted_equal_finite,
    z_set_member,
)
from irslab.actions import (
    FiniteAction,
    orbit_schreier,
    random_action,
    random_transitive_action,
    stab_pushforward_law,
)
from irslab.analysis import (
    Z_CONSISTENT,
    Z_NO,
    ball_code,
    code_action,
    conjugate_code,
    conjugate_fingerprints,
    fingerprint_plan,
)
from irslab.encoding import psi_oracle
from irslab.errors import DomainError, HorizonError
from irslab.laws import NormalizerLaw, PoulsenLaw, trivial_law
from irslab.normalizer import enumerate_normalizer_law
from irslab.oracles import BallBackedOracle, BallView, trace
from irslab.poulsen import PercolationGraph, star_ball
from irslab.randomness import KeyedRng
from irslab.words import (
    conjugated_word,
    inverse_word,
    letters_ordered,
    reduce_word,
    shortlex_key,
    word_from_str,
    words_upto,
)

from helpers import (
    Counting,
    brute_aut_count,
    brute_root_isomorphic,
    cyclic_oracle,
    reference_conjugate_fingerprints,
    reference_walk_table,
)
from test_encoding import three_cycle_space
from test_words import random_word


def _ball_pool():
    """Small assorted balls for cross-checking the code-based isomorphism
    test against the exhaustive one, including views with star edges."""
    pool = []
    cay = CayleyOracle(2)
    from helpers import index2_oracle, one_vertex_oracle

    for oracle in (cay, index2_oracle(), one_vertex_oracle(), cyclic_oracle(3)):
        for radius in (0, 1):
            pool.append(ball(oracle, radius))
    for seed in (1, 2):
        pool.append(ball(normalizer_oracle(index2_oracle(), Fraction(1, 2), seed), 1))
    for seed in range(40):
        graph = PercolationGraph(trivial_law(2), Fraction(1, 2), seed)
        for radius in (0, 1):
            view = star_ball(graph, radius)
            if view.has_stars():
                pool.append(view)
    return pool


def test_ball_pool_has_star_views():
    stars = [v for v in _ball_pool() if v.has_stars() and len(v.vertices) <= 6]
    assert len(stars) == 20


def test_root_isomorphic_agrees_with_bruteforce():
    pool = _ball_pool()
    for a in pool:
        for b in pool:
            if a.radius != b.radius:
                continue
            if len(a.vertices) > 6 or len(b.vertices) > 6:
                continue
            assert root_isomorphic(a, b) == brute_root_isomorphic(a, b)


def test_ball_code_is_canonical_code_on_complete_views():
    for seed in range(6):
        for n in (1, 4, 7):
            oracle = orbit_schreier(random_transitive_action(n, 2, seed), 0)
            for v in oracle.vertices:
                view = ball(oracle.rebased(v), n)
                assert view.is_complete() and not view.has_stars()
                assert ball_code(view) == canonical_code(view.to_oracle())


def test_disconnected_view_raises():
    view = BallView(2, 1, "a", ["a", "b"], [("a", 1, "a"), ("b", 2, "b")],
                    ["b"])
    with pytest.raises(DomainError):
        ball_code(view)
    with pytest.raises(DomainError):
        root_isomorphic(view, view)


def test_root_isomorphic_reflexive(cayley2, index2):
    for oracle in (cayley2, index2):
        for r in (0, 1, 2, 3):
            assert root_isomorphic(ball(oracle, r), ball(oracle, r))


def test_root_isomorphic_counterexample(cayley2, index2):
    b = ball(cayley2, 2)
    c = ball(index2, 2)
    assert not root_isomorphic(b, c)


def test_root_isomorphic_requires_equal_radius(cayley2):
    with pytest.raises(DomainError):
        root_isomorphic(ball(cayley2, 1), ball(cayley2, 2))


def test_rebasing_vertex_transitive():
    g = cyclic_oracle(5, shift2=2)
    for v in g.vertices:
        assert rooted_equal_finite(g.rebased(v), g)


def test_root_isomorphic_is_equivalence():
    pool = [b for b in _ball_pool() if b.radius == 1]
    for a in pool:
        for b in pool:
            assert root_isomorphic(a, b) == root_isomorphic(b, a)
            for c in pool:
                if root_isomorphic(a, b) and root_isomorphic(b, c):
                    assert root_isomorphic(a, c)


def test_metric_identity(cayley2):
    assert metric(cayley2, cayley2, 5) == 0


def test_metric_cayley_vs_index2(cayley2, index2):
    # radius-0 balls already differ: the index-2 graph has an s2-loop at
    # its root, the Cayley graph has no loops, so the first disagreement
    # is at radius 0 and the distance is 1/(0+1).
    assert not root_isomorphic(ball(cayley2, 0), ball(index2, 0))
    assert metric(cayley2, index2, 5) == Fraction(1, 1)


def test_metric_first_disagreement():
    # two cyclic graphs agreeing on radius-1 balls but not radius-2
    a = cyclic_oracle(6)
    b = cyclic_oracle(7)
    assert root_isomorphic(ball(a, 1), ball(b, 1))
    d = metric(a, b, 6)
    n = d.denominator - 1
    assert not root_isomorphic(ball(a, n), ball(b, n))
    for r in range(n):
        assert root_isomorphic(ball(a, r), ball(b, r))


def test_metric_symmetry_and_ultrametric(index2, cayley2):
    oracles = [
        cayley2,
        index2,
        cyclic_oracle(4),
        cyclic_oracle(6),
        normalizer_oracle(CayleyOracle(2), Fraction(1, 4), 1),
        normalizer_oracle(CayleyOracle(2), Fraction(1, 4), 2),
    ]
    rng = KeyedRng(11, "triples")
    for _ in range(50):
        a, b, c = (oracles[rng.randrange(len(oracles))] for _ in range(3))
        dab = metric(a, b, 4)
        dba = metric(b, a, 4)
        assert dab == dba
        dac = metric(a, c, 4)
        dbc = metric(b, c, 4)
        assert dac <= max(dab, dbc)


def test_fingerprint_trivial(cayley2):
    assert cylinder_fingerprint(cayley2, 2) == ((),)


def test_fingerprint_index2_bruteforce(index2):
    # independent enumeration by raw permutation composition
    perms = {1: {"A": "B", "B": "A"}, -1: {"A": "B", "B": "A"},
             2: {"A": "A", "B": "B"}, -2: {"A": "A", "B": "B"}}
    expected = []
    from irslab.words import words_upto

    for w in words_upto(2, 2):
        v = "A"
        for l in w:
            v = perms[l][v]
        if v == "A":
            expected.append(w)
    expected.sort(key=shortlex_key)
    assert cylinder_fingerprint(index2, 2) == tuple(expected)
    assert len(expected) == 7
    assert word_from_str("s2") in expected
    assert word_from_str("s1*s1") in expected


def test_fingerprint_conjugation_identity(index2):
    rng = KeyedRng(13, "fpconj")
    for _ in range(20):
        g = random_word(rng, 3)
        radius = 2
        fp_conj = cylinder_fingerprint(conjugate(index2, g), radius)
        big = cylinder_fingerprint(index2, radius + 2 * len(g))
        expected = sorted(
            {conjugated_word(g, w) for w in big
             if len(conjugated_word(g, w)) <= radius},
            key=shortlex_key,
        )
        assert list(fp_conj) == expected


def _planned_walk(rank, radius, conjugates):
    """The words the steps of `fingerprint_plan` walk, rebuilt from the
    steps: each step appends a letter to a word listed before it."""
    steps = fingerprint_plan(rank, radius, conjugates)[0]
    words = [()]
    for k, (parent, l) in enumerate(steps, 1):
        assert parent < k
        words.append(words[parent] + (l,))
    return words


def test_walk_plan_is_cached_and_indexes_prefixes():
    """The steps of a fingerprint plan walk the words of length <= h in
    shortlex order, each from a prefix walked before it."""
    for rank in (1, 2, 3):
        for radius in range(5):
            for conjugates in (False, True):
                plan = fingerprint_plan(rank, radius, conjugates)
                assert fingerprint_plan(rank, radius, conjugates) is plan
                moved = rank > 1 and radius > 0 and conjugates
                h = (radius + 1) // 2 + moved
                assert _planned_walk(rank, radius, conjugates) == \
                    words_upto(rank, h)


def test_walk_table_ends_each_word_where_its_trace_does(index2, cayley2):
    sampled = normalizer_oracle(cayley2, Fraction(1, 2), 4)
    steps = fingerprint_plan(2, 3, True)[0]  # the words of length <= 3
    words = words_upto(2, 3)
    for oracle in (index2, cayley2, sampled):
        ends = [oracle.root]
        for k, l in steps:
            ends.append(oracle.neighbor(ends[k], l))
        assert ends == list(reference_walk_table(oracle.root, oracle.neighbor,
                                                 2, 3).values())
        assert ends == [trace(oracle, w) for w in words]


def test_fingerprint_plan_splits_each_tested_word_in_halves():
    for rank in (1, 2, 3):
        for radius in range(5):
            for conjugates in (False, True):
                words = _planned_walk(rank, radius, conjugates)
                inverses = [()]  # l^-1 for each conjugate l K l^-1
                if conjugates:
                    inverses += [(-l,) for l in letters_ordered(rank)]
                tests = fingerprint_plan(rank, radius, conjugates)[1]
                assert len(tests) == len(inverses)
                for g, test in zip(inverses, tests):
                    assert [w for w, _, _ in test] == words_upto(rank, radius)
                    for w, a, b in test:
                        c = conjugated_word(g, w)  # l^-1 w l, or w
                        u = words[a]
                        assert u + inverse_word(words[b]) == c
                        assert len(u) == (len(c) + 1) // 2


def _asked(rank, radius, conjugates):
    """The distinct (vertex, letter) asks of one fingerprint over the
    Cayley tree, where no two walks meet and each is asked once."""
    oracle = Counting(CayleyOracle(rank))
    if conjugates:
        conjugate_fingerprints(oracle.root, oracle.neighbor, rank, radius)
    else:
        cylinder_fingerprint(oracle, radius)
    assert len(oracle.asked) == sum(oracle.asked.values())
    return len(oracle.asked)


@pytest.mark.parametrize("radius, conjugates, asked",
                         [(0, False, 0), (1, False, 4), (2, False, 4),
                          (3, False, 16), (0, True, 0), (1, True, 16),
                          (2, True, 16)])
def test_fingerprints_walk_only_the_ball_of_half_their_length(radius,
                                                              conjugates,
                                                              asked):
    """At rank 2 each fingerprint asks each edge of the half ball once: a
    radius-2 cylinder 4, a radius-3 one 16 and a radius-1 or radius-2
    conjugate table 16."""
    assert _asked(2, radius, conjugates) == asked


@pytest.mark.parametrize("radius, conjugates, asked",
                         [(1, False, 6), (2, False, 6), (3, False, 36),
                          (1, True, 36), (2, True, 36)])
def test_rank_3_fingerprints_walk_only_the_ball_of_half_their_length(
        radius, conjugates, asked):
    assert _asked(3, radius, conjugates) == asked


def test_a_cylinder_fingerprint_needs_the_stored_ball_of_half_its_radius(
        cayley2):
    stored = BallBackedOracle(ball(cayley2, 1))
    assert cylinder_fingerprint(stored, 2) == ((),)
    with pytest.raises(HorizonError):
        cylinder_fingerprint(stored, 3)
    with pytest.raises(HorizonError):
        conjugate_fingerprints(stored.root, stored.neighbor, 2, 1)


_radii = st.integers(0, 3)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 7), st.integers(2, 3), st.integers(0, 2**32 - 1),
       st.integers(0, 6), _radii)
def test_fingerprints_match_the_dict_walk_on_finite_actions(n, rank, seed,
                                                            root, radius):
    action = random_action(n, rank, seed)
    root %= n
    fp, conj = conjugate_fingerprints(root, action.step, rank, radius)
    ref_fp, ref_conj = reference_conjugate_fingerprints(root, action.step,
                                                        rank, radius)
    assert fp == ref_fp == cylinder_fingerprint(orbit_schreier(action, root),
                                                radius)
    assert list(conj.items()) == list(ref_conj.items())


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**64 - 1),
       st.sampled_from([Fraction(1, 2), Fraction(1, 10), Fraction(2, 3)]),
       st.booleans(), st.integers(1, 3), _radii)
def test_fingerprints_match_the_dict_walk_on_lazy_samples(seed, p, poulsen,
                                                          rank, radius):
    """Samples of normalizer:trivial and poulsen:normalizer:trivial."""
    law = NormalizerLaw(trivial_law(rank), p)
    if poulsen:
        law = PoulsenLaw(law, p)
    oracle = law.sample(seed)
    fp, conj = conjugate_fingerprints(oracle.root, oracle.neighbor, rank, radius)
    ref_fp, ref_conj = reference_conjugate_fingerprints(
        oracle.root, oracle.neighbor, rank, radius)
    assert fp == ref_fp == cylinder_fingerprint(oracle, radius)
    assert list(conj.items()) == list(ref_conj.items())


def _one_walk_samples(rank: int):
    """Samples of normalizer:trivial and poulsen:normalizer:trivial, random
    transitive finite actions and, at rank 2, Psi oracles."""
    trivial = trivial_law(rank)
    normalizer = NormalizerLaw(trivial, Fraction(1, 2))
    poulsen = PoulsenLaw(NormalizerLaw(trivial, Fraction(1, 4)), Fraction(1, 4))
    for seed in range(3):
        yield normalizer.sample(seed)
        yield poulsen.sample(seed)
        yield orbit_schreier(random_transitive_action(4 + seed, rank, seed), 0)
    if rank == 2:
        space = three_cycle_space()
        for q in range(space.action.n):
            yield psi_oracle(space.point(q))


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_one_walk_fingerprints_match_rebased_walks(rank, radius):
    moved = 0
    for oracle in _one_walk_samples(rank):
        fp, conj = conjugate_fingerprints(oracle.root, oracle.neighbor,
                                          rank, radius)
        assert fp == cylinder_fingerprint(oracle, radius)
        assert list(conj) == letters_ordered(rank)
        for l, fp_l in conj.items():
            assert fp_l == cylinder_fingerprint(conjugate(oracle, (l,)), radius)
            moved += fp_l != fp
    assert moved or radius == 0  # the check sees conjugation move a fingerprint


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_one_walk_fingerprints_of_codes_match_conjugate_codes(radius):
    laws = [stab_pushforward_law(random_transitive_action(n, rank, n))
            for n, rank in ((4, 2), (5, 2), (4, 3))]
    laws.append(enumerate_normalizer_law(cyclic_oracle(3), Fraction(1, 2)))
    for law in laws:
        for code in law.data:
            rank = code[0]
            fp, conj = conjugate_fingerprints(0, code_action(code).step,
                                              rank, radius)
            assert fp == cylinder_fingerprint(oracle_from_code(code), radius)
            for l in letters_ordered(rank):
                moved = oracle_from_code(conjugate_code(code, (l,)))
                assert conj[l] == cylinder_fingerprint(moved, radius)


def test_fingerprints_reject_a_negative_radius(index2):
    with pytest.raises(DomainError):
        cylinder_fingerprint(index2, -1)
    with pytest.raises(DomainError):
        conjugate_fingerprints(index2.root, index2.neighbor, 2, -1)


def test_aut_count_examples(index2):
    assert aut_count(index2) == 2
    # normal subgroup: Cayley graph of Z/5 quotient, all rebasings agree
    assert aut_count(cyclic_oracle(5, shift2=2)) == 5
    # asymmetric loop labels: s1 3-cycle, s2 swaps two points
    asym = FiniteAction(3, ((1, 2, 0), (1, 0, 2)))
    g = orbit_schreier(asym, 0)
    assert aut_count(g) == 1


def test_aut_count_matches_bruteforce():
    for oracle in (cyclic_oracle(4), cyclic_oracle(5, 2),
                   orbit_schreier(FiniteAction(3, ((1, 2, 0), (1, 0, 2))), 0)):
        assert aut_count(oracle) == brute_aut_count(oracle)


def test_aut_count_divides_vertex_count():
    for seed in range(6):
        g = orbit_schreier(random_transitive_action(6, 2, seed), 0)
        assert 6 % aut_count(g) == 0


def test_z_set_member_trivial(cayley2):
    assert z_set_member(cayley2, (1,), 4) == Z_CONSISTENT


def test_z_set_member_index2(index2):
    # s1 is outside the subgroup and normalizes it (index 2 is normal)
    assert z_set_member(index2, (1,), 4) == Z_CONSISTENT


def test_z_set_member_contained(index2):
    assert z_set_member(index2, (1, 1), 4) == Z_NO
    assert z_set_member(index2, (), 4) == Z_NO


def test_z_set_member_detects_non_normalizing():
    # stabilizer of 0 under s1 = (0 1 2), s2 = (0 1): not normal
    action = FiniteAction(3, ((1, 2, 0), (1, 0, 2)))
    oracle = orbit_schreier(action, 0)
    g = (1,)
    assert not contains(oracle, g)
    # independent witness: some w in K with g w g^-1 not in K
    witness = [w for w in cylinder_fingerprint(oracle, 4)
               if not contains(oracle, conjugated_word(g, w))]
    assert witness
    assert z_set_member(oracle, g, 4) == Z_NO


def test_z_set_member_radius_precondition(index2):
    with pytest.raises(DomainError):
        z_set_member(index2, (1, 2, 1), 2)


def test_canonical_code_roundtrip(index2):
    code = canonical_code(index2)
    rebuilt = oracle_from_code(code)
    assert rooted_equal_finite(rebuilt, index2)
    assert canonical_code(rebuilt) == code


def test_canonical_code_separates():
    a = cyclic_oracle(4)
    b = cyclic_oracle(5)
    assert canonical_code(a) != canonical_code(b)
    for seed in range(4):
        g = orbit_schreier(random_transitive_action(5, 2, seed), 0)
        for v in g.vertices:
            same = rooted_equal_finite(g.rebased(v), g)
            prefix_eq = canonical_code(g.rebased(v)) == canonical_code(g)
            assert same == prefix_eq


def test_conjugate_code(index2):
    code = canonical_code(index2)
    moved = conjugate_code(code, (1,))
    assert moved == canonical_code(conjugate(index2, (1,)))
    # conjugating an index-2 (normal) subgroup fixes the subgroup but may
    # move the root; rebasing at the other coset is not root-isomorphic here
    assert moved == code or oracle_from_code(moved).root is not None


def test_trace_reduce_consistency(cayley2, index2):
    rng = KeyedRng(23, "tracered")
    from irslab import trace

    for oracle in (cayley2, index2):
        for _ in range(500):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))]
            v = oracle.root
            for l in raw:
                v = oracle.neighbor(v, l)
            assert v == trace(oracle, reduce_word(raw))
