"""The int-array exact enumerators against the lazy-oracle reference path.

enumerate_normalizer_law, aut_trivial_mass, aut_count, conjugate_code and
the stabilizer codes of an action work on int arrays; the helpers rebuild
the same quantities one NormalizerOracle and one FiniteOracle at a time.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction
from operator import getitem

import pytest
from hypothesis import given, settings, strategies as st

from irslab.actions import (
    orbit_schreier,
    random_action,
    random_transitive_action,
)
from irslab.analysis import (
    array_code,
    aut_count,
    aut_trivial,
    automorphisms,
    canonical_code,
    oracle_from_code,
)
from irslab.errors import DomainError, InvalidGraphError
from irslab.normalizer import (
    MarkLaw,
    _cycle_type,
    _tripled,
    _vertex_terms,
    aut_trivial_mass,
    enumerate_normalizer_law,
)
from irslab.oracles import FiniteOracle
from irslab.words import letters_ordered

from helpers import (
    atom_keys,
    brute_aut_count,
    conjugate_code,
    cyclic_oracle,
    index2_oracle,
    one_vertex_oracle,
    reference_aut_count,
    reference_aut_trivial_mass,
    reference_conjugate_code,
    reference_normalizer_law,
    reference_oracle_from_code,
)

KLEIN_FOUR = ((1, 0, 3, 2), (2, 3, 0, 1))  # the Cayley graph of Z/2 x Z/2
# index2, cyclic4, klein-four and cyclic3 r3 have nontrivial automorphisms,
# so aut_trivial_mass meets orbits with several members whose root marks
# differ
BASES = {
    "one-vertex r2": one_vertex_oracle,
    "index2 r2": index2_oracle,
    "cyclic3 r2": lambda: cyclic_oracle(3),
    "cyclic4 shift3 r2": lambda: cyclic_oracle(4, 3),
    "random4 r2": lambda: orbit_schreier(random_transitive_action(4, 2, 1), 0),
    "one-vertex r3": lambda: FiniteOracle.from_perms([(0,)] * 3),
    "random3 r3": lambda: orbit_schreier(random_transitive_action(3, 3, 2), 0),
    "random4 r3": lambda: orbit_schreier(random_transitive_action(4, 3, 0), 0),
    "klein-four r2": lambda: FiniteOracle.from_perms(KLEIN_FOUR),
    "cyclic3 r3": lambda: FiniteOracle.from_perms([(1, 2, 0)] * 3),
}
PS = (Fraction(1, 2), Fraction(1, 10), Fraction(2, 3))


@pytest.mark.parametrize("p", PS, ids=str)
@pytest.mark.parametrize("slot", (None, 0, 1, 2))
@pytest.mark.parametrize("name", BASES)
def test_law_matches_reference(name, slot, p):
    base = BASES[name]()
    law = enumerate_normalizer_law(base, p, biased_root_slot=slot)
    assert law == reference_normalizer_law(base, p, biased_root_slot=slot)
    assert law.total() == 1


@pytest.mark.parametrize("p", PS, ids=str)
@pytest.mark.parametrize("name", BASES)
def test_aut_trivial_mass_matches_reference(name, p):
    base = BASES[name]()
    assert aut_trivial_mass(base, p) == reference_aut_trivial_mass(base, p)


def test_counting_test_calls_only_rigid_graphs_rigid():
    """Summed over any mark assignment, the per-vertex terms of
    aut_trivial_mass give the root's mark, the vertices N and the s_i-loops
    L_i of the tripled graph, and every graph whose gcd is 1 has no
    automorphism."""
    bases = [BASES[name]() for name in BASES]
    bases += [orbit_schreier(random_transitive_action(n, rank, seed), 0)
              for n in range(3, 7) for rank in (2, 3) for seed in (0, 1)]
    assert any(v == w for b in bases for s in b.action.perms
               for v, w in enumerate(s))  # some bases have fixed points
    fired = tested = 0
    for base in bases:
        perms = base.action.perms
        n = len(perms[0])
        root = base.vertices.index(base.root)
        terms = _vertex_terms(perms, root)
        build = _tripled(base)
        for marks in itertools.product(range(base.rank + 1), repeat=n):
            a, marked, *loops = map(sum, zip(*map(getitem, terms, marks)))
            succ = build(marks)[0]
            assert a == marks[root]
            assert n + 2 * marked == len(succ[0])
            assert loops == [sum(1 for u, w in enumerate(s) if u == w)
                             for s in succ]
            tested += 1
            if math.gcd(n + 2 * marked, *loops) == 1:
                fired += 1
                assert aut_trivial(succ), (perms, marks)
    assert 0 < fired < tested


def _on_cycles(perm) -> dict:
    """{L: the number of points on the L-cycles of a permutation}."""
    on = {}
    for v in range(len(perm)):
        w, length = perm[v], 1
        while w != v:
            w, length = perm[w], length + 1
        on[length] = on.get(length, 0) + 1
    return on


def test_cycle_test_calls_only_rigid_graphs_rigid():
    """Over the letters of more than one cycle, cycle_gcd(marks, 0) is the
    gcd of the numbers of vertices on the s_i-cycles of each length in the
    tripled graph, slot-1 loops included, and |Aut| divides it. Every graph
    it settles after the loop gcd has no automorphism, and it exists only
    for bases with a letter of several cycles."""
    bases = [BASES[name]() for name in BASES]
    bases += [orbit_schreier(random_transitive_action(n, rank, seed), 0)
              for n in range(3, 8) for rank in (2, 3) for seed in (0, 1)]
    fired = skipped = 0
    for base in bases:
        perms = base.action.perms
        n = len(perms[0])
        several = [i for i, s in enumerate(perms) if _on_cycles(s) != {n: n}]
        cycle_gcd = _cycle_type(perms)
        assert (cycle_gcd is None) == (not several)
        if cycle_gcd is None:
            skipped += 1
            continue
        terms = _vertex_terms(perms, base.vertices.index(base.root))
        build = _tripled(base)
        for marks in itertools.product(range(base.rank + 1), repeat=n):
            _, marked, *loops = map(sum, zip(*map(getitem, terms, marks)))
            succ = build(marks)[0]
            counts = [c for i in several for c in _on_cycles(succ[i]).values()]
            assert cycle_gcd(marks, 0) == math.gcd(*counts), (perms, marks)
            aut = 1 + sum(1 for _ in automorphisms(succ))
            assert math.gcd(*counts) % aut == 0
            g = math.gcd(n + 2 * marked, *loops)
            if g > 1 and cycle_gcd(marks, g) == 1:
                fired += 1
                assert aut == 1, (perms, marks)
    assert fired and skipped


@st.composite
def _small_bases(draw):
    """Transitive bases of index 1-5 at rank 2 or 3: random actions at any
    root, or rotations of Z/n (n automorphisms; a zero shift fixes every
    point)."""
    n, rank = draw(st.sampled_from(range(1, 6))), draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        action = random_transitive_action(n, rank, seed)
        return orbit_schreier(action, draw(st.integers(0, n - 1)))
    shifts = draw(st.permutations(
        [1] + [draw(st.integers(0, n - 1)) for _ in range(rank - 1)]))
    return FiniteOracle.from_perms([tuple((v + k) % n for v in range(n))
                                    for k in shifts])


@settings(deadline=None, max_examples=100)
@given(_small_bases(), st.sampled_from(PS))
def test_aut_trivial_mass_matches_reference_on_small_bases(base, p):
    assert aut_trivial_mass(base, p) == reference_aut_trivial_mass(base, p)


def test_aut_trivial_mass_allocates_no_object_per_assignment():
    """3^10 assignments: one Python int each would take about 2 MB."""
    base = cyclic_oracle(10)
    tracemalloc.start()
    try:
        mass = aut_trivial_mass(base, Fraction(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mass == Fraction(1041965, 1048576)
    assert peak < 2**20


@pytest.mark.parametrize("n, mass", [(7, Fraction(16317, 16384)),
                                     (8, Fraction(8057, 8192)),
                                     (9, Fraction(65361, 65536)),
                                     (10, Fraction(1041965, 1048576)),
                                     (11, Fraction(4193277, 4194304)),
                                     (12, Fraction(8366823, 8388608))])
def test_aut_trivial_mass_of_larger_cyclic_bases(n, mass):
    assert aut_trivial_mass(cyclic_oracle(n), Fraction(1, 2)) == mass


def test_a_rigid_base_can_have_a_tripled_graph_with_an_automorphism():
    # so a base with no automorphism does not settle its tripled graphs
    base = FiniteOracle.from_perms([(0, 2, 3, 1), (1, 2, 3, 0)])
    assert aut_count(base) == 1
    succ, _ = _tripled(base)((0, 0, 1, 0))
    assert len(succ[0]) == 6 and len(list(automorphisms(succ))) == 1
    assert aut_trivial_mass(base, Fraction(1, 2)) == Fraction(63, 64)
    assert aut_trivial_mass(base, Fraction(1, 10)) == Fraction(7757, 8000)


def test_automorphisms_are_the_maps_commuting_with_every_letter():
    graphs = [BASES[name]() for name in BASES]
    graphs += [cyclic_oracle(n) for n in range(1, 9)]
    for g in graphs:
        perms = g.action.perms
        maps = list(automorphisms(perms))
        assert len(maps) == reference_aut_count(g) - 1
        assert len({tuple(m) for m in maps}) == len(maps)
        for m in maps:
            assert sorted(m) == list(range(len(m))) != m
            for s in perms:
                assert [m[s[v]] for v in range(len(m))] == [s[x] for x in m]
    assert len(list(automorphisms(KLEIN_FOUR))) == 3


@pytest.mark.parametrize("name", BASES)
def test_aut_count_and_conjugate_code_match_reference(name):
    base = BASES[name]()
    law = enumerate_normalizer_law(base, Fraction(1, 2))
    words = [(l,) for l in letters_ordered(base.rank)]
    words += [(), (1, -2), (2, 2, -1)]
    for code in atom_keys(law):
        reference = reference_oracle_from_code(code)
        count = aut_count(oracle_from_code(code))
        assert count == reference_aut_count(reference)
        if code[1] <= 6:
            assert count == brute_aut_count(reference)
        for g in words:
            assert conjugate_code(code, g) == reference_conjugate_code(code, g)


def test_aut_count_of_base_graphs_matches_reference():
    graphs = [cyclic_oracle(n, k) for n in range(1, 9) for k in range(n)]
    graphs += [orbit_schreier(random_transitive_action(n, r, seed), 0)
               for n in (5, 6, 7) for r in (2, 3) for seed in range(3)]
    for g in graphs:
        assert aut_count(g) == reference_aut_count(g)


def test_array_code_of_an_action_is_the_orbit_graph_code():
    for n in range(1, 8):
        for rank in (1, 2, 3):
            action = random_action(n, rank, 10 * n + rank)
            for x in range(n):
                assert array_code(action.perms, x) == \
                    canonical_code(orbit_schreier(action, x))


@pytest.mark.parametrize("code", [
    (2, 2, ((0, 0), (0, 1))),  # s1 sends both vertices to 0
    (2, 2, ((1, 5), (0, 1))),  # target out of range
    (2, 2, ((1, -1), (0, 1))),  # negative target
    (2, 2, ((1, 0), (0,))),  # ragged rows
    (2, 3, ((1, 0), (0, 1))),  # fewer rows than vertices
])
def test_code_rows_that_are_not_permutations_raise(code):
    with pytest.raises(InvalidGraphError):
        conjugate_code(code, (1,))
    with pytest.raises(InvalidGraphError):
        oracle_from_code(code)


def test_conjugate_code_rejects_disconnected_codes_and_bad_letters():
    with pytest.raises(DomainError):
        conjugate_code((1, 2, ((0,), (1,))), (1,))
    with pytest.raises(DomainError):
        oracle_from_code((1, 2, ((0,), (1,))))
    law = enumerate_normalizer_law(index2_oracle(), Fraction(1, 2))
    code = law.items_sorted()[0][0]
    for g in ((3,), (0,), (-3, 1)):
        with pytest.raises(DomainError):
            conjugate_code(code, g)


def test_thresholds_are_cached_tuples():
    a = MarkLaw(Fraction(1, 10), 2).thresholds(at_root=True)
    b = MarkLaw(Fraction(1, 10), 2).thresholds(at_root=True)
    assert isinstance(a, tuple) and a is b
    assert a != MarkLaw(Fraction(1, 10), 2).thresholds(at_root=False)
    assert a != MarkLaw(Fraction(1, 10), 3).thresholds(at_root=True)
