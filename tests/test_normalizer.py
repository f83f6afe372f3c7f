import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from irslab import normalizer
from irslab.actions import orbit_schreier, random_transitive_action
from irslab.analysis import (
    array_code,
    aut_count,
    oracle_from_code,
    root_isomorphic,
)
from irslab.errors import DomainError
from irslab.laws import NormalizerLaw, PointLaw, trivial_law
from irslab.montecarlo import exact_invariance_rows
from irslab.normalizer import (
    MarkLaw,
    NormalizerOracle,
    SLOT_CUTS,
    _HashMarks,
    _tripled,
    aut_trivial_mass,
    enumerate_normalizer_law,
    mark,
    normalizer_oracle,
)
from irslab.oracles import (
    CayleyOracle,
    FiniteOracle,
    ball,
    trace,
    validate_schreier_ball,
)
from irslab.randomness import Keyed, subseed
from irslab.sgr import emit_sgr
from irslab.words import reduce_word

from helpers import cyclic_oracle, index2_oracle, one_vertex_oracle, outcome


def test_mark_law_boundaries():
    with pytest.raises(DomainError):
        MarkLaw(Fraction(0), 2)
    with pytest.raises(DomainError):
        MarkLaw(Fraction(1), 2)
    with pytest.raises(DomainError):
        MarkLaw(Fraction(3, 2), 2)


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1), Fraction(3, 2)])
def test_normalizer_law_checks_p_when_built(p):
    with pytest.raises(DomainError):
        NormalizerLaw(trivial_law(2), p)


def test_mark_law_accepts_rank_1():
    law = MarkLaw(Fraction(1, 2), 1)
    assert law.masses(at_root=False) == [Fraction(1, 2), Fraction(1, 2)]
    assert law.masses(at_root=True) == [Fraction(1, 4), Fraction(3, 4)]


def test_mark_law_q_formula():
    assert MarkLaw(Fraction(1, 2), 2).q == Fraction(3, 4)
    assert MarkLaw(Fraction(3, 10), 2).q == Fraction(9, 16)
    for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
        law = MarkLaw(p, 3)
        assert 0 < law.q < 1
        assert sum(law.masses(at_root=True)) == 1
        assert sum(law.masses(at_root=False)) == 1


def test_mark_monte_carlo_frequencies():
    law = MarkLaw(Fraction(3, 10), 2)
    n = 100_000
    zeros = sum(1 for k in range(n) if mark(99, ("v", k), law, False) == 0)
    assert abs(zeros / n - 0.7) < 0.005
    root_zeros = sum(1 for k in range(n) if mark(99, ("v", k), law, True) == 0)
    assert abs(root_zeros / n - float(1 - law.q)) < 0.005


def test_root_slot_uniform():
    counts = [0, 0, 0]
    for seed in range(30_000):
        counts[Keyed(seed, "rootslot").choose("root", SLOT_CUTS)] += 1
    for c in counts:
        assert abs(c / 30_000 - 1 / 3) < 0.02


# Every letter at every slot of the one coset of the one-vertex base, by
# mark: s_m runs 0 -> 2 -> 0 with a loop at 1, the other generator runs the
# 3-cycle 0 -> 1 -> 2 -> 0, and each inverse letter runs the other way.
# Stepping off slot 2 (slot 0 for an inverse letter) crosses to the base
# neighbour, which is the same coset.
ONE_COSET_STEPS = {
    1: {1: (2, 1, 0), 2: (1, 2, 0), -1: (2, 1, 0), -2: (2, 0, 1)},
    2: {1: (1, 2, 0), 2: (2, 1, 0), -1: (2, 0, 1), -2: (2, 1, 0)},
}


def test_tripled_one_vertex_structure():
    base = one_vertex_oracle()
    t = lambda s: ("t", "v", s)
    for m, steps in ONE_COSET_STEPS.items():
        oracle = NormalizerOracle(base, {"v": m}.__getitem__, root_slot=0)
        assert oracle.root == t(0)
        for letter, targets in steps.items():
            assert [oracle.neighbor(t(s), letter) for s in range(3)] == \
                [t(x) for x in targets], (m, letter)
        succ, enter = _tripled(base)([m])
        assert enter == [0]
        for i in (1, 2):
            assert succ[i - 1] == list(steps[i])
            assert [succ[i - 1].index(s) for s in range(3)] == list(steps[-i])
        view = ball(oracle, 10)
        validate_schreier_ball(view)
        assert len(view.vertices) == 3
    # crossings on the index-2 base, A unmarked and B marked 2: s1 swaps A
    # and B, s2 fixes both
    base = index2_oracle()
    marks = {"A": 0, "B": 2}
    oracle = NormalizerOracle(base, marks.__getitem__, root_slot=0)
    assert oracle.root == ("b", "A")
    # into B at slot 0 by s1 and at slot 2 by s1^-1
    assert oracle.neighbor(("b", "A"), 1) == ("t", "B", 0)
    assert oracle.neighbor(("b", "A"), -1) == ("t", "B", 2)
    # out of B from slot 2 by s1 and from slot 0 by s1^-1
    assert oracle.neighbor(("t", "B", 2), 1) == ("b", "A")
    assert oracle.neighbor(("t", "B", 0), -1) == ("b", "A")
    # s2 fixes B in the base, so stepping off B by s2 comes back into B
    assert oracle.neighbor(("t", "B", 2), 2) == ("t", "B", 0)
    assert oracle.neighbor(("t", "B", 0), -2) == ("t", "B", 2)
    assert oracle.neighbor(("b", "A"), 2) == ("b", "A")
    # the int-array form: A owns id 0, B owns ids 1, 2 and 3
    succ, enter = _tripled(base)([0, 2])
    assert enter == [0, 1]
    assert succ == [[1, 2, 3, 0], [0, 3, 2, 1]]


def test_all_enumerated_outcomes_valid():
    base = index2_oracle()
    for assignment in itertools.product((0, 1, 2), repeat=2):
        table = dict(zip(base.vertices, assignment))
        for slot in (0, 1, 2):
            oracle = NormalizerOracle(base, table.__getitem__, slot)
            view = ball(oracle, 12)
            validate_schreier_ball(view)
            assert not view.boundary
            view.to_oracle()  # permutation + connectivity checks


def test_vertex_count_formula():
    base = index2_oracle()
    for seed in range(10):
        oracle = normalizer_oracle(base, Fraction(1, 2), seed)
        marks = [oracle._mark(v) for v in base.vertices]
        expected = sum(1 if m == 0 else 3 for m in marks)
        assert len(ball(oracle, 20).vertices) == expected


def test_small_p_ball_agreement_probability():
    # no marks on the 17 radius-2 ball vertices forces ball agreement, so
    # (1-q)(1-p)^16 lower-bounds the agreement probability; the exact value
    # over the free-group base is (1-q)(1-p)^4, since a mark at distance 2
    # hides its extra slots outside the ball
    base = CayleyOracle(2)
    p = Fraction(1, 20)
    law = MarkLaw(p, 2)
    lower = float((1 - law.q) * (1 - p) ** 16)
    exact = float((1 - law.q) * (1 - p) ** 4)
    n = 4000
    base_ball = ball(base, 2)
    hits = 0
    for k in range(n):
        oracle = normalizer_oracle(base, p, subseed(1234, "trial", k))
        if root_isomorphic(ball(oracle, 2), base_ball):
            hits += 1
    stderr = (exact * (1 - exact) / n) ** 0.5
    assert hits / n >= lower - 3 * stderr
    assert abs(hits / n - exact) <= 4 * stderr


def test_enumeration_total_mass_exact():
    law = enumerate_normalizer_law(index2_oracle(), Fraction(1, 3))
    assert law.total() == 1
    law2 = enumerate_normalizer_law(one_vertex_oracle(), Fraction(2, 5))
    assert law2.total() == 1


def test_enumeration_support_one_vertex_base():
    # hand count: unmarked stays the 1-vertex graph; marked (2 choices of
    # mark) triples it and the three root slots are pairwise distinguishable
    law = enumerate_normalizer_law(one_vertex_oracle(), Fraction(1, 2))
    assert len(law) == 7
    q = MarkLaw(Fraction(1, 2), 2).q
    unmarked = [m for code, m in law.data.items() if code[1] == 1]
    assert unmarked == [1 - q]
    tripled = [m for code, m in law.data.items() if code[1] == 3]
    assert len(tripled) == 6
    assert all(m == q / 6 for m in tripled)


def test_exact_invariance_index2():
    law = enumerate_normalizer_law(index2_oracle(), Fraction(1, 2))
    rows = exact_invariance_rows(law, 2)
    assert rows
    assert all(r.deviation == 0 for r in rows)


def test_biased_root_slot_breaks_invariance():
    law = enumerate_normalizer_law(index2_oracle(), Fraction(1, 2),
                                   biased_root_slot=0)
    rows = exact_invariance_rows(law, 2)
    assert any(r.deviation != 0 for r in rows)


@pytest.mark.parametrize("slot", [-1, 3, 7])
def test_bad_biased_root_slot_raises_whatever_the_root_mark(slot):
    # the law checks its slot when it is built, before any sample
    with pytest.raises(DomainError, match="root slot"):
        NormalizerLaw(trivial_law(2), Fraction(1, 10), biased_root_slot=slot)
    for seed in range(50):
        with pytest.raises(DomainError):
            normalizer_oracle(CayleyOracle(2), Fraction(1, 10), seed, slot)
    # the slot is checked before the budget: 3^8 outcomes exceed 10
    for budget in ({"budget": 10}, {}):
        with pytest.raises(DomainError, match="root slot"):
            enumerate_normalizer_law(cyclic_oracle(8), Fraction(1, 10),
                                     biased_root_slot=slot, **budget)


def test_determinism_same_seed():
    base = CayleyOracle(2)
    a = normalizer_oracle(base, Fraction(1, 5), 77)
    b = normalizer_oracle(base, Fraction(1, 5), 77)
    assert emit_sgr(ball(a, 4)) == emit_sgr(ball(b, 4))
    c = normalizer_oracle(base, Fraction(1, 5), 78)
    assert not root_isomorphic(ball(a, 4), ball(c, 4))


def test_composition_normalizer_over_normalizer():
    inner = normalizer_oracle(CayleyOracle(2), Fraction(1, 4), 5)
    outer = normalizer_oracle(inner, Fraction(1, 4), 6)
    view = ball(outer, 3)
    validate_schreier_ball(view)


def test_enumeration_budget():
    from irslab.errors import BudgetError

    base = orbit_schreier(random_transitive_action(8, 2, 0), 0)
    with pytest.raises(BudgetError):
        enumerate_normalizer_law(base, Fraction(1, 2), budget=100)


@pytest.mark.parametrize("slot", (None, 0, 2))
@pytest.mark.parametrize("n, rank", [(1, 2), (4, 2), (3, 3)])
def test_enumeration_budget_is_the_number_of_outcomes(n, rank, slot):
    """A budget equal to the number of (assignment, root slot) outcomes that
    enumerate_normalizer_law enumerates passes, and one less raises."""
    from irslab.errors import BudgetError

    base = orbit_schreier(random_transitive_action(n, rank, 3), 0)
    at_root = 1 + 3 * rank if slot is None else rank + 1
    outcomes = (rank + 1) ** (n - 1) * at_root
    codes = []

    def recorded(succ, root):
        codes.append(root)
        return array_code(succ, root)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(normalizer, "array_code", recorded)
        enumerate_normalizer_law(base, Fraction(1, 2), biased_root_slot=slot,
                                 budget=outcomes)
    assert len(codes) == outcomes
    with pytest.raises(BudgetError, match=f"^{outcomes} outcomes exceed "
                                          f"enumeration budget {outcomes - 1}$"):
        enumerate_normalizer_law(base, Fraction(1, 2), biased_root_slot=slot,
                                 budget=outcomes - 1)


def test_aut_trivial_mass_monotone_in_index():
    # the self-normalizing fraction should not drop as the base grows
    p = Fraction(1, 2)
    masses = []
    for n in (2, 4, 6):
        base = orbit_schreier(random_transitive_action(n, 2, seed=41), 0)
        masses.append(aut_trivial_mass(base, p))
    assert all(0 <= m <= 1 for m in masses)
    assert masses == sorted(masses)


def test_aut_trivial_mass_agrees_with_law():
    base = index2_oracle()
    p = Fraction(1, 2)
    law = enumerate_normalizer_law(base, p)
    via_law = sum(
        (m for code, m in law.data.items()
         if aut_count(oracle_from_code(code)) == 1),
        Fraction(0),
    )
    assert aut_trivial_mass(base, p) == via_law


class _Name(str):
    """A vertex name of a str subclass."""


_names = st.text(st.characters(exclude_categories=()), min_size=1, max_size=4) \
    | st.sampled_from(["é", "日本", "\ud800", "a\udfffb"]) \
    | st.builds(_Name, st.text(min_size=1, max_size=3))
_laws = st.builds(MarkLaw, st.sampled_from(
    [Fraction(1, 10), Fraction(1, 2), Fraction(2, 3)]), st.just(2))


@settings(deadline=None)
@given(st.integers(0, 2**64 - 1), _laws,
       st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8))
def test_hash_marks_equal_mark_over_cayley(seed, law, letters):
    base = CayleyOracle(2)
    marks = _HashMarks(base, law, seed)
    w = trace(base, reduce_word(letters))
    for v in (w, base.root, w):
        assert marks(v) == mark(seed, v, law, v == base.root)


@settings(deadline=None)
@given(st.integers(0, 2**64 - 1), _laws,
       st.lists(_names, min_size=3, max_size=3, unique=True))
def test_hash_marks_equal_mark_over_named_base(seed, law, names):
    base = FiniteOracle.from_perms([(1, 2, 0), (0, 2, 1)], names=names)
    marks = _HashMarks(base, law, seed)
    for v in base.vertices:
        expected = outcome(mark, seed, base.token(v), law, v == base.root)
        assert outcome(marks, v) == expected


@pytest.mark.parametrize("inner", [trivial_law(2), PointLaw(index2_oracle())],
                         ids=["trivial", "index2"])
@pytest.mark.parametrize("p", [Fraction(1, 10), Fraction(1, 2)])
@pytest.mark.parametrize("slot", [None, 0])
def test_law_sample_is_the_public_sampler(inner, p, slot):
    """A law draws its base and marks from the sub-seeds of its seed and
    otherwise samples exactly as normalizer_oracle does."""
    law = NormalizerLaw(inner, p, biased_root_slot=slot)
    base = inner.sample(0)
    for s in range(50):
        direct = normalizer_oracle(base, p, subseed(s, "law", "marks"), slot)
        assert emit_sgr(ball(law.sample(s), 3)) == emit_sgr(ball(direct, 3))


def test_a_built_law_reads_no_cut_table_per_sample(monkeypatch):
    law = NormalizerLaw(trivial_law(2), Fraction(1, 10))
    calls = []
    thresholds = MarkLaw.thresholds

    def counting(self, at_root):
        calls.append(at_root)
        return thresholds(self, at_root)

    monkeypatch.setattr(MarkLaw, "thresholds", counting)
    for s in range(1000):
        law.sample(s)
    assert calls == []
