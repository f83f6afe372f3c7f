import functools
import hashlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from irslab.analysis import ball_code
from irslab.errors import (
    BudgetError,
    DomainError,
    HorizonError,
    InvalidGraphError,
)
from irslab.laws import NormalizerLaw, PoulsenLaw, trivial_law
from irslab.normalizer import SLOT_CUTS
from irslab.oracles import (
    BallBackedOracle,
    BallView,
    CayleyOracle,
    DEFAULT_BUDGET,
    FiniteAction,
    FiniteOracle,
    STAR,
    SchreierOracle,
    ball,
    bfs,
    conjugate,
    sub_ball,
    trace,
)
from irslab.poulsen import PercolationGraph, star_ball, view_equal_exact
from irslab.randomness import Keyed, KeyedRng
from irslab.sgr import emit_sgr, parse_sgr
from irslab.words import (
    inverse_word,
    letters_ordered,
    reduce_word,
    word_to_str,
    words_upto,
)

from helpers import (
    Counting,
    concat,
    conjugated_word,
    contains,
    outcome,
    reference_ball,
    reference_ball_code,
    reference_star_ball,
    reference_sub_ball,
    surgery,
)
from test_words import random_word


def test_trace_cayley(cayley2):
    # s1 and s2 are the digits 1 and 3 of a base-4 numeral
    assert trace(cayley2, (1, 2)) == 1 * 4 + 3 == 7
    assert cayley2.token(7) == "s1*s2"
    assert trace(cayley2, ()) == 0
    assert cayley2.token(0) == "e"


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_cayley_numerals_sort_in_shortlex_order(rank):
    """The numerals of the reduced words up to length 5 increase in their
    shortlex order, each is named by its word, and a step appends or
    cancels a letter of that word."""
    cayley = CayleyOracle(rank)
    words = words_upto(rank, 5)
    numerals = [trace(cayley, w) for w in words]
    assert numerals[0] == cayley.root == 0
    assert all(a < b for a, b in zip(numerals, numerals[1:]))
    for w, n in zip(words, numerals):
        assert cayley.token(n) == word_to_str(w)
        for l in letters_ordered(rank):
            assert cayley.neighbor(n, l) == trace(cayley, reduce_word(w + (l,)))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_cayley_tokens_do_not_depend_on_the_order_asked(rank):
    """The token memo builds each token from what is already named: asked
    in reverse shortlex order, where every ancestor is named after its
    descendants, and interleaved across two oracles asked in opposite
    orders, every numeral is named by its word."""
    words = words_upto(rank, 5)
    backward = CayleyOracle(rank)
    for w in reversed(words):
        assert backward.token(trace(backward, w)) == word_to_str(w)
    first, second = CayleyOracle(rank), CayleyOracle(rank)
    for w, v in zip(words, reversed(words)):
        assert first.token(trace(first, w)) == word_to_str(w)
        assert second.token(trace(second, v)) == word_to_str(v)


def test_cayley_token_of_a_long_word():
    """The token of a deep numeral is built without recursion."""
    rng = KeyedRng(5000, "long-word")
    w = [1]
    while len(w) < 5000:
        l = (1, -1, 2, -2)[rng.randrange(4)]
        if l != -w[-1]:
            w.append(l)
    w = tuple(w)
    cayley = CayleyOracle(2)
    assert cayley.token(trace(cayley, w)) == word_to_str(w)
    assert cayley.token(trace(cayley, w[:2500])) == word_to_str(w[:2500])


def test_a_rank_50000_cayley_graph_and_its_radius_0_ball_build_at_once():
    """The inverse of letters[j] is letters[j ^ 1], so the oracle's move
    table and a ball's are linear in the rank; finding each inverse with
    list.index took about 1.6 s at rank 8 000."""
    start = time.perf_counter()
    cayley = CayleyOracle(50_000)
    number, depth, cells = bfs(cayley.root, cayley.neighbor,
                               letters_ordered(50_000), 0)
    assert time.perf_counter() - start < 5
    assert (number, depth, cells) == ({0: 0}, [0], [None] * 100_000)
    assert cayley.neighbor(cayley.neighbor(0, -50_000), 50_000) == 0


def test_a_rank_past_the_budget_is_refused():
    with pytest.raises(BudgetError, match="rank exceeds budget"):
        CayleyOracle(DEFAULT_BUDGET + 1)


def test_a_filled_token_memo_names_a_ball_as_a_fresh_one():
    """`trivial_law` shares one Cayley oracle, and so one token memo, across
    its samples; a memo that other samples filled names a ball as a fresh
    one does."""
    def text(base, seed):
        law = PoulsenLaw(NormalizerLaw(base, Fraction(1, 10)), Fraction(1, 10))
        return emit_sgr(ball(law.sample(seed), 4))

    used = trivial_law(2)
    for seed in range(1, 6):
        text(used, seed)
    assert text(used, 0) == text(trivial_law(2), 0)


def test_trace_index2(index2):
    assert trace(index2, (1,)) == "B"
    assert trace(index2, (1, 2, 1)) == "A"


def test_contains_examples(index2, cayley2):
    assert not contains(index2, (1,))
    assert contains(index2, (1, 1))
    assert contains(index2, ())
    assert contains(cayley2, ())
    assert not contains(cayley2, (1,))


def test_contains_unreduced_input(index2):
    # contains reduces first; trace alone follows the letters literally
    w = (1, 2, -2, 1)
    assert contains(index2, w)
    v = index2.root
    for l in w:
        v = index2.neighbor(v, l)
    assert v == trace(index2, reduce_word(w))


def test_subgroup_axioms_sampled(index2):
    rng = KeyedRng(3, "closure")
    members = [w for w in _sample_words(rng, 400) if contains(index2, w)]
    assert len(members) > 20
    for i in range(0, len(members) - 1, 2):
        w, v = members[i], members[i + 1]
        assert contains(index2, concat(w, v))
        assert contains(index2, inverse_word(w))


def _sample_words(rng, n, max_len=10):
    return [random_word(rng, max_len) for _ in range(n)]


def test_conjugate_identity(index2):
    assert conjugate(index2, ()).root == index2.root


def test_conjugate_membership_sampled(index2):
    rng = KeyedRng(5, "conj")
    for _ in range(300):
        g = random_word(rng, 6)
        w = random_word(rng, 8)
        lhs = contains(conjugate(index2, g), w)
        rhs = contains(index2, conjugated_word(inverse_word(g), w))
        assert lhs == rhs


def test_conjugate_composition(cayley2, index2):
    rng = KeyedRng(7, "comp")
    for oracle in (cayley2, index2):
        for _ in range(100):
            g = random_word(rng, 5)
            h = random_word(rng, 5)
            a = conjugate(conjugate(oracle, g), h)
            b = conjugate(oracle, concat(h, g))
            assert a.root == b.root


def test_ball_cayley_radius1(cayley2):
    b = ball(cayley2, 1)
    assert len(b.vertices) == 5
    assert len(b.edges) == 4
    assert b.root == "e"
    assert len(b.boundary) == 4


def test_ball_saturates(index2):
    b = ball(index2, 10)
    assert len(b.vertices) == 2
    assert not b.boundary


def test_ball_radius0_keeps_root_loops(index2, cayley2):
    b = ball(index2, 0)
    assert len(b.vertices) == 1
    assert (("A", 2, "A") in b.edges)
    assert ball(cayley2, 0).edges == ()


@pytest.mark.parametrize("root, vertices, edges, boundary, message", [
    ("a", ["a"], [("a", 1, "z"), ("z", 1, "a")], ["q"],
     "boundary token 'q' is not a vertex"),
    ("a", ["a"], [("a", 1, "z"), ("z", 1, "a")], [],
     "edge endpoint 'z' is not a vertex"),
    ("a", ["a"], [("z", 1, "a")], [], "edge endpoint 'z' is not a vertex"),
    ("x", ["a"], [("a", 1, "a")], [], "root 'x' is not a vertex"),
    ("a", ["a", "a"], [("a", 1, "a")], [], "vertex 'a' is listed twice"),
    ("a", ["a", "b", "a"], [("a", 1, "b")], [], "vertex 'a' is listed twice"),
    ("a", ["a"], [("a", 2, "a")], [],
     "edge labels must lie in 1..rank or be STAR"),
], ids=["boundary", "edge-target", "edge-source", "root", "twice",
        "twice-apart", "label-past-rank"])
def test_ball_view_refuses_a_token_that_is_not_one_vertex(root, vertices,
                                                          edges, boundary,
                                                          message):
    with pytest.raises(DomainError) as caught:
        BallView(1, 1, root, vertices, edges, boundary)
    assert type(caught.value) is DomainError and str(caught.value) == message


def test_ball_rejects_negative_radius(cayley2):
    with pytest.raises(DomainError):
        ball(cayley2, -1)


def test_ball_budget(cayley2):
    with pytest.raises(BudgetError):
        ball(cayley2, 10, budget=10)


class _BrokenOracle(SchreierOracle):
    rank = 2
    root = 0

    def neighbor(self, v, letter):
        # s1 maps everything to 0: not a permutation
        if abs(letter) == 1:
            return 0
        return v + (1 if letter > 0 else -1)

    def token(self, v):
        return str(v)


def test_permutation_property_enforced():
    with pytest.raises(InvalidGraphError,
                       match=r"^permutation property fails at 1 \(letter 1\)$"):
        ball(_BrokenOracle(), 2)


def test_finite_oracle_validation():
    with pytest.raises(DomainError):
        FiniteOracle.from_perms([(0, 0), (0, 1)])
    with pytest.raises(InvalidGraphError):
        # both vertices send s1 into "0": two incoming s1-edges
        FiniteOracle.from_perms([(0, 0)])
    with pytest.raises(DomainError):
        # two components: s1, s2 both fix everything pointwise on 2 vertices
        FiniteOracle.from_perms([(0, 1), (0, 1)])


@pytest.mark.parametrize("perms", [
    [(0, 0), (0, 1)],  # s1 sends both points to 0
    [(1, 5), (0, 1)],  # target out of range
    [(1, -1), (0, 1)],  # negative target
    [(1, 0), (0,)],  # ragged perms
    [(1, 0, 2), (0, 1)],  # perms of two sizes
])
def test_non_permutations_raise_through_finite_action(perms):
    with pytest.raises(InvalidGraphError):
        FiniteAction(2, perms)
    with pytest.raises(InvalidGraphError):
        FiniteOracle.from_perms(perms)


def test_finite_oracle_names_and_root():
    action = FiniteAction(3, [[1, 2, 0], [0, 1, 2]])
    oracle = FiniteOracle(action, root=2, names=["x", "y", "z"])
    assert oracle.root == "z" and oracle.vertices == ("x", "y", "z")
    assert oracle.neighbor("z", 1) == "x" and oracle.neighbor("x", -1) == "z"
    assert FiniteOracle(action).vertices == ("0", "1", "2")
    for names in (["x", "y"], ["x", "x", "y"]):
        with pytest.raises(DomainError):
            FiniteOracle(action, names=names)
    with pytest.raises(DomainError):
        FiniteOracle(action, root=3)
    with pytest.raises(DomainError):  # disconnected
        FiniteOracle(FiniteAction(3, [[1, 0, 2], [0, 1, 2]]))


def test_ball_backed_oracle(cayley2):
    view = ball(cayley2, 3)
    o = BallBackedOracle(view)
    assert trace(o, (1, 2)) == "s1*s2"
    with pytest.raises(HorizonError):
        trace(o, (1, 2, 1, 2))
    inner = ball(o, 2)
    assert inner.vertices == ball(cayley2, 2).vertices


def test_sub_ball_matches_direct(cayley2):
    big = ball(cayley2, 4)
    small = sub_ball(big, 2)
    direct = ball(cayley2, 2)
    assert small.vertices == direct.vertices
    assert sorted(small.edges) == sorted(direct.edges)
    assert small.boundary == direct.boundary


P = Fraction(1, 10)
STORED_RADIUS = 4
_TRIVIAL = trivial_law(2)
_NORMALIZER = NormalizerLaw(_TRIVIAL, P)
BALL_LAWS = {"trivial": _TRIVIAL, "normalizer:trivial": _NORMALIZER,
             "poulsen:normalizer:trivial": PoulsenLaw(_NORMALIZER, P)}
# p = 1/2 over the trivial law gives many star edges
STAR_LAWS = {"trivial": (_TRIVIAL, Fraction(1, 2)),
             "normalizer:trivial": (_NORMALIZER, P)}
FAMILIES = ([f"ball {spec}" for spec in BALL_LAWS]
            + [f"star_ball {spec}" for spec in STAR_LAWS])


def _direct(family, seed):
    """radius -> the view of `family` at `seed`, built directly."""
    kind, spec = family.split(" ")
    if kind == "ball":
        oracle = BALL_LAWS[spec].sample(seed)
        return lambda k: ball(oracle, k)
    graph = PercolationGraph(*STAR_LAWS[spec], seed)
    return lambda k: star_ball(graph, k)


@pytest.mark.parametrize("family", FAMILIES)
def test_sub_ball_emits_the_direct_build(family):
    for seed in range(4):
        build = _direct(family, seed)
        view = build(STORED_RADIUS)
        for k in range(STORED_RADIUS + 1):
            assert emit_sgr(sub_ball(view, k)) == emit_sgr(build(k))


def test_sub_ball_past_the_stored_radius_raises(cayley2, index2):
    view = ball(cayley2, 2)
    for radius in (3, 5):
        with pytest.raises(HorizonError):
            sub_ball(view, radius)
    whole = ball(index2, 3)  # no boundary: the whole graph is stored
    assert not whole.boundary
    assert emit_sgr(sub_ball(whole, 6)) == emit_sgr(ball(index2, 6))
    with pytest.raises(DomainError):
        sub_ball(view, -1)


def test_sub_ball_keeps_a_star_edge_between_boundary_vertices():
    """A star edge joining two vertices at the outer depth is a cell that
    the boundary pass fills, for boundary vertices too."""
    text = ("schreier r=1\nroot a\na s1 b\nc s1 a\nb * c\n"
            "boundary b\nboundary c\n")
    view = parse_sgr(text)
    assert emit_sgr(sub_ball(view, 1)) == text


@pytest.mark.parametrize("spec", BALL_LAWS)
def test_ball_of_a_ball_backed_oracle_is_the_sub_ball(spec):
    for seed in range(4):
        view = ball(BALL_LAWS[spec].sample(seed), STORED_RADIUS)
        oracle = BallBackedOracle(view)
        for k in range(STORED_RADIUS):
            assert emit_sgr(ball(oracle, k)) == emit_sgr(sub_ball(view, k))


def test_ball_of_a_ball_backed_oracle_at_its_radius_leaves_the_ball(cayley2):
    oracle = BallBackedOracle(ball(cayley2, 2))
    for radius in (2, 3):
        with pytest.raises(HorizonError):
            ball(oracle, radius)


def _deep_ball_seed(i: int) -> int:
    """Seed of ball i of the benchmark's deep-ball workload at seed 1."""
    data = repr((1, "ball", i)).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def test_ball_asks_each_neighbor_once():
    """On the 20 radius-7 balls of the deep-ball workload, `ball` asks no
    (vertex, letter) twice: a step fills both ends of its edge, and only
    boundary vertices are asked for the s_i-edges the walk did not see."""
    law = PoulsenLaw(_NORMALIZER, P)
    calls = vertices = 0
    for i in range(20):
        oracle = Counting(law.sample(_deep_ball_seed(i)))
        vertices += len(ball(oracle, 7).vertices)
        assert max(oracle.asked.values()) == 1
        calls += sum(oracle.asked.values())
    # 305 422 calls in two passes, at stream version 1
    assert (calls, vertices) == (193_476, 64_040)


def _counting_draws(monkeypatch) -> dict:
    """Count every keyed draw from here on by its cut table: root slots
    (SLOT_CUTS), percolation bits (two cuts) and marks (any other)."""
    drawn = {"marks": 0, "bits": 0, "slots": 0}
    choose = Keyed.choose

    def counted(self, key, cuts):
        kind = "slots" if cuts is SLOT_CUTS else "bits" if len(cuts) == 2 \
            else "marks"
        drawn[kind] += 1
        return choose(self, key, cuts)

    monkeypatch.setattr(Keyed, "choose", counted)
    return drawn


def test_ball_draw_counts_on_the_deep_balls(monkeypatch):
    """On the 20 radius-7 balls of the deep-ball workload, a boundary
    vertex's percolation bit is drawn only where `known_neighbor` needs it
    (126 112 marks and bits at stream version 1 when every boundary s1-cell
    drew the bit)."""
    law = PoulsenLaw(_NORMALIZER, P)
    drawn = _counting_draws(monkeypatch)
    copies = 0
    for i in range(20):
        oracle = law.sample(_deep_ball_seed(i))
        ball(oracle, 7)
        copies += len(oracle.graph._copies)
    # 98 534 marks and bits
    assert (drawn, copies) == ({"marks": 62_595, "bits": 35_939,
                                "slots": 853}, 3_338)


def _holds_every_copy(graph: PercolationGraph, tokens) -> bool:
    """Each copy drawn in `graph` holds a vertex named in `tokens`."""
    # p(<trail>|<inner>); these tokens hold no escaped "|"
    trails = {t[2:t.index("|")] for t in tokens}
    return all(graph._trail(path) in trails for path in graph._copies)


def test_ball_draws_no_copy_beyond_the_ball():
    """`ball` leaves a boundary cell empty when `known_neighbor` shows its
    neighbour is new, so it draws no Poulsen copy that holds no ball
    vertex (2 268 of 4 808 copies on these balls did at stream version 1
    when every boundary cell was stepped)."""
    law = BALL_LAWS["poulsen:normalizer:trivial"]
    for seed in range(300, 340):
        oracle = law.sample(seed)
        assert _holds_every_copy(oracle.graph, ball(oracle, 6).vertices)


def test_star_ball_draws_no_copy_beyond_the_ball(monkeypatch):
    """`star_ball` reads a boundary vertex's missing cells through
    `known_step`, so it draws no copy that holds no view vertex (1 847 of
    2 764 copies, over 83 152 marks and bits, at stream version 1 when the
    star cells of boundary vertices drew their child copies)."""
    drawn = _counting_draws(monkeypatch)
    copies = 0
    for seed in range(300, 320):
        graph = PercolationGraph(*STAR_LAWS["normalizer:trivial"], seed)
        assert _holds_every_copy(graph, star_ball(graph, 6).vertices)
        copies += len(graph._copies)
    # 32 390 marks and bits
    assert (drawn, copies) == ({"marks": 24_054, "bits": 8_336,
                                "slots": 206}, 844)


def _order_laws() -> dict:
    """Every layer of the zoo at p = 1/2, and a normalizer over Poulsen."""
    p = Fraction(1, 2)
    normalizer = NormalizerLaw(_TRIVIAL, p)
    poulsen = PoulsenLaw(normalizer, p)
    return {"trivial": _TRIVIAL, "normalizer:trivial": normalizer,
            "poulsen:normalizer:trivial": poulsen,
            "poulsen:poulsen:normalizer:trivial": PoulsenLaw(poulsen, p),
            "normalizer:poulsen:normalizer:trivial": NormalizerLaw(poulsen, p)}


ORDER_LAWS = _order_laws()
DETOUR = (2, 1, 1, -2, 1, 2, 2, -1, -1, 2)  # leaves the radius-3 ball first


def _first_sample(law, case):
    """A fresh sample of `law` at the first seed in range(200) whose sample
    `case` holds for; there must be one."""
    seed = next((s for s in range(200) if case(law.sample(s))), None)
    assert seed is not None
    return law.sample(seed)


def _unknown_child_copy(oracle) -> bool:
    """The root is retained, and its own copy has not returned its in-copy
    s1-target."""
    u = oracle.root
    return oracle.graph.percolated(u) and \
        oracle.graph.copy(()).known_neighbor(u[1], 1) is None


def test_known_neighbor_reads_a_drawn_child_copy():
    """Once `neighbor(u, 1)` has drawn the copy attached at a retained u,
    `known_neighbor(u, 1)` gives that neighbour, though u's own copy has
    not marked u's in-copy s1-target."""
    oracle = _first_sample(BALL_LAWS["poulsen:normalizer:trivial"],
                           _unknown_child_copy)
    graph, u = oracle.graph, oracle.root
    assert graph.percolated(u)
    w = oracle.neighbor(u, 1)
    assert w[0] == (u[1],)  # in the copy attached at u
    assert graph.copy(()).known_neighbor(u[1], 1) is None
    assert oracle.known_neighbor(u, 1) == w


IN_COPY_WORD = (-1, 2, -1)  # its Cayley numeral is 2 * 16 + 3 * 4 + 2 = 46


def _retained_in_copy_target(oracle) -> bool:
    """Walking IN_COPY_WORD in the root copy ends at slot 2 of a coset whose
    known s1^-1-step, to slot 0, is retained and has no star partner yet."""
    graph = oracle.graph
    u = trace(oracle, IN_COPY_WORD)
    w = graph.known_step(u, -1)
    return u[0] == () and u[1][0] == "t" and u[1][2] == 2 and \
        w == ((), ("t", u[1][1], 0)) and graph.known_step(w, STAR) is None \
        and graph.percolated(w)


def test_known_neighbor_reads_the_bit_of_an_in_copy_target():
    """A vertex entered along s1^-1 at slot 2 of a tripled coset has its
    in-copy s1^-1-target inside the coset, known to the copy. That target
    is retained here, so the s1^-1-neighbour is the root of a copy not yet
    drawn, and `known_neighbor` must say None. (At p = 1/10 no seed in
    range(200) gives this case, so the law is the one at p = 1/2.)"""
    oracle = _first_sample(ORDER_LAWS["poulsen:normalizer:trivial"],
                           _retained_in_copy_target)
    graph = oracle.graph
    u = trace(oracle, IN_COPY_WORD)
    w = graph.known_step(u, -1)
    assert (u[1], w[1]) == (("t", 46, 2), ("t", 46, 0))
    assert graph.known_step(w, STAR) is None and graph.percolated(w)
    assert oracle.known_neighbor(u, -1) is None
    assert oracle.neighbor(u, -1) == ((w[1],), graph.copy((w[1],)).root)


@pytest.mark.parametrize("spec", ORDER_LAWS)
def test_a_sample_does_not_depend_on_its_exploration_order(spec):
    """Each draw is keyed by what it decides, not by when it is made: the
    radius-3 ball of a sample is the same when the sample has first walked
    a word that leaves the ball, drawing vertices and copies in another
    order."""
    law = ORDER_LAWS[spec]
    for seed in range(30):
        detoured = law.sample(seed)
        trace(detoured, DETOUR)
        assert emit_sgr(ball(detoured, 3)) == emit_sgr(ball(law.sample(seed), 3))


def _conjugated(law, g):
    """seed -> (sample of `law` rebased at the end of g^-1's walk, every
    vertex that walk returned)."""
    def source(seed):
        oracle = law.sample(seed)
        walk = [oracle.root]
        for l in inverse_word(g):
            walk.append(oracle.neighbor(walk[-1], l))
        return oracle.rebased(walk[-1]), walk
    return source


def _plain(law):
    """seed -> (sample of `law`, its root)."""
    def source(seed):
        oracle = law.sample(seed)
        return oracle, [oracle.root]
    return source


_HALF = Fraction(1, 2)
KNOWN_SOURCES = {
    **{spec: _plain(law) for spec, law in BALL_LAWS.items()},
    "conjugated poulsen:normalizer:trivial p=1/2": _conjugated(
        PoulsenLaw(NormalizerLaw(_TRIVIAL, _HALF), _HALF), (1, -2, 1, 1)),
    "normalizer:normalizer:trivial rank 3": _plain(
        NormalizerLaw(NormalizerLaw(trivial_law(3), _HALF), _HALF)),
}


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(KNOWN_SOURCES)), st.integers(0, 2**64 - 1),
       st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 5)),
                max_size=300))
def test_known_neighbor_is_the_neighbor_or_a_new_vertex(source, seed, steps):
    """For a vertex returned so far and a letter, `known_neighbor` gives
    `neighbor`, or None, and None only where `neighbor` then gives a
    vertex that was not returned before."""
    oracle, returned = KNOWN_SOURCES[source](seed)
    seen = set(returned)
    letters = letters_ordered(oracle.rank)
    for pick, j in steps:
        v, l = returned[pick % len(returned)], letters[j % len(letters)]
        known = oracle.known_neighbor(v, l)
        w = oracle.neighbor(v, l)
        assert known == w or known is None and w not in seen
        if w not in seen:
            seen.add(w)
            returned.append(w)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(STAR_LAWS)), st.integers(0, 2**64 - 1),
       st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 4)),
                max_size=300))
def test_known_step_is_the_step_or_a_new_vertex(spec, seed, steps):
    """For a vertex returned so far and a letter or STAR, `known_step`
    gives `step` or `star`, or None, and None only where there is no star
    partner or where the neighbour was not returned before."""
    graph = PercolationGraph(*STAR_LAWS[spec], seed)
    returned = [graph.root]
    seen = set(returned)
    letters = letters_ordered(graph.rank) + [STAR]
    for pick, j in steps:
        v, l = returned[pick % len(returned)], letters[j]
        known = graph.known_step(v, l)
        w = graph.star(v) if l == STAR else graph.step(v, l)
        assert known == w or known is None and w not in seen
        if w is not None and w not in seen:
            seen.add(w)
            returned.append(w)


def _same_view(got, want) -> None:
    assert view_equal_exact(got, want)
    assert emit_sgr(got) == emit_sgr(want)
    assert ball_code(got) == reference_ball_code(want)


@settings(deadline=None, max_examples=50)
@given(st.sampled_from(FAMILIES), st.integers(0, 2**64 - 1), st.integers(0, 6),
       st.integers(-2, 2))
def test_views_equal_the_two_pass_reference(family, seed, radius, slack):
    """`ball`, `star_ball`, `sub_ball` and `ball_code` agree with a BFS
    followed by a second stepping pass, at budgets around the vertex count,
    on grown, constructor-built, parsed, surgered and disconnected views."""
    kind, spec = family.split(" ")
    if kind == "ball":
        fresh = functools.partial(BALL_LAWS[spec].sample, seed)
        build, reference = ball, reference_ball
    else:
        fresh = functools.partial(PercolationGraph, *STAR_LAWS[spec], seed)
        build, reference = star_ball, reference_star_ball
    # the view under test grows on a sample of its own that nothing warmed
    source, cold = fresh(), fresh()
    budget = max(1, len(reference(source, radius).vertices) + slack)
    got, error = outcome(build, cold, radius, budget)
    want, expected = outcome(reference, source, radius, budget)
    assert error is expected
    if error is not None:
        return
    _same_view(got, want)
    # the same graph through the constructor, read back from its text,
    # surgered, and with a vertex the root does not reach
    built = BallView(got.rank, got.radius, got.root, reversed(got.vertices),
                     reversed(got.edges), got.boundary)
    assert view_equal_exact(built, got)
    lost = BallView(got.rank, got.radius, got.root, [*got.vertices, "~"],
                    [*got.edges, ("~", 1, "~")], got.boundary)
    views = [got, built, parse_sgr(emit_sgr(got)), lost]
    cut, error = outcome(surgery, got)
    if error is None and got.has_stars():
        views.append(cut)
    assert outcome(ball_code, lost) == (None, DomainError)
    for view in views:
        code, error = outcome(ball_code, view)
        assert (code, error) == outcome(reference_ball_code, view)
        for k in range(radius + 2):
            small, error = outcome(sub_ball, view, k)
            expected_small, expected = outcome(reference_sub_ball, view, k)
            assert error is expected
            if error is None:
                _same_view(small, expected_small)
