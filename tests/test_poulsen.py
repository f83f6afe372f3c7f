from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from irslab import (
    BudgetError,
    DomainError,
    FiniteOracle,
    InvalidGraphError,
    NormalizerLaw,
    PointLaw,
    PoulsenLaw,
    ball,
    contains,
    cylinder_fingerprint,
    emit_sgr,
    parse_sgr,
    poulsen_oracle,
    trace,
    trivial_law,
    validate_schreier_ball,
)
from irslab.oracles import STAR, BallView, bfs
from irslab.poulsen import (
    PercolationGraph,
    PoulsenOracle,
    inverse_surgery,
    star_ball,
    star_records,
    surgery,
    view_equal_exact,
)
from irslab.randomness import digest128, subseed
from irslab.words import letters_ordered

from helpers import index2_oracle


def test_poulsen_rejects_bad_p():
    with pytest.raises(DomainError):
        poulsen_oracle(trivial_law(2), Fraction(0), 1)
    with pytest.raises(DomainError):
        poulsen_oracle(trivial_law(2), Fraction(1), 1)
    for p in (Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 2)):
        with pytest.raises(DomainError, match="strictly between"):
            PoulsenLaw(trivial_law(2), p)  # checked before any sample


def test_surgery_identity_without_stars(cayley2):
    view = ball(cayley2, 2)
    assert view_equal_exact(surgery(view), view)


def _two_copy_star_view():
    # two complete index-2 copies A,B and A',B' joined by a star at A--A'
    edges = [
        ("A", 1, "B"), ("B", 1, "A"), ("A", 2, "A"), ("B", 2, "B"),
        ("A'", 1, "B'"), ("B'", 1, "A'"), ("A'", 2, "A'"), ("B'", 2, "B'"),
        ("A", STAR, "A'"),
    ]
    return BallView(2, 2, "A", ["A", "B", "A'", "B'"], edges, [])


def test_surgery_two_copy_crossing():
    view = _two_copy_star_view()
    cut = surgery(view)
    assert not cut.has_stars()
    # the s1-walk now crosses between the copies
    assert cut.step("A", 1) == "B'"
    assert cut.step("A'", 1) == "B"
    assert cut.step("B", 1) == "A"
    validate_schreier_ball(cut)
    oracle = cut.to_oracle()
    assert trace(oracle, (1,)) == "B'"
    assert trace(oracle, (1, 1)) == "A'"
    assert trace(oracle, (1, 1, 1)) == "B"
    assert trace(oracle, (1, 1, 1, 1)) == "A"
    assert contains(oracle, (1, 1, 1, 1))
    assert not contains(oracle, (1, 1))


def test_surgery_involution_two_copy():
    view = _two_copy_star_view()
    stars = star_records(view)
    assert view_equal_exact(inverse_surgery(surgery(view), stars), view)


def test_surgery_rejects_double_star():
    edges = _two_copy_star_view().edges + (("A", STAR, "B'"),)
    with pytest.raises(DomainError):
        BallView(2, 2, "A", ["A", "B", "A'", "B'"], edges, [])


def test_surgery_requires_s1_edges():
    view = _two_copy_star_view()
    pruned = [e for e in view.edges if e != ("A'", 1, "B'")]
    broken = BallView(2, 2, "A", view.vertices, pruned, ["B'"])
    with pytest.raises(DomainError):
        surgery(broken)


def _interior_star_views(n, p, seed0):
    """(star ball, sampler seed) pairs whose starred vertices all keep
    their outgoing s1-edges (so surgery preconditions hold)."""
    law = trivial_law(2)
    got = []
    k = 0
    while len(got) < n:
        sampler_seed = subseed(seed0, "case", k)
        k += 1
        graph = PercolationGraph(law, p, sampler_seed)
        view = star_ball(graph, 3)
        if all(view.step(v, 1) is not None and view.step(w, 1) is not None
               for v, w in star_records(view)):
            got.append((view, sampler_seed))
        if k > 50 * n:
            raise AssertionError("not enough usable star balls")
    return got


def test_surgery_involution_sampled():
    views = _interior_star_views(100, Fraction(1, 10), seed0=3)
    assert sum(1 for v, _ in views if star_records(v)) > 30
    for view, _seed in views:
        stars = star_records(view)
        cut = surgery(view)
        assert not cut.has_stars()
        assert view_equal_exact(inverse_surgery(cut, stars), view)


def test_sampled_balls_valid():
    for p in (Fraction(1, 20), Fraction(1, 5), Fraction(1, 2)):
        for seed in range(15):
            oracle = poulsen_oracle(trivial_law(2), p, seed)
            view = ball(oracle, 1 + seed % 4)
            validate_schreier_ball(view)


def test_poulsen_over_finite_base_valid():
    law = PointLaw(index2_oracle())
    for seed in range(10):
        oracle = poulsen_oracle(law, Fraction(1, 3), seed)
        view = ball(oracle, 4)
        validate_schreier_ball(view)


def test_poulsen_over_normalizer_valid():
    law = NormalizerLaw(trivial_law(2), Fraction(1, 5))
    for seed in range(10):
        oracle = poulsen_oracle(law, Fraction(1, 5), seed)
        view = ball(oracle, 3)
        validate_schreier_ball(view)


def test_trivial_base_fingerprint_always_trivial():
    # surgery keeps trees trees: over the trivial subgroup the output stays
    # the free Cayley graph, so no nontrivial word ever returns
    for seed in range(30):
        oracle = poulsen_oracle(trivial_law(2), Fraction(3, 10), seed)
        assert cylinder_fingerprint(oracle, 3) == ((),)


@pytest.mark.parametrize("rank", [2, 3])
def test_poulsen_over_the_trivial_base_is_the_cayley_tree(rank):
    """Every ball of a Poulsen sample over the trivial subgroup has as many
    vertices as the Cayley ball: 1 + 2r((2r-1)^k - 1)/(2r-2) at radius k.
    So no percolation draw shows in what such a sample is, and a sweep
    over the trivial base reads the same at every p."""
    for p in (Fraction(1, 5), Fraction(1, 2), Fraction(9, 10)):
        law = PoulsenLaw(trivial_law(rank), p)
        for seed in range(20):
            oracle = law.sample(seed)
            for k in range(5):
                tree = 1 + 2 * rank * ((2 * rank - 1) ** k - 1) // (2 * rank - 2)
                assert len(ball(oracle, k).vertices) == tree


def test_determinism_bitwise():
    law = NormalizerLaw(trivial_law(2), Fraction(1, 10))
    a = emit_sgr(ball(poulsen_oracle(law, Fraction(1, 10), 9), 3))
    b = emit_sgr(ball(poulsen_oracle(law, Fraction(1, 10), 9), 3))
    assert a == b


def test_budget_exceeded():
    with pytest.raises(BudgetError):
        ball(poulsen_oracle(trivial_law(2), Fraction(9, 10), 1), 8, budget=64)


def test_attachment_roots_not_percolated():
    graph = PercolationGraph(trivial_law(2), Fraction(9, 10), seed=2)
    root_copy = graph.copy(())
    # find a percolated vertex and check its child's root is exempt
    for w in [(), (1,), (2,), (-1,), (-2,)]:
        u = ((), trace(root_copy, w))
        if graph.percolated(u):
            child = u[0] + (u[1],)
            child_root = (child, graph.copy(child).root)
            assert not graph.percolated(child_root)
            assert graph.star(child_root) == u
            break
    else:
        raise AssertionError("no percolated vertex at p=9/10")


def test_star_ball_matches_oracle_after_surgery():
    # surgering the unsurgered star ball agrees with the emitted oracle on
    # single steps; a radius-3 star ball determines them because every
    # probed star partner lies within distance 2 of the root
    from irslab.words import words_upto

    crossings = 0
    for view, sampler_seed in _interior_star_views(60, Fraction(1, 4), seed0=21):
        cut = surgery(view)
        oracle = poulsen_oracle(trivial_law(2), Fraction(1, 4), sampler_seed)
        for w in words_upto(2, 1):
            v_cut = cut.root
            for l in w:
                v_cut = cut.step(v_cut, l)
            expected = oracle.token(trace(oracle, w))
            assert expected == v_cut
            if w and oracle.neighbor(oracle.root, w[0]) != \
                    oracle.graph.step(oracle.root, w[0]):
                crossings += 1
    assert crossings > 10


def test_tokens_escape_separators_in_base_names():
    base = FiniteOracle.from_perms([(1, 2, 0), (0, 1, 2)],
                                   names=["a", "b", "a/b"])
    law = PoulsenLaw(PointLaw(base), Fraction(9, 10))
    view = ball(law.sample(161), 4)  # two vertices shared a token before
    assert view_equal_exact(parse_sgr(emit_sgr(view)), view)
    for seed in range(200):
        star_ball(PercolationGraph(PointLaw(base), Fraction(9, 10), seed), 4)
    graph = PercolationGraph(PointLaw(base), Fraction(9, 10), 0)
    assert graph.token(((), "a/b")) == r"p(|a\/b)"
    assert graph.token((("a/b",), "b")) == r"p(a\/b|b)"
    assert graph.token(((), "b")) == "p(|b)"


def test_star_ball_rejects_tokens_that_collide():
    class Collide(PercolationGraph):
        def token(self, u):
            return "x"

    with pytest.raises(InvalidGraphError, match="not injective"):
        star_ball(Collide(trivial_law(2), Fraction(1, 2), 0), 1)


def _poulsen_vertices(oracle: PoulsenOracle, radius: int):
    return list(bfs(oracle.root, oracle.neighbor, letters_ordered(2), radius)[0])


_ps = st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**64 - 1), _ps)
def test_percolated_equals_the_plain_digest(seed, p):
    law = NormalizerLaw(trivial_law(2), p)
    vertices = _poulsen_vertices(poulsen_oracle(law, p, seed), 4)
    fresh = PercolationGraph(law, p, seed)
    threshold = (p.numerator << 128) // p.denominator
    for u in vertices:
        path, v = u
        if path and v == fresh.copy(path).root:
            expected = False
        else:
            expected = digest128(seed, "perc", u) < threshold
        assert fresh.percolated(u) == expected


def _uncached_token(graph: PercolationGraph, u) -> str:
    """The Poulsen token rebuilt from the whole path, nested Poulsen copies
    included, with no memo."""
    def name(copy, v):
        t = _uncached_token(copy.graph, v) if isinstance(copy, PoulsenOracle) \
            else copy.token(v)
        return t.replace("\\", "\\\\").replace("/", "\\/").replace("|", "\\|")

    path, v = u
    trail = "/".join(name(graph.copy(path[:k]), path[k])
                     for k in range(len(path)))
    return f"p({trail}|{name(graph.copy(path), v)})"


@pytest.mark.parametrize("seed", range(4))
def test_deep_poulsen_tokens_equal_the_uncached_formula(seed):
    p = Fraction(1, 2)
    law = PoulsenLaw(NormalizerLaw(trivial_law(2), p), p)
    oracle = poulsen_oracle(law, p, subseed(seed, "deep-tokens", 0))
    vertices = _poulsen_vertices(oracle, 4)
    assert max(len(path) for path, _ in vertices) >= 2
    tokens = [oracle.token(u) for u in vertices]
    assert tokens == [_uncached_token(oracle.graph, u) for u in vertices]
    assert any("\\|" in t for t in tokens)
