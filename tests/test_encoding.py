import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslab import encoding
from irslab import (
    BudgetError,
    CayleyOracle,
    DomainError,
    NotInYError,
    NotInZError,
    PsiOracle,
    ball,
    conjugate,
    contains,
    decode,
    in_Z,
    lambda_pushforward,
    root_isomorphic,
    trace,
    translate_count,
    upsilon,
    validate_schreier_ball,
)
from irslab.actions import FiniteAction
from irslab.encoding import (
    SubshiftSpace,
    emit_subshift,
    lambda_conjugate,
    parse_subshift,
    point_class_code,
    random_subshift_space,
)
from irslab.oracles import bfs
from irslab.randomness import KeyedRng
from irslab.words import (
    inverse_word,
    letters_ordered,
    phi_word,
    word_from_str,
    words_upto,
)

from helpers import reference_lambda_pushforward


def constant_one_space():
    return SubshiftSpace(FiniteAction(1, ((0,), (0,))), (1,), 1)


def three_cycle_space():
    # s1 cycles three points, s2 fixes them; symbols 3,1,1 so x(e)=3 at
    # basepoint 0
    return SubshiftSpace(FiniteAction(3, ((1, 2, 0), (0, 1, 2))), (3, 1, 1), 3)


def period_two_space():
    # s1 swaps two points, s2 fixes them; distinct symbols
    return SubshiftSpace(FiniteAction(2, ((1, 0), (0, 1))), (1, 2), 2)


def test_space_validation():
    with pytest.raises(DomainError):
        SubshiftSpace(FiniteAction(1, ((0,),)), (1,), 1)  # rank 1
    with pytest.raises(DomainError):
        SubshiftSpace(FiniteAction(1, ((0,), (0,))), (0,), 1)  # symbol 0
    with pytest.raises(DomainError):
        SubshiftSpace(FiniteAction(1, ((0,), (0,))), (2,), 1)  # over alphabet


def test_psi_membership_constant_one():
    psi = PsiOracle(constant_one_space().point(0))
    assert contains(psi, word_from_str("s1*s2*s1^-1"))
    assert not contains(psi, (1, 1))
    assert not contains(psi, (2,))
    # conjugating the cycle word by any doubled prefix stays inside
    g = phi_word((1, -2))
    assert contains(psi, g + (1, 2, -1) + inverse_word(g))


def test_psi_membership_cycle_length_three():
    psi = PsiOracle(three_cycle_space().point(0))
    assert contains(psi, (1, 2, 2, 2, -1))
    assert not contains(psi, (1, 2, -1))
    assert not contains(psi, (1, 2, 2, -1))


def test_psi_generator_families():
    # family checks on a mixed space: symbols via shifted basepoints
    space = three_cycle_space()
    psi = PsiOracle(space.point(0))
    x = space.point(0)
    # family (1)-type at a neighbor with symbol 1: phi(s1)=s1^2 shifts to
    # the point with x(s1)=symbol at basepoint.s1
    sym = x.symbol((1,))
    word = phi_word((1,)) + (1,) + (2,) * sym + (-1,) + inverse_word(phi_word((1,)))
    assert contains(psi, word)


def test_psi_valid_and_infinite_index():
    space = three_cycle_space()
    psi = PsiOracle(space.point(0))
    sizes = []
    for r in range(1, 7):
        view = ball(psi, r)
        validate_schreier_ball(view)
        sizes.append(len(view.vertices))
    assert sizes == sorted(set(sizes))  # strictly increasing
    for k in range(1, 51):
        assert trace(psi, (1, 1) * k) != psi.root


def test_translate_set():
    assert translate_count(1, 2) == 5
    assert translate_count(2, 2) == 17
    for rank in (2, 3, 4):
        for alphabet in range(1, 6):
            assert translate_count(alphabet, rank) == len(
                words_upto(rank, alphabet))


@pytest.mark.parametrize("case", range(12))
def test_translate_roots_are_the_ball_of_radius_alphabet(case):
    # a shortest walk spells a reduced word, so the roots the translates
    # reach are the vertices bfs finds within distance alphabet
    space = random_subshift_space(1 + case % 5, 2 + case % 2, 1 + case % 4,
                                  seed=6000 + case)
    psi = PsiOracle(space.point(case % space.action.n))
    roots = {trace(psi, inverse_word(f))
             for f in words_upto(space.rank, space.alphabet)}
    assert roots == bfs(psi.root, psi.neighbor, letters_ordered(space.rank),
                        space.alphabet)[0].keys()


def test_equivariance_sampled():
    rng = KeyedRng(31, "equiv")
    for case in range(40):
        space = random_subshift_space(2 + case % 5, 2, 3, seed=1000 + case)
        q = rng.randrange(space.action.n)
        x = space.point(q)
        words = [w for w in words_upto(2, 3) if w]
        f = words[rng.randrange(len(words))]
        lhs = ball(PsiOracle(x.shifted(f)), 4)
        rhs = ball(conjugate(PsiOracle(x), phi_word(f)), 4)
        assert root_isomorphic(lhs, rhs)


def test_injectivity_at_radius():
    # distinct patterns on B(R) force distinct balls at radius 2R+2
    rng = KeyedRng(37, "inject")
    found_pairs = 0
    for case in range(60):
        sa = random_subshift_space(3, 2, 3, seed=2000 + case)
        sb = random_subshift_space(3, 2, 3, seed=3000 + case)
        xa, xb = sa.point(0), sb.point(0)
        radius = 1
        if xa.pattern(radius) == xb.pattern(radius):
            continue
        found_pairs += 1
        ba = ball(PsiOracle(xa), 2 * radius + 2)
        bb = ball(PsiOracle(xb), 2 * radius + 2)
        assert not root_isomorphic(ba, bb)
    assert found_pairs > 20


def test_decode_roundtrip_constant():
    psi = PsiOracle(constant_one_space().point(0))
    pattern = decode(psi, 5)
    assert set(pattern.values()) == {1}
    assert set(pattern) == set(words_upto(2, 3))


@pytest.mark.parametrize("radius", [-1, 0, 1])
def test_decode_rejects_radius_below_2(radius):
    with pytest.raises(DomainError):
        decode(PsiOracle(constant_one_space().point(0)), radius)


def test_decode_roundtrip_random():
    for case in range(25):
        space = random_subshift_space(2 + case % 6, 2, 4, seed=4000 + case)
        x = space.point(case % space.action.n)
        pattern = decode(PsiOracle(x), 6)
        assert pattern == x.pattern(4)


def test_decode_equivariance():
    # decode(phi(f) . psi(x)) = pattern of f.x
    space = three_cycle_space()
    x = space.point(0)
    f = (1,)
    moved = conjugate(PsiOracle(x), phi_word(f))
    assert decode(moved, 5) == x.shifted(f).pattern(3)


def test_decode_rejects_non_encoding():
    with pytest.raises(NotInZError):
        decode(CayleyOracle(2), 4, symbol_cap=64)


def test_in_Z_examples():
    space = three_cycle_space()
    psi = PsiOracle(space.point(0))
    for radius in (2, 3, 4):
        assert in_Z(psi, space, radius)
    assert not in_Z(conjugate(psi, (1,)), space, 4)  # root on a cycle
    assert not in_Z(CayleyOracle(2), space, 2)
    with pytest.raises(DomainError):
        in_Z(psi, space, 1)


def test_upsilon_in_Z_returns_self():
    space = three_cycle_space()
    psi = PsiOracle(space.point(0))
    ret, f = upsilon(psi, space, 4)
    assert f == ()
    assert ret.root == psi.root


def test_upsilon_covering_sampled():
    rng = KeyedRng(41, "ups")
    for case in range(20):
        space = random_subshift_space(2 + case % 4, 2, 2, seed=5000 + case)
        q = rng.randrange(space.action.n)
        psi = PsiOracle(space.point(q))
        g_words = [w for w in words_upto(2, space.alphabet) if w]
        g = g_words[rng.randrange(len(g_words))]
        moved = conjugate(psi, inverse_word(g))
        ret, f = upsilon(moved, space, 4)
        assert in_Z(ret, space, 5)


def test_upsilon_not_in_Y():
    space = three_cycle_space()
    with pytest.raises(NotInYError):
        upsilon(CayleyOracle(2), space, 4)


def test_lambda_fixed_point():
    space = constant_one_space()
    lam, reps = lambda_pushforward(space)
    assert lam.total() == 2
    z_atoms = [(k, m) for k, m in lam.items_sorted() if k[0] == "cay"]
    assert len(z_atoms) == 1 and z_atoms[0][1] == 1
    for l in (1, -1, 2, -2):
        assert lambda_conjugate(space, lam, reps, l) == lam


def test_lambda_period_two():
    space = period_two_space()
    lam, reps = lambda_pushforward(space)
    # restriction to the encoded set equals the pushforward of eta
    z_mass = {k: m for k, m in lam.data.items() if k[0] == "cay"}
    expected = {("cay", 0, point_class_code(space, q)): Fraction(1, 2)
                for q in (0, 1)}
    assert z_mass == expected
    assert lam.total() <= translate_count(space.alphabet, space.rank)
    for l in (1, -1, 2, -2):
        assert lambda_conjugate(space, lam, reps, l) == lam


def test_lambda_rejects_noninvariant_eta():
    space = period_two_space()
    with pytest.raises(DomainError):
        lambda_pushforward(space, {0: Fraction(2, 3), 1: Fraction(1, 3)})


def test_lambda_invariant_under_nonuniform_orbit_masses():
    # two orbits with different masses is still invariant
    action = FiniteAction(4, ((1, 0, 3, 2), (0, 1, 2, 3)))
    space = SubshiftSpace(action, (1, 2, 2, 1), 2)
    eta = {0: Fraction(1, 3), 1: Fraction(1, 3),
           2: Fraction(1, 6), 3: Fraction(1, 6)}
    lam, reps = lambda_pushforward(space, eta)
    for l in (1, -1, 2, -2):
        assert lambda_conjugate(space, lam, reps, l) == lam


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5), st.integers(2, 3), st.integers(1, 6),
       st.integers(0, 2**32 - 1), st.booleans())
def test_the_ball_lambda_equals_the_word_walk_lambda(n, rank, alphabet, seed,
                                                     uniform):
    space = random_subshift_space(n, rank, alphabet, seed)
    eta = None
    if not uniform:  # invariant: constant on the orbits, by orbit minimum
        orbit = {q: min(bfs(q, space.action.step,
                            letters_ordered(rank))[0]) for q in range(n)}
        eta = {q: Fraction(1 + orbit[q], 1 + n) for q in range(n)}
    lam, reps = lambda_pushforward(space, eta)
    ref, ref_reps = reference_lambda_pushforward(space, eta)
    assert lam == ref
    for l in letters_ordered(rank):
        assert (lambda_conjugate(space, lam, reps, l)
                == lambda_conjugate(space, ref, ref_reps, l))


def two_point_space(alphabet):
    return SubshiftSpace(FiniteAction(2, ((1, 0), (0, 1))), (1, 2), alphabet)


def traced_lambda(space):
    """(lambda_pushforward, conjugation invariance, tracemalloc peak)."""
    tracemalloc.start()
    try:
        lam, reps = lambda_pushforward(space)
        invariant = all(lambda_conjugate(space, lam, reps, l) == lam
                        for l in letters_ordered(space.rank))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return lam, invariant, peak


def test_lambda_at_alphabet_11_stays_small():
    # the word walk lists 265 721 translates here and peaks near 95 MB
    lam, invariant, peak = traced_lambda(two_point_space(11))
    assert invariant
    assert peak < 8_000_000


@pytest.mark.parametrize("space, atoms, total", [
    (two_point_space(40), 5, Fraction(5, 2)),
    (SubshiftSpace(FiniteAction(1, ((0,), (0,))), (40,), 40), 41, 41),
], ids=["two-points-alphabet-40", "one-point-label-40"])
def test_lambda_walks_the_finite_quotient(space, atoms, total):
    # each encoded graph has about 10^19 vertices within distance 40, and
    # its quotient 5 or 41
    lam, invariant, peak = traced_lambda(space)
    assert (len(lam), lam.total(), invariant) == (atoms, total, True)
    assert peak < 200_000


def test_lambda_past_the_budget_raises(monkeypatch):
    # the quotient has 2 + 1 + 2 = 5 vertices: two points, labels 1 and 2
    space = two_point_space(6)
    monkeypatch.setattr(encoding, "DEFAULT_BUDGET", 4)
    with pytest.raises(BudgetError, match="exceed budget 4"):
        lambda_pushforward(space)
    monkeypatch.setattr(encoding, "DEFAULT_BUDGET", 5)
    lambda_pushforward(space)


@pytest.mark.parametrize("rank, last", [(2, 1340), (3, 915)])
def test_translate_count_is_capped_at_640_digits(rank, last):
    assert len(str(translate_count(last, rank))) == 640
    for alphabet in (last + 1, 10**600):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="more than 640 digits"):
                translate_count(alphabet, rank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000


def test_upsilon_past_the_budget_raises(monkeypatch):
    space = two_point_space(4)
    # the radius-3 balls of the translates e, ..., s1*s2, the first to pass,
    # hold 120 vertices in all
    moved = conjugate(PsiOracle(space.point(0)), (2, 1))
    monkeypatch.setattr(encoding, "DEFAULT_BUDGET", 119)
    with pytest.raises(BudgetError, match="exceeded budget 119"):
        upsilon(moved, space, 3)
    monkeypatch.setattr(encoding, "DEFAULT_BUDGET", 120)
    assert upsilon(moved, space, 3)[1] == (1, 2)
    with pytest.raises(BudgetError, match="exceeded budget 119"):
        upsilon(moved, space, 3, budget=119)  # a budget passed in wins


def test_point_class_code_separates_patterns():
    space = period_two_space()
    assert point_class_code(space, 0) != point_class_code(space, 1)
    const = constant_one_space()
    assert point_class_code(const, 0) == point_class_code(const, 0)


def test_subshift_file_roundtrip():
    space = three_cycle_space()
    text = emit_subshift(space, basepoint=1)
    space2, bp = parse_subshift(text)
    assert bp == 1
    assert space2.labels == space.labels
    assert space2.action.perms == space.action.perms
    assert emit_subshift(space2, bp) == text


SUBSHIFT2 = ("alphabet 2\npoints 2\nperm s1: (0 1)\nperm s2: id\n"
             "label 0 1\nlabel 1 2\nbasepoint 0\n")


@pytest.mark.parametrize("old, new, message", [
    ("alphabet 2", "alphabet x", "line 1: cannot parse 'alphabet x'"),
    ("alphabet 2", "alphabet", "line 1: cannot parse 'alphabet'"),
    ("alphabet 2", "alphabet 2\nalphabet 2", "line 2: second 'alphabet' line"),
    ("alphabet 2\n", "", "subshift file needs an alphabet line"),
    ("alphabet 2", "alphabet " + "9" * 641,
     "line 1: alphabet has more than 640 digits"),
    ("alphabet 2", "alphabet 0", "alphabet size must be >= 1"),
    ("label 0 1", "label 0", "line 5: cannot parse 'label 0'"),
    ("label 0 1", "label\t0  1 2", "line 5: cannot parse 'label\\t0  1 2'"),
    ("label 0 1", "label 0 1\nlabel 0 1", "line 6: second 'label 0' line"),
    ("label 1 2", "label 1 2\nlabel 01 1", "line 7: second 'label 1' line"),
    ("label 0 1", "label " + "9" * 641 + " 1",
     "line 5: label has more than 640 digits"),
    ("label 1 2\n", "", "need a label line for every point"),
    ("label 1 2", "label 1 2\nlabel 2 1", "need a label line for every point"),
    ("label 0 1", "label 0 3",
     "symbol '3' outside alphabet '1..2' (0 is illegal)"),
    ("label 0 1", "label 0 0",
     "symbol '0' outside alphabet '1..2' (0 is illegal)"),
    ("basepoint 0", "basepoint 0\nbasepoint 1",
     "line 8: second 'basepoint' line"),
    ("basepoint 0", "basepoint 2", "basepoint out of range"),
    ("basepoint 0", "basepoint", "line 7: cannot parse 'basepoint'"),
    ("basepoint 0", "foo 1", "line 7: cannot parse 'foo 1'"),
    ("points 2", "points 2\npoints 2", "line 3: second 'points' line"),
    ("points 2", "points x", "line 2: bad point count 'x'"),
    ("points 2\n", "", "line 2: 'points <n>' must come first"),
    ("perm s2: id", "perm s2: id\nperm s2: id", "line 5: second 'perm s2' line"),
    ("perm s2: id\n", "", "encoding needs rank >= 2"),
    ("perm s1: (0 1)", "perm s1: (0 2)", "line 3: point '2' out of range 0..1"),
], ids=[
    "bad-alphabet", "bare-alphabet", "repeated-alphabet", "no-alphabet",
    "alphabet-of-641-digits", "alphabet-zero", "label-without-symbol",
    "label-with-three-fields", "repeated-label-0", "repeated-label-01",
    "label-of-641-digits", "missing-label", "label-past-the-points",
    "symbol-past-the-alphabet", "symbol-zero", "repeated-basepoint",
    "basepoint-out-of-range", "bare-basepoint", "unknown-line",
    "repeated-points", "bad-point-count", "no-points", "repeated-perm-s2",
    "rank-one", "point-out-of-range",
])
def test_parse_subshift_rejects_with_a_pinned_message(old, new, message):
    assert old in SUBSHIFT2
    with pytest.raises(DomainError) as caught:
        parse_subshift(SUBSHIFT2.replace(old, new))
    assert str(caught.value) == message
