"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every randomized criterion builds a deterministic report string from fixed
seeds; the final criterion rebuilds every report and requires byte
identity. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import hashlib
import itertools
from fractions import Fraction

from irslab.actions import (
    first_return,
    is_totally_nonfree,
    random_action,
    stab_pushforward_law,
)
from irslab.analysis import (
    aut_count,
    cylinder_fingerprint,
    metric,
    root_isomorphic,
)
from irslab.encoding import (
    PsiOracle,
    SubshiftSpace,
    decode,
    in_Z,
    lambda_conjugate,
    lambda_pushforward,
    point_class_code,
    translate_count,
    upsilon,
)
from irslab.errors import InvalidGraphError, NotInYError
from irslab.laws import NormalizerLaw, PointLaw, PoulsenLaw, trivial_law
from irslab.measures import AtomicMeasure
from irslab.montecarlo import (
    CylinderSpec,
    convergence_sweep,
    exact_invariance_rows,
    invariance_report,
    render_invariance,
    render_sweep,
)
from irslab.normalizer import enumerate_normalizer_law, normalizer_oracle
from irslab.oracles import (
    CayleyOracle,
    FiniteAction,
    FiniteOracle,
    ball,
    conjugate,
    validate_schreier_ball,
)
from irslab.poulsen import PoulsenOracle
from irslab.randomness import KeyedRng, subseed
from irslab.sgr import emit_sgr
from irslab.words import inverse_word, phi_word, words_upto

from helpers import (conjugate_code, index2_oracle, point_pattern,
                     pushforward, random_subshift_space)

SEED = 20260808
REPORTS: dict = {}


def _passed(number: int, text: str) -> None:
    print(f"[acceptance {number:02d}] PASS - {text}")


def _remember(name: str, report: str) -> str:
    REPORTS.setdefault(name, report)
    return report


# -- criterion 1: exact invariance of the enumerated law ---------------------

def _c1_report() -> str:
    law = enumerate_normalizer_law(index2_oracle(), Fraction(1, 2))
    rows = exact_invariance_rows(law, 2)
    worst = max(r.deviation for r in rows)
    lines = [f"atoms {len(law)} total {law.total()}",
             f"cells {len(rows)} max deviation {worst}"]
    return "\n".join(lines)


def test_c01_exact_invariance():
    report = _remember("c1", _c1_report())
    assert "max deviation 0" in report.splitlines()[-1]
    law = enumerate_normalizer_law(index2_oracle(), Fraction(1, 2))
    assert law.total() == 1
    rows = exact_invariance_rows(law, 2)
    assert rows and all(r.deviation == 0 for r in rows)
    _passed(1, "exact rational invariance of the enumerated index-2 law at p=1/2")


# -- criterion 2: validity of sampled balls ----------------------------------

def _c2_report() -> str:
    p_values = (Fraction(1, 20), Fraction(1, 5), Fraction(1, 2))
    counts = (334, 333, 333)
    digest = hashlib.blake2b(digest_size=12)
    failures = 0
    total = 0

    def normalizer_sampler(p, seed):
        return normalizer_oracle(CayleyOracle(2), p, seed)

    def poulsen_sampler(p, seed):
        return PoulsenOracle(NormalizerLaw(trivial_law(2), p), p, seed)

    for tag, sampler in (("normalizer", normalizer_sampler),
                         ("poulsen", poulsen_sampler)):
        for p, count in zip(p_values, counts):
            for k in range(count):
                seed = subseed(SEED, f"c2-{tag}", (str(p), k))
                radius = 1 + k % 6
                view = ball(sampler(p, seed), radius)
                total += 1
                try:
                    validate_schreier_ball(view)
                except InvalidGraphError:
                    failures += 1
                digest.update(emit_sgr(view).encode())
    return f"balls {total} failures {failures} digest {digest.hexdigest()}"


def test_c02_schreier_validity():
    report = _remember("c2", _c2_report())
    assert report == "balls 2000 failures 0 digest b88bb3acb4a46dc8366e8bd4"
    _passed(2, "2000 sampled balls pass the one-in/one-out validator")


# -- criterion 3: convergence as p drops --------------------------------------

C3_P = (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100))


def _c3_rows():
    """Sweeps over `trivial`, where every estimate is exactly 1, and over the
    index-2 point base on its own radius-2 fingerprint, which Poulsen
    percolation moves off the base at p > 0."""
    index2 = index2_oracle()
    return (convergence_sweep("poulsen", trivial_law(2), C3_P,
                              CylinderSpec(((),), 2), 10_000,
                              seed=subseed(SEED, "c3", 0)),
            convergence_sweep("poulsen", PointLaw(index2, "index2"), C3_P,
                              CylinderSpec(cylinder_fingerprint(index2, 2), 2),
                              10_000, seed=subseed(SEED, "c3", 1)))


def _c3_report() -> str:
    return "".join(map(render_sweep, _c3_rows()))


def test_c03_convergence():
    rows, index2_rows = _c3_rows()
    report = _remember("c3", render_sweep(rows) + render_sweep(index2_rows))
    for row in rows:
        assert float(row.deviation) <= row.bound
    last = rows[-1]
    assert last.p == Fraction(1, 100)
    assert last.estimate >= Fraction(4, 5)
    for row in index2_rows:
        assert 0 < float(row.deviation) <= row.bound
    last = index2_rows[-1]
    assert last.p == Fraction(1, 100)
    assert last.estimate >= Fraction(95, 100)
    assert report
    _passed(3, "cylinder deviations within 2(1-(1-p)^k)+3se over trivial and "
            "index 2; estimates at p=0.01 >= 0.80 and >= 0.95")


# -- criterion 4: statistical invariance + negative control -------------------

def _c4_law():
    return PoulsenLaw(NormalizerLaw(trivial_law(2), Fraction(1, 10)),
                      Fraction(1, 10))


def _c4_rows():
    rows = invariance_report(_c4_law(), 1, 20_000, seed=subseed(SEED, "c4", 0))
    neg = NormalizerLaw(trivial_law(2), Fraction(1, 2), biased_root_slot=0)
    neg_rows = invariance_report(neg, 1, 20_000, seed=subseed(SEED, "c4", 1))
    return rows, neg_rows


def _c4_render(rows, neg_rows) -> str:
    return (render_invariance(rows) + "negative control:\n"
            + render_invariance(neg_rows))


def _c4_report() -> str:
    return _c4_render(*_c4_rows())


def test_c04_statistical_invariance():
    rows, neg_rows = _c4_rows()
    report = _remember("c4", _c4_render(rows, neg_rows))
    assert rows
    assert max(r.z for r in rows) <= 4
    assert max(r.z for r in neg_rows) > 6
    assert report
    _passed(4, "all z <= 4 for the invariant sampler; biased control breaches z > 6")


# -- criteria 5-7: encoding ----------------------------------------------------

def _encoding_cases():
    cases = []
    for i in range(100):
        space = random_subshift_space(2 + i % 5, 2, 1 + i % 3,
                                      seed=subseed(SEED, "c5-space", i))
        cases.append((space, i % space.action.n))
    return cases


def _c5_report() -> str:
    rng = KeyedRng(subseed(SEED, "c5", 0), "words")
    candidates = [w for w in words_upto(2, 3) if w]
    digest = hashlib.blake2b(digest_size=12)
    checked = 0
    failures = 0
    for space, q in _encoding_cases():
        x = space.point(q)
        psi = PsiOracle(x)
        for _ in range(20):
            f = candidates[rng.randrange(len(candidates))]
            lhs = ball(PsiOracle(x.shifted(f)), 4)
            rhs = ball(conjugate(psi, phi_word(f)), 4)
            checked += 1
            if not root_isomorphic(lhs, rhs):
                failures += 1
            digest.update(emit_sgr(lhs).encode())
    return f"pairs {checked} failures {failures} digest {digest.hexdigest()}"


def test_c05_encoding_equivariance():
    report = _remember("c5", _c5_report())
    assert "pairs 2000 failures 0" in report
    _passed(5, "2000/2000 exact equivariance ball matches at radius 4")


def _c6_report() -> str:
    failures = 0
    for space, q in _encoding_cases():
        x = space.point(q)
        if decode(PsiOracle(x), 7) != point_pattern(x, 5):
            failures += 1
    return f"points 100 failures {failures}"


def test_c06_encoding_roundtrip():
    report = _remember("c6", _c6_report())
    assert report == "points 100 failures 0"
    _passed(6, "decode inverts the encoding on the radius-5 pattern, 100/100")


def _c7_report() -> str:
    rng = KeyedRng(subseed(SEED, "c7", 0), "translates")
    cases = _encoding_cases()
    successes = 0
    for i in range(50):
        space, q = cases[i % len(cases)]
        words = [w for w in words_upto(2, space.alphabet) if w]
        g = words[rng.randrange(len(words))]
        moved = conjugate(PsiOracle(space.point(q)), inverse_word(g))
        ret, _f = upsilon(moved, space, 4)
        if in_Z(ret, space, 5):
            successes += 1
    trivial_rejected = False
    space0, _ = cases[0]
    try:
        upsilon(CayleyOracle(2), space0, 4)
    except NotInYError:
        trivial_rejected = True
    return f"retractions {successes}/50 trivial-rejected {trivial_rejected}"


def test_c07_covering():
    report = _remember("c7", _c7_report())
    assert report == "retractions 50/50 trivial-rejected True"
    _passed(7, "all 50 conjugated encodings retract into the encoded set")


# -- criterion 8: translate pushforward ---------------------------------------

def _c8_report() -> str:
    space = SubshiftSpace(FiniteAction(2, ((1, 0), (0, 1))), (1, 2), 2)
    lam, reps = lambda_pushforward(space)
    z_mass = AtomicMeasure({k: m for k, m in lam.data.items() if k[0] == "cay"})
    expected = AtomicMeasure({
        ("cay", 0, point_class_code(space, q)): Fraction(1, 2) for q in (0, 1)
    })
    restriction_ok = z_mass == expected
    bound_ok = lam.total() <= translate_count(space.alphabet, space.rank)
    invariant = all(
        lambda_conjugate(space, lam, reps, l) == lam for l in (1, -1, 2, -2)
    )
    return (f"atoms {len(lam)} total {lam.total()} restriction {restriction_ok} "
            f"bounded {bound_ok} invariant {invariant}")


def test_c08_lambda_properties():
    report = _remember("c8", _c8_report())
    assert "restriction True" in report
    assert "bounded True" in report
    assert "invariant True" in report
    _passed(8, "translate pushforward: restriction, finiteness and invariance exact")


# -- criterion 9: finite dynamics ----------------------------------------------

def _c9_report() -> str:
    bad_laws = 0
    for i in range(100):
        action = random_action(8, 2, seed=subseed(SEED, "c9", i))
        law = stab_pushforward_law(action)
        for letter in (1, -1, 2, -2):
            if pushforward(law, lambda c: conjugate_code(c, (letter,))) != law:
                bad_laws += 1
                break
    fr_mismatch = 0
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            for mask in range(1, 1 << n):
                Y = frozenset(j for j in range(n) if mask >> j & 1)
                fr = first_return(perm, Y)
                if sorted(fr.values()) != sorted(Y):
                    fr_mismatch += 1
                    continue
                for y in Y:
                    z = perm[y]
                    while z not in Y:
                        z = perm[z]
                    if fr[y] != z:
                        fr_mismatch += 1
                        break
    tnf_index2 = is_totally_nonfree(FiniteAction(2, ((1, 0), (0, 1))))
    tnf_separating = is_totally_nonfree(FiniteAction(3, ((1, 0, 2), (0, 2, 1))))
    return (f"noninvariant-laws {bad_laws} first-return-mismatches {fr_mismatch} "
            f"tnf-index2 {tnf_index2} tnf-separating {tnf_separating}")


def test_c09_finite_dynamics():
    report = _remember("c9", _c9_report())
    assert report == ("noninvariant-laws 0 first-return-mismatches 0 "
                      "tnf-index2 False tnf-separating True")
    _passed(9, "stabilizer laws exactly invariant; first-return exhaustive; TNF checks")


# -- criterion 10: metric and automorphisms -------------------------------------

def _metric_pool():
    pool = [
        CayleyOracle(2),
        index2_oracle(),
        FiniteOracle.from_perms([(1, 2, 0), (0, 1, 2)]),
        normalizer_oracle(CayleyOracle(2), Fraction(1, 4),
                          subseed(SEED, "c10", 1)),
        normalizer_oracle(CayleyOracle(2), Fraction(1, 4),
                          subseed(SEED, "c10", 2)),
        normalizer_oracle(index2_oracle(), Fraction(1, 2),
                          subseed(SEED, "c10", 3)),
        PoulsenOracle(trivial_law(2), Fraction(1, 5), subseed(SEED, "c10", 4)),
        PoulsenOracle(NormalizerLaw(trivial_law(2), Fraction(1, 5)),
                       Fraction(1, 5), subseed(SEED, "c10", 5)),
        PsiOracle(random_subshift_space(3, 2, 2,
                                         subseed(SEED, "c10", 6)).point(0)),
        PsiOracle(random_subshift_space(4, 2, 3,
                                         subseed(SEED, "c10", 7)).point(1)),
    ]
    return pool


def _c10_report() -> str:
    pool = _metric_pool()
    cache: dict = {}

    def dist(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            cache[key] = metric(pool[key[0]], pool[key[1]], 6)
        return cache[key]

    rng = KeyedRng(subseed(SEED, "c10", 0), "triples")
    violations = 0
    for _ in range(50):
        i, j, k = (rng.randrange(len(pool)) for _ in range(3))
        if dist(i, k) > max(dist(i, j), dist(j, k)):
            violations += 1
    return (f"triples 50 ultrametric-violations {violations} "
            f"aut-index2 {aut_count(index2_oracle())}")


def test_c10_metric_and_aut():
    report = _remember("c10", _c10_report())
    assert report == "triples 50 ultrametric-violations 0 aut-index2 2"
    _passed(10, "ultrametric inequality exact on 50 triples; aut(index-2) = 2")


# -- criterion 11: determinism ---------------------------------------------------

_BUILDERS = {
    "c1": _c1_report,
    "c2": _c2_report,
    "c3": _c3_report,
    "c4": _c4_report,
    "c5": _c5_report,
    "c6": _c6_report,
    "c7": _c7_report,
    "c8": _c8_report,
    "c9": _c9_report,
    "c10": _c10_report,
}


def test_c11_determinism():
    for name, builder in _BUILDERS.items():
        first = REPORTS.get(name)
        if first is None:
            first = builder()
        again = builder()
        assert again == first, f"report {name} changed between runs"
    _passed(11, "all acceptance reports byte-identical on re-run")
