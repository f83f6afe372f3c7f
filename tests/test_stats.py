import math
from collections import Counter
from fractions import Fraction

import pytest

from irslab import (
    AtomicMeasure,
    CylinderSpec,
    DomainError,
    FiniteOracle,
    NormalizerLaw,
    PointLaw,
    PoulsenLaw,
    canonical_code,
    conjugate,
    cylinder_fingerprint,
    enumerate_normalizer_law,
    estimate_cylinder,
    exact_invariance_rows,
    invariance_report,
    orbit_schreier,
    trivial_law,
    tv_distance,
)
from irslab.actions import random_transitive_action
from irslab.montecarlo import (
    convergence_sweep,
    render_invariance,
    render_sweep,
    sample_seed,
)
from irslab.randomness import KeyedRng

from helpers import cyclic_oracle, index2_oracle


def test_cylinder_spec_validation():
    CylinderSpec(((),), 2)
    with pytest.raises(DomainError):
        CylinderSpec(((1,),), 2)  # missing empty word
    with pytest.raises(DomainError):
        CylinderSpec(((), (1,)), 2)  # not closed under inverse
    with pytest.raises(DomainError):
        CylinderSpec(((), (1, 1, 1)), 2)  # word longer than radius
    spec = CylinderSpec(((), (2,), (-2,)), 1)
    assert spec.fingerprint == ((), (2,), (-2,))


def test_estimate_trivial_sampler_exact():
    spec = CylinderSpec(((),), 2)
    rep = estimate_cylinder(trivial_law(2), spec, 50, seed=0)
    assert rep.estimate == 1
    assert rep.stderr == 0.0


def test_estimate_deterministic():
    law = PoulsenLaw(trivial_law(2), Fraction(1, 10))
    spec = CylinderSpec(((),), 2)
    a = estimate_cylinder(law, spec, 200, seed=5).render()
    b = estimate_cylinder(law, spec, 200, seed=5).render()
    assert a == b


def test_estimate_index2_base():
    # the index-2 subgroup never matches the trivial fingerprint
    law = PointLaw(index2_oracle())
    spec = CylinderSpec(((),), 2)
    rep = estimate_cylinder(law, spec, 10, seed=1)
    assert rep.estimate == 0


def test_stderr_matches_bootstrap():
    # formula sqrt(p(1-p)/N) against a seeded bootstrap over resamples
    law = NormalizerLaw(trivial_law(2), Fraction(1, 2))
    spec = CylinderSpec(((),), 1)
    n = 10_000
    rep = estimate_cylinder(law, spec, n, seed=3)
    hits = [1 if spec.matches(law.sample(sample_seed(3, k))) else 0
            for k in range(n)]
    rng = KeyedRng(77, "boot")
    resampled_means = []
    for _ in range(200):
        total = sum(hits[rng.randrange(n)] for _ in range(n))
        resampled_means.append(total / n)
    mean = sum(resampled_means) / len(resampled_means)
    var = sum((m - mean) ** 2 for m in resampled_means) / (len(resampled_means) - 1)
    boot = math.sqrt(var)
    assert rep.stderr > 0
    assert abs(boot - rep.stderr) / rep.stderr < 0.10


def test_exact_invariance_rows_iff_invariant():
    base = index2_oracle()
    good = enumerate_normalizer_law(base, Fraction(1, 2))
    assert all(r.deviation == 0 for r in exact_invariance_rows(good, 2))
    bad = enumerate_normalizer_law(base, Fraction(1, 2), biased_root_slot=1)
    assert any(r.deviation != 0 for r in exact_invariance_rows(bad, 2))


def test_exact_invariance_rows_keep_classes_only_a_conjugate_reaches():
    # s1 = (0 1 2) and s2 = (1 2): s2 fixes point 0 only, so both
    # s1-conjugates of K = stab(0) fall in a class of base mass 0
    oracle = FiniteOracle.from_perms([(1, 2, 0), (0, 2, 1)])
    law = AtomicMeasure({canonical_code(oracle): Fraction(1)})
    rows = {(r.fingerprint, r.letter): r
            for r in exact_invariance_rows(law, 1)}
    fp = cylinder_fingerprint(oracle, 1)
    for l in (1, -1):
        moved = cylinder_fingerprint(conjugate(oracle, (l,)), 1)
        assert moved != fp
        row = rows[moved, l]
        assert (row.mass, row.conj_mass, row.deviation) == (0, 1, 1)


def test_invariance_report_keeps_a_class_at_min_mass():
    rows = invariance_report(trivial_law(2), 1, 3, seed=0, min_mass=Fraction(1))
    assert len(rows) == 4 and all(r.mass == 1 for r in rows)
    law = NormalizerLaw(trivial_law(2), Fraction(1, 2))
    every = invariance_report(law, 1, 200, seed=11, min_mass=Fraction(0))
    least = min(r.mass for r in every)
    rows = invariance_report(law, 1, 200, seed=11, min_mass=least)
    assert any(r.mass == least for r in rows)
    assert rows == [r for r in every if r.mass >= least]


def test_statistical_invariance_normalizer():
    law = NormalizerLaw(trivial_law(2), Fraction(1, 2))
    rows = invariance_report(law, 1, 4000, seed=11)
    assert rows
    assert all(r.z <= 4 for r in rows)


def test_statistical_invariance_detects_bias():
    law = NormalizerLaw(trivial_law(2), Fraction(1, 2), biased_root_slot=0)
    rows = invariance_report(law, 1, 4000, seed=11)
    assert max(r.z for r in rows) > 6


def test_statistical_invariance_radius2_infinite_bases():
    # radius-2 cylinders with empirical mass >= 0.01, 2e4 samples, both
    # randomized constructions over infinite-index bases
    norm = NormalizerLaw(trivial_law(2), Fraction(3, 10))
    rows = invariance_report(norm, 2, 20_000, seed=5)
    assert rows and max(r.z for r in rows) <= 4
    pois = PoulsenLaw(NormalizerLaw(trivial_law(2), Fraction(1, 5)),
                      Fraction(1, 5))
    rows = invariance_report(pois, 2, 20_000, seed=5)
    assert rows and max(r.z for r in rows) <= 4


CALIBRATION_SAMPLES = 10_000
CALIBRATION_Z = 4.0  # upper bound on the Wilson-Hilferty z of the chi-square
CALIBRATION_BASES = {
    "index2": lambda: orbit_schreier(random_transitive_action(2, 2, 0), 0),
    "cyclic3": lambda: cyclic_oracle(3),
    "random4-not-normal": lambda: orbit_schreier(
        random_transitive_action(4, 2, 1), 0),
    "random3-r3": lambda: orbit_schreier(random_transitive_action(3, 3, 2), 0),
}


def sampler_vs_exact_z(base, p, biased_root_slot=None) -> float:
    """Pearson's chi-square of the canonical codes of the lazy sampler's
    draws against the exact law of the honest construction, as a normal z
    (Wilson and Hilferty 1931). Atoms expected fewer than 5 times are pooled
    into one cell; a draw outside the exact support fails outright."""
    exact = enumerate_normalizer_law(base, p)
    law = NormalizerLaw(PointLaw(base), p, biased_root_slot)
    n = CALIBRATION_SAMPLES
    counts = Counter(canonical_code(law.sample(sample_seed(1, k)))
                     for k in range(n))
    assert set(counts) <= set(exact.keys())
    cells, small = [], []
    for code, mass in exact.items_sorted():
        cell = (counts[code], n * float(mass))
        (small if cell[1] < 5 else cells).append(cell)
    if small:
        cells.append(tuple(map(sum, zip(*small))))
    chi2 = sum((o - e) ** 2 / e for o, e in cells)
    df = len(cells) - 1
    assert df >= 1
    c = 2 / (9 * df)
    return ((chi2 / df) ** (1 / 3) - (1 - c)) / math.sqrt(c)


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 10)],
                         ids=str)
@pytest.mark.parametrize("base", CALIBRATION_BASES)
def test_sampler_matches_the_exact_law_over_finite_bases(base, p):
    z = sampler_vs_exact_z(CALIBRATION_BASES[base](), p)
    assert z <= CALIBRATION_Z


def test_biased_sampler_fails_the_exact_law_calibration():
    z = sampler_vs_exact_z(cyclic_oracle(3), Fraction(1, 2), biased_root_slot=0)
    assert z > CALIBRATION_Z


def test_tv_distance_basics():
    a = AtomicMeasure({"x": Fraction(1)})
    b = AtomicMeasure({"y": Fraction(1)})
    assert tv_distance(a, a) == 0
    assert tv_distance(a, b) == 1
    c = AtomicMeasure({"x": Fraction(1, 2), "y": Fraction(1, 2)})
    assert tv_distance(a, c) == Fraction(1, 2)


def test_tv_between_enumerated_laws():
    base = index2_oracle()
    la = enumerate_normalizer_law(base, Fraction(1, 4))
    lb = enumerate_normalizer_law(base, Fraction(1, 8))
    d = tv_distance(la, lb)
    assert d > 0
    assert d == tv_distance(lb, la)
    assert d.denominator > 1  # exact rational, not a float artifact


def test_convergence_sweep_empty():
    spec = CylinderSpec(((),), 2)
    assert convergence_sweep("poulsen", trivial_law(2), [], spec, 10, 0) == []


def test_convergence_sweep_rows():
    spec = CylinderSpec(((),), 2)
    rows = convergence_sweep(
        "poulsen", trivial_law(2),
        [Fraction(1, 5), Fraction(1, 10)], spec, 200, seed=2,
    )
    assert [r.p for r in rows] == [Fraction(1, 5), Fraction(1, 10)]
    for r in rows:
        assert r.bound is not None
        assert float(r.deviation) <= r.bound
    text = render_sweep(rows)
    assert "estimate" in text
    csv = render_sweep(rows, "csv")
    assert csv.startswith("p,estimate")


def test_convergence_sweep_finite_base():
    # over the index-2 base the fingerprint actually fluctuates with p
    base = PointLaw(index2_oracle())
    from irslab import cylinder_fingerprint

    spec = CylinderSpec(cylinder_fingerprint(index2_oracle(), 2), 2)
    rows = convergence_sweep(
        "poulsen", base, [Fraction(1, 5), Fraction(1, 20)], spec, 400, seed=4,
    )
    for r in rows:
        assert float(r.deviation) <= r.bound
    assert rows[0].estimate < 1
    assert rows[-1].estimate > rows[0].estimate


@pytest.mark.parametrize("construction", ["poulsen", "normalizer"])
def test_convergence_sweep_over_a_finite_point_base_can_fail(construction):
    """Over the cyclic index-3 base both constructions move mass off the
    base's own radius-2 cylinder, so unlike a sweep over `trivial` (always
    exactly 1) the estimates have deviations to bound, and those shrink as
    p falls."""
    base = FiniteOracle.from_perms([(1, 2, 0), (1, 2, 0)])
    spec = CylinderSpec(cylinder_fingerprint(base, 2), 2)
    ps = [Fraction(1, 5), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100)]
    rows = convergence_sweep(construction, PointLaw(base), ps, spec, 2000,
                             seed=3)
    assert [r.p for r in rows] == ps
    assert rows[0].estimate < 1
    for r in rows:
        assert float(r.deviation) <= r.bound
    assert all(a.deviation > b.deviation for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("base", [cyclic_oracle(3), index2_oracle()],
                         ids=["cyclic3", "index2"])
def test_poulsen_sweep_converges_to_a_finite_point_base(base, seed):
    """The Poulsen estimate of the base's own radius-2 cylinder stays well
    below 1 at p = 1/5 (0.62-0.65 measured) and nears it at p = 1/100
    (0.98), each within its bound."""
    spec = CylinderSpec(cylinder_fingerprint(base, 2), 2)
    ps = (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100))
    rows = convergence_sweep("poulsen", PointLaw(base), ps, spec, 2000, seed)
    for r in rows:
        assert float(r.deviation) <= r.bound
    assert rows[0].estimate < Fraction(3, 4)
    assert rows[-1].estimate >= Fraction(19, 20)


def test_render_invariance_formats():
    law = NormalizerLaw(trivial_law(2), Fraction(1, 2))
    rows = invariance_report(law, 1, 500, seed=13)
    text = render_invariance(rows)
    assert "cylinder" in text
    csv = render_invariance(rows, "csv")
    assert csv.splitlines()[0] == "fingerprint,letter,mass,conj_mass,deviation,z"
