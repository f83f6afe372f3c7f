"""Monte Carlo and exact verification harness: cylinder probability
estimates, conjugation-invariance deviation tables and small-p convergence
sweeps.

Every estimate is a deterministic function of (law, parameters, seed):
sample k uses the sub-seed derived from (seed, k), so reports are
bit-identical across runs and independent of any parallelism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .analysis import code_action, conjugate_fingerprints, cylinder_fingerprint
from .errors import DomainError
from .laws import NormalizerLaw, PoulsenLaw
from .measures import AtomicMeasure
from .oracles import SchreierOracle, ball
from .randomness import subseed
from .words import (
    inverse_word,
    letters_ordered,
    reduce_word,
    shortlex_key,
    word_to_str,
)


@dataclass(frozen=True)
class CylinderSpec:
    """The set of subgroups whose length-<=radius membership fingerprint is
    exactly `fingerprint`."""

    fingerprint: tuple
    radius: int

    def __post_init__(self):
        fp = tuple(sorted((reduce_word(w) for w in self.fingerprint),
                          key=shortlex_key))
        object.__setattr__(self, "fingerprint", fp)
        if () not in fp:
            raise DomainError("fingerprint must contain the empty word")
        seen = set(fp)
        if len(seen) != len(fp):
            raise DomainError("fingerprint has repeated words")
        for w in fp:
            if len(w) > self.radius:
                raise DomainError(f"word {word_to_str(w)} longer than radius")
            if inverse_word(w) not in seen:
                raise DomainError("fingerprint must be closed under inverse")

    def matches(self, oracle: SchreierOracle) -> bool:
        return cylinder_fingerprint(oracle, self.radius) == self.fingerprint


@dataclass(frozen=True)
class EstimateReport:
    estimate: Fraction
    stderr: float
    n: int
    seed: int

    def render(self) -> str:
        return (
            f"estimate {self.estimate.numerator}/{self.estimate.denominator}"
            f" = {float(self.estimate):.6f} stderr {self.stderr:.6f}"
            f" N {self.n} seed {self.seed}"
        )


def _stderr(p_hat: Fraction, n: int) -> float:
    return math.sqrt(float(p_hat) * (1.0 - float(p_hat)) / n)


def sample_seed(seed: int, k: int) -> int:
    return subseed(seed, "sample", k)


def estimate_cylinder(law, spec: CylinderSpec, n: int, seed: int) -> EstimateReport:
    """Fraction of n independent draws landing in the cylinder."""
    if n < 1:
        raise DomainError("need at least one sample")
    hits = 0
    for k in range(n):
        if spec.matches(law.sample(sample_seed(seed, k))):
            hits += 1
    p_hat = Fraction(hits, n)
    return EstimateReport(p_hat, _stderr(p_hat, n), n, seed)


@dataclass(frozen=True)
class InvarianceRow:
    fingerprint: tuple
    letter: int
    mass: Fraction
    conj_mass: Fraction
    deviation: Fraction
    z: float | None  # None on the exact path

    def breached(self, threshold: float) -> bool:
        if self.z is None:
            return self.deviation != 0
        return self.z > threshold


def invariance_report(law, radius: int, n: int, seed: int,
                      min_mass: Fraction = Fraction(1, 100)) -> list[InvarianceRow]:
    """Empirical conjugation-invariance table: for every fingerprint class
    with empirical mass >= min_mass and every generator letter g, compare
    the mass of the class with the mass of its image under K -> g K g^-1,
    with a pooled z-score. Each sample's fingerprints come from one walk."""
    if n < 1:
        raise DomainError("need at least one sample")
    if not 0 <= min_mass <= 1:
        raise DomainError("min_mass must lie in [0, 1]")
    samples = (law.sample(sample_seed(seed, k)) for k in range(n))
    walks = ((oracle.root, oracle.neighbor, 1) for oracle in samples)
    return _invariance_rows(walks, law.rank, radius, n, min_mass)


def exact_invariance_rows(measure: AtomicMeasure, radius: int) -> list[InvarianceRow]:
    """Exact conjugation-invariance table for an atomic law over canonical
    graph codes: deviations are rational and must all be zero for an
    invariant law. Masses are summed as integer numerators over the least
    common multiple of the atom denominators."""
    rank = next(iter(measure.data))[0] if measure.data else 0
    scale = math.lcm(*(m.denominator for m in measure.data.values()))
    walks = ((0, code_action(code).step, m.numerator * (scale // m.denominator))
             for code, m in measure.data.items())
    return _invariance_rows(walks, rank, radius, scale)


def _invariance_rows(walks, rank: int, radius: int, total: int,
                     min_mass: Fraction | None = None) -> list[InvarianceRow]:
    """The table of `walks`, (root, step, count) triples whose counts sum
    to `total`. With `min_mass`: base classes of mass >= min_mass and the
    pooled z of `total` samples; without: every class of either side, z
    None."""
    letters = letters_ordered(rank)
    base: dict = {}
    conj: dict = {l: {} for l in letters}
    for root, step, count in walks:
        fp, moved = conjugate_fingerprints(root, step, rank, radius)
        base[fp] = base.get(fp, 0) + count
        for l, fp_l in moved.items():
            conj[l][fp_l] = conj[l].get(fp_l, 0) + count
    classes = base if min_mass is not None else set(base).union(*conj.values())
    rows = []
    for fp in sorted(classes, key=lambda f: (len(f), tuple(map(shortlex_key, f)))):
        mass = Fraction(base.get(fp, 0), total)
        if min_mass is not None and mass < min_mass:
            continue
        for l in letters:
            cmass = Fraction(conj[l].get(fp, 0), total)
            dev = abs(mass - cmass)
            z = None
            if min_mass is not None:
                pooled = math.sqrt(
                    (float(mass) * (1 - float(mass))
                     + float(cmass) * (1 - float(cmass))) / total
                )
                if dev == 0:
                    z = 0.0
                elif pooled == 0:
                    z = math.inf
                else:
                    z = float(dev) / pooled
            rows.append(InvarianceRow(fp, l, mass, cmass, dev, z))
    return rows


@dataclass(frozen=True)
class SweepRow:
    p: Fraction
    estimate: Fraction
    stderr: float
    deviation: Fraction
    bound: float | None  # 2(1-(1-p)^k) + 3 stderr when the base is a point


def convergence_sweep(construction, base_law, p_list, spec: CylinderSpec,
                      n: int, seed: int) -> list[SweepRow]:
    """Estimate the cylinder mass of the construction over the base law for
    each p (descending); deviation is against the exact base value when the
    base law is a point mass."""
    makers = {"poulsen": PoulsenLaw, "normalizer": NormalizerLaw}
    try:
        maker = makers[construction]
    except KeyError:
        raise DomainError(f"unknown construction {construction!r}") from None
    if base_law.is_point:
        base_value = Fraction(1) if spec.matches(base_law.oracle) else Fraction(0)
        k_ball = len(ball(base_law.oracle, spec.radius).vertices)
    else:
        base_report = estimate_cylinder(base_law, spec, n, subseed(seed, "sweep", "base"))
        base_value = base_report.estimate
        k_ball = None
    rows = []
    for p in sorted((Fraction(p) for p in p_list), reverse=True):
        law = maker(base_law, p)
        rep = estimate_cylinder(law, spec, n, subseed(seed, "sweep", str(p)))
        dev = abs(rep.estimate - base_value)
        bound = None
        if k_ball is not None:
            eps = 1.0 - (1.0 - float(p)) ** k_ball
            bound = 2.0 * eps + 3.0 * rep.stderr
        rows.append(SweepRow(p, rep.estimate, rep.stderr, dev, bound))
    return rows


def render_invariance(rows, fmt: str = "text") -> str:
    if fmt == "csv":
        lines = ["fingerprint,letter,mass,conj_mass,deviation,z"]
        for r in rows:
            fp = "|".join(word_to_str(w) for w in r.fingerprint)
            z = "" if r.z is None else f"{r.z:.4f}"
            lines.append(
                f"{fp},{word_to_str((r.letter,))},{r.mass},{r.conj_mass},"
                f"{r.deviation},{z}"
            )
        return "\n".join(lines) + "\n"
    lines = [
        f"{'cylinder':<40} {'g':>7} {'mass':>10} {'g.mass':>10} "
        f"{'|dev|':>10} {'z':>8}"
    ]
    for r in rows:
        fp = "{" + " ".join(word_to_str(w) for w in r.fingerprint) + "}"
        if len(fp) > 40:
            fp = fp[:37] + "..}"
        z = "exact" if r.z is None else f"{r.z:.2f}"
        lines.append(
            f"{fp:<40} {word_to_str((r.letter,)):>7} {float(r.mass):>10.5f} "
            f"{float(r.conj_mass):>10.5f} {float(r.deviation):>10.5f} {z:>8}"
        )
    return "\n".join(lines) + "\n"


def render_sweep(rows, fmt: str = "text") -> str:
    if fmt == "csv":
        lines = ["p,estimate,stderr,deviation,bound"]
        for r in rows:
            b = "" if r.bound is None else f"{r.bound:.6f}"
            lines.append(f"{r.p},{r.estimate},{r.stderr:.6f},{r.deviation},{b}")
        return "\n".join(lines) + "\n"
    lines = [f"{'p':>8} {'estimate':>10} {'stderr':>9} {'deviation':>10} {'bound':>9}"]
    for r in rows:
        b = "      n/a" if r.bound is None else f"{r.bound:>9.5f}"
        lines.append(
            f"{str(r.p):>8} {float(r.estimate):>10.5f} {r.stderr:>9.5f} "
            f"{float(r.deviation):>10.5f} {b}"
        )
    return "\n".join(lines) + "\n"
