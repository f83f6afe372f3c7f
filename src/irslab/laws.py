"""Subgroup laws: deterministic samplers of Schreier oracles.

A law draws an oracle from a seed; point laws ignore the seed. Laws
compose: the percolation and tripling constructions each accept any law as
their base, with sub-seeds derived per stage so that one top-level seed
determines the whole sample. A stage asks its base law for a sample with
`draw`, which derives the sub-seed only where the law reads it.
"""

from __future__ import annotations

from fractions import Fraction

from .normalizer import MarkLaw, checked_root_slot, tripled_oracle
from .oracles import CayleyOracle, SchreierOracle
from .poulsen import poulsen_oracle, retention_cutoff
from .randomness import subseed


class PointLaw:
    """Point mass on a single subgroup."""

    def __init__(self, oracle: SchreierOracle, name: str = "point"):
        self.oracle = oracle
        self.rank = oracle.rank
        self.is_point = True
        self.name = name

    def sample(self, seed: int) -> SchreierOracle:
        return self.oracle

    def draw(self, seed: int, namespace: str, key) -> SchreierOracle:
        return self.oracle

    def describe(self) -> str:
        return self.name


def trivial_law(rank: int) -> PointLaw:
    return PointLaw(CayleyOracle(rank), "trivial")


class _SeededLaw:
    """A law whose sample depends on its seed."""

    is_point = False

    def draw(self, seed: int, namespace: str, key) -> SchreierOracle:
        """The sample at the sub-seed of (seed, namespace, key)."""
        return self.sample(subseed(seed, namespace, key))


class NormalizerLaw(_SeededLaw):
    """Law of the tripling perturbation over a base law. Its mark law is
    built, and p, the rank and the root slot checked, when the law is."""

    def __init__(self, inner, p, biased_root_slot: int | None = None):
        self.inner = inner
        self.p = Fraction(p)
        self.rank = inner.rank
        self.mark_law = MarkLaw(self.p, self.rank)
        self.biased_root_slot = checked_root_slot(biased_root_slot)

    def sample(self, seed: int) -> SchreierOracle:
        base = self.inner.draw(seed, "law", "base-draw")
        return tripled_oracle(base, self.mark_law, subseed(seed, "law", "marks"),
                              self.biased_root_slot)

    def describe(self) -> str:
        tag = "biased-normalizer" if self.biased_root_slot is not None \
            else "normalizer"
        return f"{tag}:{self.inner.describe()}"


class PoulsenLaw(_SeededLaw):
    """Law of the percolation-and-surgery construction over a base law."""

    def __init__(self, inner, p):
        self.inner = inner
        self.p = Fraction(p)
        retention_cutoff(self.p)  # checks p when the law is built
        self.rank = inner.rank

    def sample(self, seed: int) -> SchreierOracle:
        return poulsen_oracle(self.inner, self.p, subseed(seed, "law", "perc"))

    def describe(self) -> str:
        return f"poulsen:{self.inner.describe()}"
