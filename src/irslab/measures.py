"""Exact atomic measures: finite rational-weighted distributions over
hashable canonical keys (graph codes, fingerprints, encoded-subgroup keys)."""

from __future__ import annotations

from fractions import Fraction


class AtomicMeasure:
    def __init__(self, data=None):
        self.data: dict = {}
        if data:
            for k, m in dict(data).items():
                self.add(k, m)

    @classmethod
    def from_counts(cls, counts: dict, scale: int) -> "AtomicMeasure":
        """The measure of mass count / scale at each key of `counts`; keys
        of equal count share one Fraction."""
        masses = {c: Fraction(c, scale) for c in set(counts.values()) if c}
        measure = cls()
        measure.data = {k: masses[c] for k, c in counts.items() if c}
        return measure

    def add(self, key, mass) -> None:
        mass = Fraction(mass)
        if mass == 0:
            return
        self.data[key] = self.data.get(key, Fraction(0)) + mass

    def mass(self, key) -> Fraction:
        return self.data.get(key, Fraction(0))

    def total(self) -> Fraction:
        return sum(self.data.values(), Fraction(0))

    def keys(self):
        return self.data.keys()

    def items_sorted(self):
        return sorted(self.data.items(), key=lambda kv: kv[0])

    def map_keys(self, fn) -> "AtomicMeasure":
        out = AtomicMeasure()
        for k, m in self.data.items():
            out.add(fn(k), m)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        return self.data == other.data

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"AtomicMeasure({len(self.data)} atoms, total={self.total()})"


def tv_distance(a: AtomicMeasure, b: AtomicMeasure) -> Fraction:
    """Total variation distance (1/2) sum |a(k) - b(k)| over the key union."""
    keys = set(a.keys()) | set(b.keys())
    acc = Fraction(0)
    for k in keys:
        acc += abs(a.mass(k) - b.mass(k))
    return acc / 2
