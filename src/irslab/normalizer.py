"""Self-normalizing perturbation of a subgroup law.

Each coset of the base Schreier graph independently receives a mark in
{0, 1, ..., r}: 0 with probability 1-p, each positive value with
probability p/r (the root coset uses the size-biased law with
q = 3p/(1+2p) instead). Marked cosets are tripled into slots {0,1,2} and
rewired so that the marked generator s_m runs slot0 -> slot2 with a loop at
slot1, while every other generator runs slot0 -> slot1 -> slot2; unmarked
cosets keep their edges, entering marked successors at slot 0 and leaving
marked predecessors from slot 2. If the root is marked, the root of the
output is a uniformly random slot of the tripled root coset.

The output is again a Schreier coset graph, and for an invariant base law
the output law is exactly invariant; at small p it perturbs the base only
slightly while almost surely destroying every graph automorphism.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, getitem, mul

from .analysis import array_code, aut_trivial, automorphisms
from .errors import BudgetError, DomainError
from .measures import AtomicMeasure
from .oracles import FiniteOracle, SchreierOracle
from .randomness import TWO128, Keyed, digest128


@dataclass(frozen=True)
class MarkLaw:
    """Mark distribution on {0..r}: u_p(0) = 1-p, u_p(i) = p/r; at the root
    the same shape with q = 3p/(1+2p) in place of p. `root_cuts` and
    `other_cuts` hold its two `thresholds` tables."""

    p: Fraction
    rank: int

    def __post_init__(self):
        if not isinstance(self.p, Fraction):
            object.__setattr__(self, "p", Fraction(self.p))
        if not (0 < self.p < 1):
            raise DomainError("p must lie strictly between 0 and 1")
        if self.rank < 1:
            raise DomainError("rank must be >= 1")
        object.__setattr__(self, "root_cuts", self.thresholds(True))
        object.__setattr__(self, "other_cuts", self.thresholds(False))

    @property
    def q(self) -> Fraction:
        return 3 * self.p / (1 + 2 * self.p)

    def masses(self, at_root: bool) -> list[Fraction]:
        level = self.q if at_root else self.p
        return [1 - level] + [level / self.rank] * self.rank

    @functools.lru_cache(maxsize=64)
    def thresholds(self, at_root: bool) -> tuple[int, ...]:
        """Integer cutoffs c_0 < ... < c_r = 2^128 so that a uniform 128-bit
        draw d yields mark = first i with d < c_i. Computed once per
        `MarkLaw`; a `NormalizerLaw` builds one."""
        cuts = []
        acc = Fraction(0)
        for m in self.masses(at_root):
            acc += m
            cuts.append(min(TWO128, (acc.numerator * TWO128) // acc.denominator))
        cuts[-1] = TWO128
        return tuple(cuts)

    def weights(self, n: int) -> list[list[Fraction]]:
        """weights[a][k]: the probability of one mark assignment of a base
        with n vertices whose root has mark a and k other vertices marked."""
        others = [(1 - self.p) ** (n - 1 - k) * (self.p / self.rank) ** k
                  for k in range(n)]
        return [[m * o for o in others] for m in self.masses(at_root=True)]


def mark(seed: int, vertex_key, law: MarkLaw, at_root: bool) -> int:
    """Deterministic mark of a vertex: a pure function of (seed, vertex)."""
    d = digest128(seed, "mark", vertex_key)
    return bisect_right(law.root_cuts if at_root else law.other_cuts, d)


# Cuts of the uniform root slot: a draw d falls in slot 3 * d >> 128
SLOT_CUTS = (-(-TWO128 // 3), -(-2 * TWO128 // 3), TWO128)

# Where a letter leads inside a tripled coset marked m: s_i goes from slots
# 0 and 1 to SLOTS[i == m], and s_i^-1 from slots 1 and 2 to INVERSE[i == m].
# s_i leaves the coset from slot 2 and s_i^-1 from slot 0.
SLOTS = ((1, 2), (2, 1))
INVERSE = tuple((row.index(1), row.index(2)) for row in SLOTS)


class NormalizerOracle(SchreierOracle):
    """Lazy tripled-and-rewired graph over an arbitrary base oracle.

    `markfn` maps a base vertex to its mark; `root_slot` fixes the slot when
    the root coset is marked, or is a function of no arguments that gives
    it and is called only then. The sampling constructors derive both from
    a seed. Moves inside a marked coset read the slot tables SLOTS and
    INVERSE, which `_tripled` reads too; every other step crosses to a base
    neighbour through `_onto`, at slot 0 for a positive letter and slot 2
    for an inverse one if that neighbour is marked.
    """

    def __init__(self, base: SchreierOracle, markfn, root_slot):
        self.base = base
        self.rank = base.rank
        self._mark = markfn
        self._drawn = getattr(markfn, "cache", None)  # memoized marks
        if self._mark(base.root) == 0:
            self.root = ("b", base.root)
        else:
            if callable(root_slot):
                root_slot = root_slot()
            if root_slot not in (0, 1, 2):
                raise DomainError("root slot must be 0, 1 or 2")
            self.root = ("t", base.root, root_slot)

    def neighbor(self, vertex, letter: int):
        if vertex[0] == "t":
            _, v, slot = vertex
            if letter > 0:
                if slot < 2:
                    return ("t", v, SLOTS[letter == self._mark(v)][slot])
            elif slot:
                return ("t", v, INVERSE[-letter == self._mark(v)][slot - 1])
        else:
            v = vertex[1]
        return self._onto(self.base.neighbor(v, letter), letter)

    def known_neighbor(self, vertex, letter: int):
        """`neighbor`, or None for a step out of the coset to a new base vertex."""
        if vertex[0] == "t" and vertex[2] != (2 if letter > 0 else 0):
            return self.neighbor(vertex, letter)  # a move inside the coset
        w = self.base.known_neighbor(vertex[1], letter)
        if w is None or self._drawn is not None and w not in self._drawn:
            return None
        return self._onto(w, letter)

    def _onto(self, w, letter: int):
        return ("t", w, 0 if letter > 0 else 2) if self._mark(w) else ("b", w)

    def token(self, vertex) -> str:
        if vertex[0] == "b":
            return f"b({self.base.token(vertex[1])})"
        return f"t({self.base.token(vertex[1])};{vertex[2]})"


class _HashMarks:
    """Memoized keyed-hash marks, each keyed by its base vertex; write-once
    cache, safe for shared readers."""

    def __init__(self, base: SchreierOracle, law: MarkLaw, seed: int):
        self.base = base
        self.keyed = Keyed(seed, "mark")
        self.root_cuts = law.root_cuts
        self.other_cuts = law.other_cuts
        self.cache: dict = {}

    def __call__(self, v) -> int:
        m = self.cache.get(v)
        if m is None:
            cuts = self.root_cuts if v == self.base.root else self.other_cuts
            m = self.cache[v] = self.keyed.choose(v, cuts)
        return m


def checked_root_slot(slot: int | None) -> int | None:
    """A biased root slot, None or 0, 1 or 2; raises DomainError otherwise."""
    if slot not in (None, 0, 1, 2):
        raise DomainError("root slot must be 0, 1 or 2")
    return slot


def normalizer_oracle(base: SchreierOracle, p, seed: int,
                      biased_root_slot: int | None = None) -> NormalizerOracle:
    """Sample the perturbed graph with keyed randomness: `tripled_oracle`
    under the mark law of p."""
    return tripled_oracle(base, MarkLaw(p, base.rank), seed, biased_root_slot)


def tripled_oracle(base: SchreierOracle, law: MarkLaw, seed: int,
                   biased_root_slot: int | None = None) -> NormalizerOracle:
    """Sample the perturbed graph with keyed randomness, marks drawn from
    `law`, whose rank is that of `base`.

    `biased_root_slot` forces a fixed root slot instead of the uniform
    choice; this deliberately breaks invariance and exists as a negative
    control for the invariance test harness.
    """
    slot = checked_root_slot(biased_root_slot)
    if slot is None:
        def slot():  # drawn only for a marked root
            return Keyed(seed, "rootslot").choose("root", SLOT_CUTS)
    return NormalizerOracle(base, _HashMarks(base, law, seed), slot)


def _tripled(base: FiniteOracle):
    """Int-array form of the perturbed graphs over a finite base.

    Returns build(marks) -> (succ, enter) for marks in vertex order: one
    successor list per letter of the tripled-and-rewired graph, and the id
    at which each base vertex is entered. An unmarked vertex owns one id; a
    marked one owns enter, enter+1 and enter+2 for slots 0, 1 and 2."""
    perms = base.action.perms  # vertex k of the base is point k

    def build(marks):
        enter, size = [], 0
        for m in marks:
            enter.append(size)
            size += 3 if m else 1
        succ = []
        for i, targets in enumerate(perms, start=1):
            s = [0] * size
            for v, m in enumerate(marks):
                a = enter[v]
                if m:
                    t0, t1 = SLOTS[m == i]
                    s[a], s[a + 1] = a + t0, a + t1
                    a += 2  # s_i leaves from slot 2
                s[a] = enter[targets[v]]
            succ.append(s)
        return succ, enter

    return build


def _vertex_terms(perms, root: int) -> list[list[tuple[int, ...]]]:
    """terms[v][m]: what vertex v with mark m adds to the statistic (root
    mark, marked vertices, L_1, ..., L_r) of a mark assignment, where L_i
    counts the vertices marked i and the unmarked fixed points of s_i."""
    return [[(m if v == root else 0, int(m != 0),
              *(int(m == i or not m and s[v] == v)
                for i, s in enumerate(perms, start=1)))
             for m in range(len(perms) + 1)]
            for v in range(len(perms[0]))]


def _classes(terms, rank: int, scale: int) -> dict:
    """The mark assignments of the vertices that `terms` covers, grouped by
    statistic: {sum of terms: [(scale * position, marks), ...]}, where
    position is the index of marks in itertools.product order."""
    zero = (0,) * (rank + 2)
    classes = {}
    for j, marks in enumerate(itertools.product(range(rank + 1),
                                                repeat=len(terms))):
        stat = tuple(map(sum, zip(zero, *map(getitem, terms, marks))))
        classes.setdefault(stat, []).append((scale * j, marks))
    return classes


def _class_pairs(perms, root: int):
    """Every mark assignment of a base, once, in classes: yields (statistic,
    left, right) for each pair of a class of the first half of the vertices
    and a class of the second half. The assignments x + y, for (i, x) in
    left and (j, y) in right, share the statistic (root mark, marked
    vertices, L_1, ..., L_r), an iterator over its entries, and x + y sits
    at i + j of itertools.product order."""
    rank, n = len(perms), len(perms[0])
    terms = _vertex_terms(perms, root)
    h = (n + 1) // 2
    high = _classes(terms[:h], rank, (rank + 1) ** (n - h))
    low = _classes(terms[h:], rank, 1)
    for upper, left in high.items():
        for lower, right in low.items():
            yield map(add, upper, lower), left, right


def enumerate_normalizer_law(base: FiniteOracle, p,
                             biased_root_slot: int | None = None,
                             budget: int = 10**6) -> AtomicMeasure:
    """Exact output law over root-isomorphism classes for a finite base:
    every mark assignment and root slot enumerated with its rational
    probability. Atom keys are canonical graph codes. `budget` bounds the
    outcomes enumerated: (r+1)^(n-1) * (1 + 3r) pairs of an assignment and
    a root slot with the uniform slot, (r+1)^n with a biased one."""
    checked_root_slot(biased_root_slot)
    law = MarkLaw(p, base.rank)
    r, n = base.rank, len(base.vertices)
    at_root = 1 + 3 * r if biased_root_slot is None else r + 1
    outcomes = (r + 1) ** (n - 1) * at_root
    if outcomes > budget:
        raise BudgetError(
            f"{outcomes} outcomes exceed enumeration budget {budget}"
        )
    build = _tripled(base)
    root = base.vertices.index(base.root)
    weights = law.weights(n)
    # masses are tallied as integer numerators over one common denominator
    scale = lcm(*(w.denominator for row in weights for w in row))
    if biased_root_slot is None:
        scale *= 3
    counts: dict = {}
    # an assignment's weight and root slots depend on its class alone
    for (a, marked, *_), left, right in _class_pairs(base.action.perms, root):
        prob = weights[a][marked - (a != 0)]
        if not a:
            slots = (0,)
        elif biased_root_slot is not None:
            slots = (biased_root_slot,)
        else:
            slots, prob = (0, 1, 2), prob / 3
        count = prob.numerator * (scale // prob.denominator)
        for _, x in left:
            for _, y in right:
                succ, enter = build(x + y)
                for slot in slots:
                    code = array_code(succ, enter[root] + slot)
                    counts[code] = counts.get(code, 0) + count
    return AtomicMeasure.from_counts(counts, scale)


def _cycle_type(perms):
    """cycle_gcd(marks, g), or None when each letter of `perms` is one cycle.

    In the tripled graph of marks m, a base s_i-cycle C becomes one s_i-cycle
    of length |C| + sum of ext(m_v) over v in C, where ext is 0 for an
    unmarked vertex, 1 for one marked i and 2 for any other mark, and each
    vertex marked i adds a slot-1 loop. cycle_gcd folds into g, for each
    letter of more than one cycle and each length L, the number of vertices
    on s_i-cycles of length L."""
    size = len(perms) + 1
    letters = []
    for i, s in enumerate(perms, start=1):
        cycles, seen = [], set()
        for v in range(len(s)):
            if v not in seen:
                cycle = [v]
                while s[cycle[-1]] != v:
                    cycle.append(s[cycle[-1]])
                seen.update(cycle)
                cycles.append(cycle)
        if len(cycles) > 1:
            ext = [2] * size
            ext[0], ext[i] = 0, 1
            letters.append((i, cycles, ext))
    if not letters:
        return None

    def cycle_gcd(marks, g: int) -> int:
        for i, cycles, ext in letters:
            on = {1: marks.count(i)}  # cycle length -> vertices on such cycles
            for cycle in cycles:
                length = len(cycle)
                for v in cycle:
                    length += ext[marks[v]]
                on[length] = on.get(length, 0) + length
            g = gcd(g, *on.values())
            if g == 1:
                break
        return g

    return cycle_gcd


def aut_trivial_mass(base: FiniteOracle, p) -> Fraction:
    """Exact probability that the perturbed graph has trivial automorphism
    group (the subgroup is self-normalizing). Root-independent, so root
    slots are not enumerated.

    A count settles most mark assignments. With k vertices marked, the
    tripled graph has N = n + 2k vertices and L_i s_i-loops: the slot-1
    loops of the vertices marked i and the unmarked fixed points of s_i.
    Automorphisms act freely and map each set of loops onto itself, so
    their number divides gcd(N, L_1, ..., L_r); when that is 1 the graph
    is rigid. The root's mark, k and the L_i are sums of per-vertex terms,
    so pass 1 groups the assignments of each half of the vertices by their
    partial sums and pairs the groups: every pair whose gcd is 1 is tallied
    by its size, in integers by the root's mark and the number of other
    marked vertices, and the tallies are weighed with the MarkLaw masses
    once. No assignment of such a pair is visited.

    Pass 2 settles one assignment per orbit of Aut(base) on the rest, first
    by its cycle type (`_cycle_type`) and only then by building its graph.
    An automorphism commutes with each s_i, so it maps the s_i-cycles of
    each length L onto themselves, and it acts freely, so |Aut| divides the
    number of vertices on them. When those numbers, over each letter i and
    length L, have gcd 1 with the loop gcd, the graph is rigid. Only letters
    of more than one base cycle are read: a letter of one cycle gives one
    s_i-cycle of N - L_i vertices besides its loops, which the loop gcd
    already holds, so bases of one-cycle letters (the cyclic ones) build
    every graph of pass 2 as before.

    Let sigma be an automorphism of the base, so that sigma s_i = s_i sigma
    for every letter. Then v -> sigma(v), extended slot by slot, is an
    (unrooted) isomorphism from the tripled graph of marks m o sigma onto
    that of m, so the two have the same automorphism group. Sigma permutes
    the fixed points of each s_i and keeps k and every L_i, so it maps the
    assignments of each pass onto themselves: pass 1 counts every image of
    its assignments once, under the image's own root mark, and no orbit of
    pass 2 meets pass 1. If m o sigma = m with sigma not the identity,
    that isomorphism is a nontrivial automorphism, so the images of an
    assignment whose graph is rigid are all distinct. The root takes the
    size-biased law, so those images can differ in mass: each is tallied on
    its own."""
    law = MarkLaw(p, base.rank)
    perms = base.action.perms
    n, size = len(perms[0]), base.rank + 1
    root = base.vertices.index(base.root)
    # the marks of each half, in product order, are the digits of an
    # assignment's position, so m o sigma sits at sum_u m[u] * place[u]
    images = []
    for sigma in (range(n), *automorphisms(perms)):
        place = [0] * n
        for v, u in enumerate(sigma):
            place[u] = size ** (n - 1 - v)
        images.append((place, sigma[root]))
    tally = [[0] * n for _ in range(size)]  # [root mark][other marked]
    rest = []
    for (a, marked, *loops), left, right in _class_pairs(perms, root):
        g = gcd(n + 2 * marked, *loops)
        if g == 1:
            tally[a][marked - (a != 0)] += len(left) * len(right)
        else:
            rest.append((marked, g, left, right))
    build = _tripled(base)
    cycle_gcd = _cycle_type(perms)
    seen = bytearray(size ** n)
    for marked, g, left, right in rest:
        for i, x in left:
            for j, y in right:
                if seen[i + j]:
                    continue
                marks = x + y
                trivial = (cycle_gcd is not None and cycle_gcd(marks, g) == 1
                           or aut_trivial(build(marks)[0]))
                for place, at in images:
                    seen[sum(map(mul, marks, place))] = 1
                    if trivial:
                        a = marks[at]
                        tally[a][marked - (a != 0)] += 1
    return sum((c * w for counts, weights in zip(tally, law.weights(n))
                for c, w in zip(counts, weights)), Fraction(0))
