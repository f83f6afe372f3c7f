"""Schreier coset graphs as lazy rooted oracles.

A SchreierOracle answers neighbor(v, letter) for letters +-1..+-r and never
fails: the graphs are total. Membership of a word w in the represented
subgroup is "the walk spelled by w returns to the root"; conjugation moves
the root. Oracles are logically immutable once seeded; internal memo tables
are write-once.
"""

from __future__ import annotations

from .errors import BudgetError, DomainError, HorizonError, InvalidGraphError
from .words import (
    Word,
    inverse_word,
    letters_ordered,
    reduce_word,
    word_to_str,
)

DEFAULT_BUDGET = 10**6

STAR = "*"


class SchreierOracle:
    """Base interface: a root vertex, a rank and a total neighbor function."""

    rank: int
    root: object

    def neighbor(self, vertex, letter: int):
        raise NotImplementedError

    def token(self, vertex) -> str:
        """Stable printable name of a vertex (unique within this oracle)."""
        raise NotImplementedError

    def rebased(self, new_root) -> "SchreierOracle":
        return RebasedOracle(self, new_root)


class RebasedOracle(SchreierOracle):
    def __init__(self, inner: SchreierOracle, new_root):
        while isinstance(inner, RebasedOracle):
            inner = inner.inner
        self.inner = inner
        self.rank = inner.rank
        self.root = new_root

    def neighbor(self, vertex, letter: int):
        return self.inner.neighbor(vertex, letter)

    def token(self, vertex) -> str:
        return self.inner.token(vertex)


class CayleyOracle(SchreierOracle):
    """Cayley graph of the free group: the trivial subgroup."""

    def __init__(self, rank: int):
        if rank < 1:
            raise DomainError("rank must be >= 1")
        self.rank = rank
        self.root: Word = ()

    def neighbor(self, vertex: Word, letter: int) -> Word:
        if vertex and vertex[-1] == -letter:
            return vertex[:-1]
        return vertex + (letter,)

    def token(self, vertex: Word) -> str:
        return word_to_str(vertex)


class FiniteOracle(SchreierOracle):
    """Explicit finite Schreier graph: r permutations of a finite vertex set.

    Vertices are strings. Validates the permutation property and
    connectivity from the root at construction.
    """

    def __init__(self, rank: int, vertices, root: str, succ: dict):
        self.rank = rank
        self.vertices = tuple(vertices)
        self.root = root
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise DomainError("duplicate vertex names")
        if root not in vset:
            raise DomainError(f"root {root!r} not a vertex")
        self.succ = dict(succ)
        self.pred: dict = {}
        for i in range(1, rank + 1):
            seen_dst = set()
            for v in self.vertices:
                w = self.succ.get((v, i))
                if w is None or w not in vset:
                    raise InvalidGraphError(
                        f"vertex {v!r} lacks an outgoing s{i}-edge"
                    )
                if w in seen_dst:
                    raise InvalidGraphError(
                        f"two s{i}-edges directed into {w!r}"
                    )
                seen_dst.add(w)
                self.pred[(w, i)] = v
        if len(bfs(root, self.neighbor, letters_ordered(rank))) != len(vset):
            raise DomainError("graph is not connected from the root")

    def neighbor(self, vertex, letter: int):
        if letter > 0:
            return self.succ[(vertex, letter)]
        return self.pred[(vertex, -letter)]

    def token(self, vertex) -> str:
        return vertex

    @classmethod
    def from_perms(cls, perms, root: int = 0, names=None) -> "FiniteOracle":
        """Build from r permutations of {0..n-1} given as tuples/lists."""
        n = len(perms[0])
        names = names or [str(i) for i in range(n)]
        succ = {}
        for i, p in enumerate(perms, start=1):
            if sorted(p) != list(range(n)):
                raise DomainError(f"perm {i} is not a permutation of 0..{n-1}")
            for v in range(n):
                succ[(names[v], i)] = names[p[v]]
        return cls(len(perms), names, names[root], succ)


def bfs(root, step, letters, radius=None, budget=None) -> dict:
    """Breadth-first distances from `root`, in discovery order.

    Each vertex is expanded along `letters` in turn; `step(v, letter)` gives
    the neighbor, or None where there is none. Vertices at distance
    `radius` are not expanded. Raises BudgetError as soon as more than
    `budget` vertices are discovered.
    """
    dist = {root: 0}
    queue = [root]
    for v in queue:
        d = dist[v]
        if d == radius:
            break
        d += 1
        for l in letters:
            w = step(v, l)
            if w is not None and w not in dist:
                dist[w] = d
                queue.append(w)
                if budget is not None and len(queue) > budget:
                    raise BudgetError(
                        f"ball exploration exceeded budget {budget}"
                    )
    return dist


def trace(oracle: SchreierOracle, w: Word):
    """Vertex reached from the root by reading w left to right."""
    v = oracle.root
    for l in w:
        v = oracle.neighbor(v, l)
    return v


def contains(oracle: SchreierOracle, w) -> bool:
    """Word membership in the subgroup represented by the oracle."""
    return trace(oracle, reduce_word(w)) == oracle.root


def conjugate(oracle: SchreierOracle, g: Word) -> SchreierOracle:
    """Oracle for g K g^-1: same graph, root moved along g^-1."""
    return oracle.rebased(trace(oracle, inverse_word(g)))


class BallView:
    """Explicit finite ball: vertices in BFS order, labeled directed edges
    (label int 1..r) plus optional undirected star edges (label "*"),
    boundary = vertices at distance exactly `radius`.

    Vertices are the string tokens supplied by the originating oracle.
    """

    def __init__(self, rank, radius, root, vertices, edges, boundary):
        self.rank = rank
        self.radius = radius
        self.root = root
        self.vertices = tuple(vertices)
        self.boundary = frozenset(boundary)
        self.letters = letters_ordered(rank) + [STAR]
        self.out = {}
        self.inc = {}
        self.star = {}
        kept = []
        for edge in edges:
            src, label, dst = edge
            if label == STAR:
                if self.star.get(src) == dst:
                    continue  # keep only the first record of a star edge
                for a, b in ((src, dst), (dst, src)):
                    if self.star.get(a, b) != b:
                        raise DomainError(
                            f"vertex {a!r} is incident to two star edges"
                        )
                    self.star[a] = b
            else:
                key = (src, label)
                if key in self.out:
                    raise InvalidGraphError(
                        f"two outgoing s{label}-edges at {src!r}")
                self.out[key] = dst
                key = (dst, label)
                if key in self.inc:
                    raise InvalidGraphError(
                        f"two incoming s{label}-edges at {dst!r}")
                self.inc[key] = src
            kept.append(edge)
        self.edges = tuple(kept)

    def step(self, vertex, letter):
        """Neighbor along a letter or along the star edge (letter STAR);
        None where the view has no such edge."""
        if letter == STAR:
            return self.star.get(vertex)
        if letter > 0:
            return self.out.get((vertex, letter))
        return self.inc.get((vertex, -letter))

    @property
    def interior(self):
        return [v for v in self.vertices if v not in self.boundary]

    def has_stars(self) -> bool:
        return bool(self.star)

    def is_complete(self) -> bool:
        """Every vertex has full degree: one in and one out per label."""
        for v in self.vertices:
            for i in range(1, self.rank + 1):
                if (v, i) not in self.out or (v, i) not in self.inc:
                    return False
        return True

    def to_oracle(self) -> FiniteOracle:
        if self.has_stars():
            raise DomainError("ball has star edges; not a Schreier graph")
        if not self.is_complete():
            raise DomainError("ball is not a complete finite Schreier graph")
        succ = {
            (v, i): self.out[(v, i)]
            for v in self.vertices
            for i in range(1, self.rank + 1)
        }
        return FiniteOracle(self.rank, self.vertices, self.root, succ)


def validate_schreier_ball(view: BallView) -> None:
    """One-in/one-out-per-label on interior vertices; at most one star edge
    per vertex anywhere. Raises InvalidGraphError on violation."""
    for v in view.interior:
        for i in range(1, view.rank + 1):
            if (v, i) not in view.out:
                raise InvalidGraphError(
                    f"interior vertex {v!r} lacks outgoing s{i}-edge"
                )
            if (v, i) not in view.inc:
                raise InvalidGraphError(
                    f"interior vertex {v!r} lacks incoming s{i}-edge"
                )
    # star multiplicity is enforced by the BallView constructor


class BallBackedOracle(SchreierOracle):
    """Walk a stored finite ball as if it were an oracle. Raises
    HorizonError when a walk needs an edge beyond the stored radius."""

    def __init__(self, view: BallView):
        if view.has_stars():
            raise DomainError("cannot walk a ball with unresolved star edges")
        self.view = view
        self.rank = view.rank
        self.root = view.root

    def neighbor(self, vertex, letter: int):
        w = self.view.step(vertex, letter)
        if w is None:
            raise HorizonError(
                f"walk left the stored ball at {vertex!r} (letter {letter}); "
                "provide a larger ball"
            )
        return w

    def token(self, vertex) -> str:
        return vertex

    def extract_ball(self, radius: int, budget: int = DEFAULT_BUDGET) -> BallView:
        if radius > self.view.radius and self.view.boundary:
            raise HorizonError(
                f"stored ball has radius {self.view.radius}, need {radius}"
            )
        return sub_ball(self.view, radius)


def ball(oracle: SchreierOracle, radius: int, budget: int = DEFAULT_BUDGET) -> BallView:
    """Breadth-first ball of the given radius around the root.

    Includes every edge between included vertices. Asserts the permutation
    property neighbor(neighbor(v, l), -l) == v on each explored edge.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    custom = getattr(oracle, "extract_ball", None)
    if custom is not None:
        return custom(radius, budget)

    def step(v, l):
        w = oracle.neighbor(v, l)
        if oracle.neighbor(w, -l) != v:
            raise InvalidGraphError(
                f"permutation property fails at {oracle.token(v)} "
                f"(letter {l})"
            )
        return w

    dist = bfs(oracle.root, step, letters_ordered(oracle.rank), radius, budget)
    tok = {v: oracle.token(v) for v in dist}
    if len(set(tok.values())) != len(dist):
        raise InvalidGraphError("oracle tokens are not injective")
    edges = []
    for v in dist:
        for i in range(1, oracle.rank + 1):
            w = oracle.neighbor(v, i)
            if w in dist:
                edges.append((tok[v], i, tok[w]))
    boundary = [tok[v] for v, d in dist.items() if d == radius]
    return BallView(oracle.rank, radius, tok[oracle.root], tok.values(),
                    edges, boundary)


def sub_ball(view: BallView, radius: int) -> BallView:
    """Radius-`radius` ball of a stored view around its root (graph BFS,
    star edges count as length-1 steps)."""
    if radius < 0:
        raise DomainError("radius must be >= 0")
    dist = bfs(view.root, view.step, view.letters, radius)
    edges = [e for e in view.edges if e[0] in dist and e[2] in dist]
    boundary = [v for v, d in dist.items() if d == radius]
    return BallView(view.rank, radius, view.root, dist, edges, boundary)
