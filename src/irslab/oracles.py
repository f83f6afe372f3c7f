"""Schreier coset graphs as lazy rooted oracles.

A SchreierOracle answers neighbor(v, letter) for letters +-1..+-r and never
fails: the graphs are total. Membership of a word w in the represented
subgroup is "the walk spelled by w returns to the root"; conjugation moves
the root. Oracles are logically immutable once seeded; internal memo tables
are write-once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def known_neighbor(self, vertex, letter: int):
        """`neighbor`, or None where that is a vertex never returned. `ball`
        asks it for the cells a boundary vertex lacks, so it should draw
        only what its answer depends on."""
        return self.neighbor(vertex, letter)

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

    def known_neighbor(self, vertex, letter: int):
        return self.inner.known_neighbor(vertex, letter)

    def token(self, vertex) -> str:
        return self.inner.token(vertex)


class CayleyOracle(SchreierOracle):
    """Cayley graph of the free group: the trivial subgroup.

    A vertex is the bijective base-2r numeral of its reduced word: digit
    2i-1 stands for s_i and 2i for s_i^-1, so the root is 0, a step along
    a letter appends its digit or drops the last one, and numerals sort in
    the shortlex order of their words. `token` memoizes on the oracle; over
    `trivial_law`, which shares one oracle, radius-R balls fill at most the
    Cayley ball of radius R (4 373 entries, about 0.6 MB, at R = 7)."""

    def __init__(self, rank: int):
        if rank < 1:
            raise DomainError("rank must be >= 1")
        self.rank = rank
        self.root = 0
        self._base = 2 * rank
        letters = letters_ordered(rank)  # letters[d - 1] has digit d
        names = ["e"] + [word_to_str((l,)) for l in letters]
        self._tokens = dict(enumerate(names))  # numeral -> token, write-once
        # letter -> (its digit, the remainder (n - 1) % 2r of a numeral n
        # whose last digit is that of its inverse)
        self._moves = {l: (d, letters.index(-l))
                       for d, l in enumerate(letters, start=1)}

    def neighbor(self, vertex: int, letter: int) -> int:
        digit, back = self._moves[letter]
        if vertex and (vertex - 1) % self._base == back:
            return (vertex - 1) // self._base
        return vertex * self._base + digit

    def token(self, vertex: int) -> str:
        """`word_to_str` of the word, built on its longest named prefix."""
        token = self._tokens.get(vertex)
        if token is None:
            names, n = [], vertex
            while n not in self._tokens:  # it holds every numeral of one digit
                n, r = divmod(n - 1, self._base)
                names.append(self._tokens[r + 1])
            names.append(self._tokens[n])
            token = self._tokens[vertex] = "*".join(reversed(names))
        return token


@dataclass(frozen=True)
class FiniteAction:
    """r permutations of the points 0..n-1, acting on the right: point . s_i
    = perms[i](point), and a word acts letter by letter, so the stabilizer
    of a point is the set of words whose walk returns to the point.

    The one place where a finite graph is checked to be a permutation
    graph; raises InvalidGraphError unless each perm permutes 0..n-1."""

    n: int
    perms: tuple  # r tuples, images of s_1..s_r

    inv: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need at least one point")
        perms = tuple(map(tuple, self.perms))
        points = list(range(self.n))
        for k, p in enumerate(perms, start=1):
            if sorted(p) != points:
                raise InvalidGraphError(
                    f"perm s{k} is not a permutation of 0..{self.n - 1}")
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "inv", tuple(
            tuple(sorted(points, key=p.__getitem__)) for p in perms))

    @property
    def rank(self) -> int:
        return len(self.perms)

    def step(self, point: int, letter: int) -> int:
        if letter > 0:
            return self.perms[letter - 1][point]
        return self.inv[-letter - 1][point]

    def act(self, point: int, w: Word) -> int:
        for l in w:
            point = self.step(point, l)
        return point


class FiniteOracle(SchreierOracle):
    """Finite Schreier graph: a transitive finite action seen from its root
    point. Vertices are the point names (`str(k)` by default), so
    `vertices[k]` is point k of `action`. Checks connectivity from the
    root; `FiniteAction` checks the permutation property.
    """

    def __init__(self, action: FiniteAction, root: int = 0, names=None):
        self.action = action
        self.rank = action.rank
        if names is None:
            names = map(str, range(action.n))
        self.vertices = tuple(names)
        self.index = {v: k for k, v in enumerate(self.vertices)}
        if not len(self.vertices) == len(self.index) == action.n:
            raise DomainError(f"need {action.n} distinct vertex names")
        if not 0 <= root < action.n:
            raise DomainError(f"root {root} is not a point")
        self.root = self.vertices[root]
        if len(bfs(root, action.step, letters_ordered(self.rank))[0]) != action.n:
            raise DomainError("graph is not connected from the root")

    def neighbor(self, vertex, letter: int):
        return self.vertices[self.action.step(self.index[vertex], letter)]

    def token(self, vertex) -> str:
        return vertex

    @classmethod
    def from_perms(cls, perms, root: int = 0, names=None) -> "FiniteOracle":
        """Build from r permutations of {0..n-1} given as tuples/lists."""
        return cls(FiniteAction(len(perms[0]), perms), root, names)


def bfs(root, step, letters, radius=None, budget=None) -> tuple:
    """Breadth-first search from `root` along `letters`, numbering vertices
    as it finds them. `step(v, letter)` gives the neighbor, or None where
    there is none, and must be a pairing: step(v, l) == w implies
    step(w, -l) == v, and STAR pairs with itself. So a step from v to w
    along l fills v's l cell and w's -l cell, and no cell already held is
    stepped again. Vertices at distance `radius` are not expanded: their
    cells hold only the steps that reached them. Raises BudgetError as soon
    as more than `budget` vertices are discovered.

    Returns (number, depth, cells): `number` maps each vertex to its number,
    in discovery order; `depth[k]` is the distance of vertex k; and
    `cells[k * len(letters) + j]` is the number of its neighbor along
    `letters[j]`, or None.
    """
    width = len(letters)
    moves = [(j, l, letters.index(l if l == STAR else -l))
             for j, l in enumerate(letters)]
    blank = [None] * width
    number = {root: 0}
    order = [root]
    depth = [0]
    cells = blank[:]
    for k, v in enumerate(order):
        if depth[k] == radius:
            break
        at = k * width
        for j, l, back in moves:
            if cells[at + j] is not None:
                continue
            w = step(v, l)
            if w is None:
                continue
            m = number.get(w)
            if m is None:
                m = number[w] = len(order)
                order.append(w)
                depth.append(depth[k] + 1)
                cells += blank
                if budget is not None and m >= budget:
                    raise BudgetError(
                        f"ball exploration exceeded budget {budget}"
                    )
            cells[at + j] = m
            cells[m * width + back] = k
    return number, depth, cells


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

    @property
    def letters(self) -> list:
        """The letters a step can follow: STAR only where there are stars."""
        return letters_ordered(self.rank) + [STAR] * bool(self.star)

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
        index = {v: k for k, v in enumerate(self.vertices)}
        perms = [[index[self.out[(v, i)]] for v in self.vertices]
                 for i in range(1, self.rank + 1)]
        return FiniteOracle.from_perms(perms, index[self.root], self.vertices)


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


def grow_view(root, step, succ, rank: int, radius: int, token, star=None,
              budget=None) -> BallView:
    """The radius-`radius` view around `root`; every BallView grown by BFS
    is built here.

    `bfs` runs along `step` over the 2r letters, plus STAR when `star` (the
    star partner of a vertex, or None) is given. Vertices are named by
    `token`; raises InvalidGraphError unless the names are distinct. Each
    s_i-edge inside the ball is recorded in BFS order, then each star edge
    once with the smaller token first. The edges come from the cells of
    `bfs`; `succ(v, l)` (`step` unchecked along s_i and `star` along STAR,
    or None for a vertex outside the ball) is asked only for the s_i and
    STAR cells a boundary vertex lacks. The boundary is the layer at
    distance `radius`.
    """
    if radius < 0:
        raise DomainError("radius must be >= 0")
    letters = letters_ordered(rank)
    if star is None:
        walk = step
    else:
        letters.append(STAR)

        def walk(v, l):
            return star(v) if l == STAR else step(v, l)

    number, depth, cells = bfs(root, walk, letters, radius, budget)
    tok = [token(v) for v in number]
    if len(set(tok)) != len(tok):
        raise InvalidGraphError("oracle tokens are not injective")
    edges = []
    stars = []
    width = len(letters)
    ahead = letters[::2]  # s_1..s_r, then STAR if it is walked
    for k, v in enumerate(number):
        at = k * width
        outer = depth[k] == radius  # not expanded: it may lack cells
        for j, l in enumerate(ahead):
            m = cells[at + 2 * j]
            if m is None and outer:
                m = number.get(succ(v, l))
            if m is None:
                continue
            if l != STAR:
                edges.append((tok[k], l, tok[m]))
            elif tok[k] < tok[m]:
                stars.append((tok[k], STAR, tok[m]))
    boundary = [t for t, d in zip(tok, depth) if d == radius]
    return BallView(rank, radius, tok[0], tok, edges + stars, boundary)


def ball(oracle: SchreierOracle, radius: int, budget: int = DEFAULT_BUDGET) -> BallView:
    """Breadth-first ball of the given radius around the root.

    Includes every edge between included vertices. Asserts the permutation
    property neighbor(neighbor(v, l), -l) == v on each edge the BFS walks.
    """
    def step(v, l):
        w = oracle.neighbor(v, l)
        if oracle.neighbor(w, -l) != v:
            raise InvalidGraphError(
                f"permutation property fails at {oracle.token(v)} "
                f"(letter {l})"
            )
        return w

    return grow_view(oracle.root, step, oracle.known_neighbor, oracle.rank,
                     radius, oracle.token, budget=budget)


def sub_ball(view: BallView, radius: int) -> BallView:
    """Radius-`radius` ball of a stored view around its root (graph BFS,
    star edges count as length-1 steps). Raises HorizonError past the
    stored radius of a view with a boundary."""
    if radius > view.radius and view.boundary:
        raise HorizonError(
            f"stored ball has radius {view.radius}, need {radius}")
    return grow_view(view.root, view.step, view.step, view.rank, radius, str,
                     view.star.get if view.has_stars() else None)
