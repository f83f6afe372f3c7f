"""Schreier coset graphs as lazy rooted oracles.

A SchreierOracle answers neighbor(v, letter) for letters +-1..+-r and never
fails: the graphs are total. Membership of a word w in the represented
subgroup is "the walk spelled by w returns to the root"; conjugation moves
the root. Oracles are logically immutable once seeded; internal memo tables
are write-once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .errors import BudgetError, DomainError, HorizonError, InvalidGraphError
from .lines import quote
from .words import Word, inverse_word, letters_ordered, word_to_str

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
    Cayley ball of radius R (4 373 entries, about 0.6 MB, at R = 7). A rank
    past DEFAULT_BUDGET raises BudgetError."""

    def __init__(self, rank: int):
        if rank < 1:
            raise DomainError("rank must be >= 1")
        if rank > DEFAULT_BUDGET:
            raise BudgetError(f"rank exceeds budget {DEFAULT_BUDGET}")
        self.rank = rank
        self.root = 0
        self._base = 2 * rank
        letters = letters_ordered(rank)  # letters[d - 1] has digit d
        names = ["e"] + [word_to_str((l,)) for l in letters]
        self._tokens = dict(enumerate(names))  # numeral -> token, write-once
        # letter -> (its digit, the remainder (n - 1) % 2r of a numeral n
        # whose last digit is that of its inverse, which pairs with it)
        self._moves = {l: (d, (d - 1) ^ 1)
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
    as it finds them. `letters` holds each s_i just before s_i^-1, as
    `letters_ordered` does, then STAR if at all, so the inverse of
    letters[j] is letters[j ^ 1] and STAR is its own. `step(v, letter)`
    gives the neighbor, or None where there is none, and must be a pairing:
    step(v, l) == w implies step(w, -l) == v. So a step from v to w
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
    moves = [(j, l, j if l == STAR else j ^ 1) for j, l in enumerate(letters)]
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


def conjugate(oracle: SchreierOracle, g: Word) -> SchreierOracle:
    """Oracle for g K g^-1: same graph, root moved along g^-1."""
    return oracle.rebased(trace(oracle, inverse_word(g)))


class BallView:
    """An explicit finite rooted ball in one canonical form. Vertices are
    string tokens numbered in the discovery order of `bfs` from the root
    (vertex 0) along `letters`, then the unreached ones by token; `depth`
    holds their distances (None if unreached). `letters` has s_i, s_i^-1
    only for labels on some edge, then STAR if there is a star edge (one
    undirected edge per vertex at most), and `cells[k * len(letters) + j]`
    is the number of the neighbor of vertex k along `letters[j]`, or None.
    `boundary` holds the tokens at distance exactly `radius`. The
    constructor checks and numbers (src, label, dst) edges, label 1..r or
    STAR (a star edge possibly recorded both ways)."""

    def __init__(self, rank, radius, root, vertices, edges, boundary):
        edges, vertices = list(edges), tuple(vertices)
        labels = {label for _, label, _ in edges}
        letters = [l for i in sorted(labels - {STAR}) for l in (i, -i)]
        if letters and not 1 <= letters[0] <= letters[-2] <= rank:
            raise DomainError("edge labels must lie in 1..rank or be STAR")
        letters += [STAR] * (STAR in labels)
        column = {l: j for j, l in enumerate(letters)}
        rows = {v: [None] * len(letters) for v in vertices}  # token -> tokens
        if len(rows) < len(vertices):
            twice = next(v for k, v in enumerate(vertices) if vertices.index(v) < k)
            raise DomainError(f"vertex {quote(twice)} is listed twice")
        for what, v in [("root", root), *[("boundary token", v) for v in boundary]]:
            if v not in rows:
                raise DomainError(f"{what} {quote(v)} is not a vertex")
        for src, label, dst in edges:
            a, b, j = rows.get(src), rows.get(dst), column[label]
            if a is None or b is None:
                raise DomainError(f"edge endpoint {quote(src if a is None else dst)} "
                                  "is not a vertex")
            if label == STAR:  # recorded once or both ways
                for v, w, row in ((src, dst, a), (dst, src, b)):
                    if row[j] not in (None, w):
                        raise DomainError(f"vertex {quote(v)} is incident to two star edges")
                    row[j] = w
                continue
            if a[j] is not None:
                raise InvalidGraphError(f"two outgoing s{label}-edges at {quote(src)}")
            if b[j + 1] is not None:
                raise InvalidGraphError(f"two incoming s{label}-edges at {quote(dst)}")
            a[j], b[j + 1] = dst, src
        number, depth, cells = bfs(root, lambda v, l: rows[v][column[l]], letters)
        if len(number) < len(rows):  # the unreached vertices go last, by token
            for v in sorted(rows.keys() - number.keys()):
                number[v] = len(number)
        for v in list(number)[len(depth):]:
            depth.append(None)
            cells += [w if w is None else number[w] for w in rows[v]]
        self._store(rank, radius, number, boundary, letters, depth, cells)

    def _store(self, rank, radius, vertices, boundary, letters, depth, cells):
        """Keep canonical fields, less the columns of labels on no edge."""
        n, width = len(depth), len(letters)
        keep = [j for j in range(0, width, 2) if cells[j::width].count(None) < n]
        if len(keep) * 2 < width:
            keep = [c for j in keep for c in ((j,) if letters[j] == STAR else (j, j + 1))]
            letters = [letters[j] for j in keep]
            cells = [cells[at + j] for at in range(0, n * width, width) for j in keep]
        self.rank, self.radius, self.depth, self.cells = rank, radius, depth, cells
        self.vertices, self.letters = tuple(vertices), tuple(letters)
        self.root, self.boundary = self.vertices[0], frozenset(boundary)
        return self

    @cached_property
    def index(self) -> dict:
        """Each token to its vertex number."""
        return dict(zip(self.vertices, range(len(self.vertices))))

    @property
    def edges(self) -> tuple:
        """(src, label, dst) records: vertex by vertex its s_i-edges, then
        each star edge once, smaller token first."""
        width, names, cells = len(self.letters), self.vertices, self.cells
        heads = [(l, cells[j::width]) for j, l in enumerate(self.letters)
                 if l != STAR and l > 0]
        out = [(v, l, names[m]) for k, v in enumerate(names)
               for l, column in heads if (m := column[k]) is not None]
        if self.has_stars():
            out += [(v, STAR, names[m]) for v, m in zip(names, cells[width - 1::width])
                    if m is not None and v <= names[m]]
        return tuple(out)

    def step(self, vertex, letter):
        """Neighbor along a letter or along the star edge (letter STAR);
        None where the view has no such edge."""
        k = self.index.get(vertex)
        if k is None or letter not in self.letters:
            return None
        m = self.cells[k * len(self.letters) + self.letters.index(letter)]
        return None if m is None else self.vertices[m]

    def has_stars(self) -> bool:
        return STAR in self.letters

    def is_complete(self) -> bool:
        """Every vertex has full degree: one in and one out per label."""
        full, width = 2 * self.rank, len(self.letters)
        return width - self.has_stars() == full and all(
            None not in self.cells[at:at + full]
            for at in range(0, len(self.cells), width))

    def to_oracle(self) -> FiniteOracle:
        if self.has_stars():
            raise DomainError("ball has star edges; not a Schreier graph")
        if not self.is_complete():
            raise DomainError("ball is not a complete finite Schreier graph")
        width = len(self.letters)
        perms = [self.cells[j::width] for j in range(0, width, 2)]
        return FiniteOracle.from_perms(perms, 0, self.vertices)


def validate_schreier_ball(view: BallView) -> None:
    """One-in/one-out-per-label on vertices off the boundary; at most one
    star edge per vertex anywhere, which a view's one STAR cell per vertex
    holds by construction. Raises InvalidGraphError on violation."""
    full, width = 2 * view.rank, len(view.letters)
    whole = width - view.has_stars() == full  # every label has its columns
    for k, v in enumerate(view.vertices):
        if v in view.boundary or whole and None not in view.cells[
                k * width:k * width + full]:
            continue
        for i in range(1, view.rank + 1):
            for l, way in ((i, "outgoing"), (-i, "incoming")):
                if view.step(v, l) is None:
                    raise InvalidGraphError(
                        f"interior vertex {v!r} lacks {way} s{i}-edge")


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
    """The radius-`radius` view around `root`, from the cells of one `bfs`
    along `step` over the 2r letters, plus STAR when `star` (the star
    partner of a vertex, or None) is given. Vertices are named by `token`;
    raises InvalidGraphError unless the names are distinct. `succ(v, l)`
    (`step` unchecked along s_i and `star` along STAR, or None for a vertex
    outside the ball) is asked only for the s_i and STAR cells a boundary
    vertex lacks, and fills the cells at both ends of an edge it names."""
    if radius < 0:
        raise DomainError("radius must be >= 0")
    letters = letters_ordered(rank) + [STAR] * (star is not None)
    walk = step if star is None else (
        lambda v, l: star(v) if l == STAR else step(v, l))
    number, depth, cells = bfs(root, walk, letters, radius, budget)
    tok = [token(v) for v in number]
    if len(set(tok)) != len(tok):
        raise InvalidGraphError("oracle tokens are not injective")
    width = len(letters)
    outer = bisect_left(depth, radius)  # the layer bfs did not expand
    for k, v in enumerate(list(number)[outer:], outer):
        for j in range(0, width, 2):
            at = k * width + j
            if cells[at] is None:
                m = number.get(succ(v, letters[j]))
                if m is not None:
                    back = m * width + j + (letters[j] != STAR)
                    if cells[back] is not None:
                        raise InvalidGraphError(f"steps at {tok[m]!r} do not pair up")
                    cells[at], cells[back] = m, k
    return BallView.__new__(BallView)._store(rank, radius, tok, tok[outer:],
                                             letters, depth, cells)


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
    """Radius-`radius` ball of a stored view around its root (star edges
    count as length-1 steps): the prefix of its vertices within `radius`,
    with every edge among them. Raises HorizonError past the stored radius
    of a view with a boundary."""
    if radius < 0:
        raise DomainError("radius must be >= 0")
    if radius > view.radius and view.boundary:
        raise HorizonError(f"stored ball has radius {view.radius}, need {radius}")
    depth = view.depth[:len(view.depth) - view.depth.count(None)]
    n = bisect_right(depth, radius)
    cells = [None if c is None or c >= n else c
             for c in view.cells[:n * len(view.letters)]]
    return BallView.__new__(BallView)._store(
        view.rank, radius, view.vertices[:n],
        view.vertices[bisect_left(depth, radius, 0, n):n], view.letters,
        depth[:n], cells)
