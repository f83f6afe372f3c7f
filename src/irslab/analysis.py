"""Comparisons and invariants of rooted labeled graphs: rooted isomorphism,
the local metric, cylinder fingerprints and automorphism counting.

Deterministic labeled graphs admit at most one root-isomorphism, so a
rooted graph has a canonical code, its successor table under BFS numbering
from the root, and every comparison here is code equality, not a search.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import BudgetError, DomainError, InvalidGraphError
from .oracles import (STAR, BallView, DEFAULT_BUDGET, FiniteAction,
                      FiniteOracle, SchreierOracle, ball, bfs)
from .words import (Word, inverse_word, letters_ordered, reduce_word,
                    word_count, words_upto)


def root_isomorphic(a: BallView, b: BallView) -> bool:
    """Label- and direction-preserving isomorphism matching roots; star
    edges are matched as undirected: equal ball codes. Requires equal
    radii and views connected from their roots."""
    if a.radius != b.radius:
        raise DomainError("root_isomorphic needs balls of equal radius")
    return ball_code(a) == ball_code(b)


def rooted_equal_finite(a: SchreierOracle, b: SchreierOracle) -> bool:
    """Root-isomorphism of two *finite* oracles: equal canonical codes."""
    return canonical_code(a) == canonical_code(b)


def metric(a: SchreierOracle, b: SchreierOracle, max_radius: int,
           budget: int = DEFAULT_BUDGET) -> Fraction:
    """Local distance 1/(n+1), n = smallest radius at which the two balls
    are not root-isomorphic; 0 if they agree up to max_radius (callers may
    report that case as "<= 1/(max_radius+2)")."""
    if max_radius < 0:
        raise DomainError("max_radius must be >= 0")
    for n in range(max_radius + 1):
        if not root_isomorphic(ball(a, n, budget), ball(b, n, budget)):
            return Fraction(1, n + 1)
    return Fraction(0)


@lru_cache(maxsize=32)
def fingerprint_plan(rank: int, radius: int, conjugates: bool) -> tuple:
    """(steps, tests): for the stabilizer K of a root and, with `conjugates`,
    for each l K l^-1 in the order of `letters_ordered(rank)`, a tuple of
    triples (w, a, b), one per w of `words_upto(rank, radius)`. A Schreier
    graph is a permutation action, so c = u v is in K iff the walks of u
    and v^-1 end at one vertex, and w is in l K l^-1 iff
    c = reduce(l^-1 w l) is in K: a and b are the positions of u and v^-1
    in `words_upto(rank, h)`, |u| = ceil(|c| / 2), and h is the longest u.
    steps[k - 1] is (position of the k-th of those words without its last
    letter, that letter), so one step per word walks them all. More than
    DEFAULT_BUDGET words raise BudgetError before any is listed."""
    if radius < 0:
        raise DomainError("radius must be >= 0")
    if word_count(rank, radius, DEFAULT_BUDGET) is None:
        raise BudgetError(f"fingerprint words exceed budget {DEFAULT_BUDGET}")
    words = words_upto(rank, radius)
    tested = [words]
    if conjugates:
        tested += [[reduce_word((-l,) + w + (l,)) for w in words]
                   for l in letters_ordered(rank)]

    def split(c):
        half = (len(c) + 1) // 2
        return c[:half], inverse_word(c[half:])

    splits = [list(map(split, cs)) for cs in tested]
    h = max(len(u) for split in splits for u, _ in split)
    walked = words_upto(rank, h)
    at = {w: k for k, w in enumerate(walked)}
    return (tuple((at[w[:-1]], w[-1]) for w in walked[1:]),
            tuple(tuple((w, at[u], at[v]) for w, (u, v) in zip(words, split))
                  for split in splits))


def walk_fingerprints(root, step, rank: int, radius: int,
                      conjugates: bool = False) -> list:
    """The fingerprints of `fingerprint_plan(rank, radius, conjugates)`
    for the stabilizer K of `root`: that of K, then with `conjugates` that
    of l K l^-1 for each letter l. `step(v, letter)` gives the neighbor;
    one walk over the words of length <= h decides every word."""
    steps, tests = fingerprint_plan(rank, radius, conjugates)
    ends = [root]
    for k, l in steps:
        ends.append(step(ends[k], l))
    return [tuple([w for w, a, b in test if ends[a] == ends[b]])
            for test in tests]


def cylinder_fingerprint(oracle: SchreierOracle, radius: int) -> tuple[Word, ...]:
    """Shortlex-sorted tuple of reduced words of length <= radius that the
    subgroup contains. The subgroup lies in the cylinder C(F, radius) iff
    this equals F. Each word is split in halves, so only the walks of
    length <= ceil(radius / 2) are taken: at rank 2, 4 steps for radius 2
    and 16 for radius 3."""
    return walk_fingerprints(oracle.root, oracle.neighbor, oracle.rank,
                             radius)[0]


def conjugate_fingerprints(root, step, rank: int, radius: int) -> tuple:
    """(fp, conj): the cylinder fingerprint of the stabilizer K of `root`
    and, keyed by each letter l, that of l K l^-1. w is in l K l^-1 iff
    l^-1 w l is in K, and each such word is split in halves, so one walk
    table of length at most ceil(radius / 2) + 1 decides all 2r + 1
    fingerprints: at rank 2, 16 steps for radius 1 or 2."""
    fp, *conj = walk_fingerprints(root, step, rank, radius, True)
    return fp, dict(zip(letters_ordered(rank), conj))


def aut_count(oracle: FiniteOracle) -> int:
    """Number of vertices whose rebasing is root-isomorphic to the graph;
    equals the order of its label-preserving automorphism group, i.e. the
    index of the subgroup in its normalizer."""
    if not isinstance(oracle, FiniteOracle):
        raise DomainError("aut_count needs a complete finite Schreier graph")
    return 1 + sum(1 for _ in automorphisms(oracle.action.perms))


def aut_trivial(succ) -> bool:
    """Whether a finite connected Schreier graph, given as one successor
    list per letter, has no automorphism but the identity."""
    return next(automorphisms(succ), None) is None


def automorphisms(succ):
    """Yield each automorphism but the identity of a finite connected
    Schreier graph, given as one successor list per letter, as its list of
    vertex images.

    Automorphisms act freely and map the s_i-loops onto themselves, so an
    anchor is taken from the smallest nonempty set of s_i-loops and only
    the other vertices of that set are tried as its image. Positive letters
    reach every vertex of a finite connected Schreier graph, and a
    label-preserving map between two rootings of one finite transitive
    graph is onto, so following successors from the anchor either builds
    the whole map or meets a contradiction."""
    n = len(succ[0])
    loops = [[u for u, w in enumerate(s) if u == w] for s in succ]
    images = min(filter(None, loops), key=len, default=range(n))
    anchor = images[0]
    for v in images[1:]:
        image = [-1] * n
        image[anchor] = v
        stack = [anchor]
        while stack:
            u = stack.pop()
            x = image[u]
            for s in succ:
                a = s[u]
                seen = image[a]
                if seen < 0:
                    image[a] = s[x]
                    stack.append(a)
                elif seen != s[x]:
                    stack = image = None  # no automorphism sends anchor to v
                    break
        if image:
            yield image


def bfs_numbering(root, step, letters) -> tuple[list, tuple]:
    """(order, rows): the vertices reachable from `root` in the discovery
    order of `bfs` along `letters` (those of `letters_ordered`), and for
    each one a tuple with the number of its neighbor along each of s1..sr,
    or None where `step(v, letter)` gives None."""
    number, _, cells = bfs(root, step, letters)
    width = len(letters)
    return list(number), tuple([tuple(cells[at:at + width:2])
                                for at in range(0, len(cells), width)])


def canonical_code(oracle: SchreierOracle) -> tuple:
    """Canonical form of a complete finite rooted Schreier graph: successor
    tables under BFS numbering from the root. Equal codes <=> root-isomorphic.
    The oracle must be finite (the BFS must terminate)."""
    rank = oracle.rank
    order, rows = bfs_numbering(oracle.root, oracle.neighbor,
                                letters_ordered(rank))
    return (rank, len(order), rows)


def ball_code(view: BallView) -> tuple:
    """Canonical form of a rooted view: (rank, n, rows) in its BFS
    numbering; each row holds the s1..sr successors (None where absent),
    then the star partner when the view has star edges. Equals
    `canonical_code(view.to_oracle())` on a complete view without stars.
    Raises DomainError unless every vertex is reachable from the root."""
    if None in view.depth:
        raise DomainError("view is not connected from its root")
    n, width, heads = len(view.vertices), len(view.letters), view.letters[::2]
    at = [2 * heads.index(l) if l in heads else None  # no column: no edge
          for l in (*range(1, view.rank + 1), *[STAR] * view.has_stars())]
    return (view.rank, n, tuple(
        tuple([None if j is None else view.cells[k * width + j] for j in at])
        for k in range(n)))


def array_code(succ, root: int) -> tuple:
    """Canonical code of the component of `root` in a finite graph on
    vertices 0..n-1 given as one permutation per letter: successor tables
    under BFS numbering from the root, expanding along letters_ordered.
    The same code as `canonical_code`, kept as a path over int permutations
    because `enumerate_normalizer_law` calls it once per mark assignment and
    root slot, and the stabilizer functions of `actions` once per point."""
    steps = []
    for s in succ:
        steps += [s, sorted(range(len(s)), key=s.__getitem__)]  # s, s^-1
    number = [-1] * len(succ[0])
    number[root] = 0
    order = [root]
    for v in order:
        for step in steps:
            w = step[v]
            if number[w] < 0:
                number[w] = len(order)
                order.append(w)
    columns = [[number[s[v]] for v in order] for s in succ]
    return (len(succ), len(order), tuple(zip(*columns)))


def code_action(code: tuple) -> FiniteAction:
    """The action of a code's letters on its vertices. Raises
    InvalidGraphError unless the rows form an n x rank table (and, through
    FiniteAction, unless every letter permutes the vertices)."""
    rank, n, rows = code
    if len(rows) != n or set(map(len, rows)) - {rank}:
        raise InvalidGraphError(f"code rows do not form an {n} x {rank} table")
    return FiniteAction(n, tuple(zip(*rows)))


def oracle_from_code(code: tuple) -> FiniteOracle:
    return FiniteOracle(code_action(code))
