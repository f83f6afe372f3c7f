"""Comparisons and invariants of rooted labeled graphs: rooted isomorphism,
the local metric, cylinder fingerprints, automorphism counting and the
normalizer-element predicate.

Deterministic labeled graphs admit at most one root-isomorphism, so every
comparison here is a parallel traversal from the two roots, not a search.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, InvalidGraphError
from .oracles import (
    BallView,
    FiniteAction,
    FiniteOracle,
    SchreierOracle,
    ball,
    bfs,
    contains,
)
from .words import (
    Word,
    check_letter,
    conjugated_word,
    inverse_word,
    iter_reduced_extensions,
    letters_ordered,
    reduce_word,
    shortlex_key,
)

Z_NO = "no"
Z_CONSISTENT = "consistent-up-to-radius"


def root_isomorphic(a: BallView, b: BallView) -> bool:
    """Label- and direction-preserving isomorphism matching roots; star
    edges are matched as undirected. Requires equal radii."""
    if a.radius != b.radius:
        raise DomainError("root_isomorphic needs balls of equal radius")
    if a.rank != b.rank or len(a.vertices) != len(b.vertices):
        return False
    if len(a.edges) != len(b.edges):
        return False
    fwd = {a.root: b.root}
    bwd = {b.root: a.root}
    stack = [(a.root, b.root)]
    while stack:
        u, v = stack.pop()
        pairs = []
        for i in range(1, a.rank + 1):
            for table_a, table_b in ((a.out, b.out), (a.inc, b.inc)):
                ua = table_a.get((u, i))
                vb = table_b.get((v, i))
                if (ua is None) != (vb is None):
                    return False
                if ua is not None:
                    pairs.append((ua, vb))
        sa, sb = a.star.get(u), b.star.get(v)
        if (sa is None) != (sb is None):
            return False
        if sa is not None:
            pairs.append((sa, sb))
        for ua, vb in pairs:
            if fwd.get(ua, vb) != vb or bwd.get(vb, ua) != ua:
                return False
            if ua not in fwd:
                fwd[ua] = vb
                bwd[vb] = ua
                stack.append((ua, vb))
    return len(fwd) == len(a.vertices)


def rooted_equal_finite(a: SchreierOracle, b: SchreierOracle) -> bool:
    """Root-isomorphism of two *finite* oracles: equal canonical codes."""
    return canonical_code(a) == canonical_code(b)


def metric(a: SchreierOracle, b: SchreierOracle, max_radius: int,
           budget: int | None = None) -> Fraction:
    """Local distance 1/(n+1), n = smallest radius at which the two balls
    are not root-isomorphic; 0 if they agree up to max_radius (callers may
    report that case as "<= 1/(max_radius+2)")."""
    if max_radius < 0:
        raise DomainError("max_radius must be >= 0")
    kwargs = {} if budget is None else {"budget": budget}
    for n in range(max_radius + 1):
        if not root_isomorphic(ball(a, n, **kwargs), ball(b, n, **kwargs)):
            return Fraction(1, n + 1)
    return Fraction(0)


def cylinder_fingerprint(oracle: SchreierOracle, radius: int) -> tuple[Word, ...]:
    """Sorted tuple of reduced words of length <= radius that the subgroup
    contains. The subgroup lies in the cylinder C(F, radius) iff this equals
    F."""
    if radius < 0:
        raise DomainError("radius must be >= 0")
    root = oracle.root
    hits: list[Word] = [()]

    def walk(v, word: Word) -> None:
        for l in iter_reduced_extensions(word, oracle.rank):
            w = oracle.neighbor(v, l)
            nxt = word + (l,)
            if w == root:
                hits.append(nxt)
            if len(nxt) < radius:
                walk(w, nxt)

    if radius > 0:
        walk(root, ())
    return tuple(sorted(hits, key=shortlex_key))


def aut_count(oracle: FiniteOracle) -> int:
    """Number of vertices whose rebasing is root-isomorphic to the graph;
    equals the order of its label-preserving automorphism group, i.e. the
    index of the subgroup in its normalizer."""
    if not isinstance(oracle, FiniteOracle):
        raise DomainError("aut_count needs a complete finite Schreier graph")
    return 1 + sum(1 for _ in _moved_anchor(oracle.action.perms))


def aut_trivial(succ) -> bool:
    """Whether a finite connected Schreier graph, given as one successor
    list per letter, has no automorphism but the identity."""
    return next(_moved_anchor(succ), None) is None


def _moved_anchor(succ):
    """Yield the image of an anchor vertex under each automorphism but the
    identity. Automorphisms act freely and map the s_i-loops onto
    themselves, so the anchor is taken from the smallest nonempty set of
    s_i-loops and only the other vertices of that set are tried."""
    loops = [[u for u, w in enumerate(s) if u == w] for s in succ]
    images = min(filter(None, loops), key=len, default=range(len(succ[0])))
    for v in images[1:]:
        if _automorphic(succ, images[0], v):
            yield v


def _automorphic(succ, anchor: int, v: int) -> bool:
    """Whether an automorphism sends anchor to v. Positive letters reach
    every vertex of a finite connected Schreier graph, and a label-preserving
    map between two rootings of one finite transitive graph is onto, so
    following successors suffices."""
    image = [-1] * len(succ[0])
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
                return False
    return True


def z_set_member(oracle: SchreierOracle, g: Word, check_radius: int) -> str:
    """Truncated test of "g normalizes K but g is not in K".

    Returns Z_NO definitively when g is in K, or when some word w with
    |w| <= check_radius is in K while g w g^-1 is not. Otherwise returns
    Z_CONSISTENT: the property is closed but not decidable at finite radius.
    """
    g = reduce_word(g)
    if check_radius < len(g):
        raise DomainError("check_radius must be at least |g|")
    if contains(oracle, g):
        return Z_NO
    for w in cylinder_fingerprint(oracle, check_radius):
        if not contains(oracle, conjugated_word(g, w)):
            return Z_NO
    return Z_CONSISTENT


def canonical_code(oracle: SchreierOracle) -> tuple:
    """Canonical form of a complete finite rooted Schreier graph: successor
    tables under BFS numbering from the root. Equal codes <=> root-isomorphic.
    The oracle must be finite (the BFS must terminate)."""
    return array_code(_succ_lists(oracle), 0)


def _succ_lists(oracle: SchreierOracle) -> list:
    """One successor list per letter of a finite oracle, over its vertices
    numbered in BFS order from the root (so the root is 0)."""
    dist = bfs(oracle.root, oracle.neighbor, letters_ordered(oracle.rank))
    number = {v: k for k, v in enumerate(dist)}
    return [[number[oracle.neighbor(v, i)] for v in dist]
            for i in range(1, oracle.rank + 1)]


def array_code(succ, root: int) -> tuple:
    """Canonical code of the component of `root` in a finite graph on
    vertices 0..n-1 given as one permutation per letter: successor tables
    under BFS numbering from the root, expanding along letters_ordered."""
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


def conjugate_code(code: tuple, g: Word) -> tuple:
    """Canonical code of the conjugated (rebased) finite graph: the root
    moves along g^-1."""
    action = code_action(code)
    v = 0
    for l in inverse_word(g):
        check_letter(l, code[0])
        v = action.step(v, l)
    moved = array_code(action.perms, v)
    if moved[1] != code[1]:
        raise DomainError("graph is not connected from the root")
    return moved
