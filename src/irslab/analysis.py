"""Comparisons and invariants of rooted labeled graphs: rooted isomorphism,
the local metric, cylinder fingerprints, automorphism counting and the
normalizer-element predicate.

Deterministic labeled graphs admit at most one root-isomorphism, so every
comparison here is a parallel traversal from the two roots, not a search.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .oracles import (
    BallView,
    FiniteOracle,
    SchreierOracle,
    ball,
    bfs,
    conjugate,
    contains,
)
from .words import (
    Word,
    conjugated_word,
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
    """Root-isomorphism of two *finite* oracles by full parallel closure."""
    if a.rank != b.rank:
        return False
    ls = letters_ordered(a.rank)
    fwd = {a.root: b.root}
    bwd = {b.root: a.root}
    stack = [(a.root, b.root)]
    while stack:
        u, v = stack.pop()
        for l in ls:
            ua = a.neighbor(u, l)
            vb = b.neighbor(v, l)
            if fwd.get(ua, vb) != vb or bwd.get(vb, ua) != ua:
                return False
            if ua not in fwd:
                fwd[ua] = vb
                bwd[vb] = ua
                stack.append((ua, vb))
    return True


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


def aut_count(graph) -> int:
    """Number of vertices whose rebasing is root-isomorphic to the graph;
    equals the order of its label-preserving automorphism group, i.e. the
    index of the subgroup in its normalizer."""
    oracle = graph.to_oracle() if isinstance(graph, BallView) else graph
    if not isinstance(oracle, FiniteOracle):
        raise DomainError("aut_count needs a complete finite Schreier graph")
    count = 0
    for v in oracle.vertices:
        if rooted_equal_finite(oracle.rebased(v), oracle):
            count += 1
    return count


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
    dist = bfs(oracle.root, oracle.neighbor, letters_ordered(oracle.rank))
    order = {v: i for i, v in enumerate(dist)}
    rows = tuple(
        tuple(order[oracle.neighbor(v, j)] for j in range(1, oracle.rank + 1))
        for v in dist
    )
    return (oracle.rank, len(dist), rows)


def oracle_from_code(code: tuple) -> FiniteOracle:
    rank, n, rows = code
    names = [str(i) for i in range(n)]
    succ = {}
    for v in range(n):
        for j in range(1, rank + 1):
            succ[(names[v], j)] = names[rows[v][j - 1]]
    return FiniteOracle(rank, names, names[0], succ)


def conjugate_code(code: tuple, g: Word) -> tuple:
    """Canonical code of the conjugated (rebased) finite graph."""
    return canonical_code(conjugate(oracle_from_code(code), g))
