"""Shared test fixtures data and independent brute-force oracles.

The brute-force routines deliberately avoid the library's algorithms so
that tests cross-check two separate code paths. The last section holds
word maps, file writers and random data that only the tests use.
"""

import itertools
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations, takewhile

from irslab.analysis import array_code, canonical_code, code_action
from irslab.encoding import (PsiOracle, SubshiftSpace, encoded_root_key,
                             point_class_code)
from irslab.errors import BudgetError, DomainError, HorizonError, InvalidGraphError
from irslab.measures import AtomicMeasure
from irslab.normalizer import MarkLaw, NormalizerOracle
from irslab.oracles import (DEFAULT_BUDGET, STAR, BallView, FiniteAction,
                            FiniteOracle, SchreierOracle, conjugate, trace)
from irslab.randomness import KeyedRng
from irslab.words import inverse_word, letters_ordered, reduce_word, words_upto


def brute_reduce(letters):
    """Repeated-scan free reduction: rescan until no adjacent cancellation."""
    word = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i] == -word[i + 1]:
                del word[i:i + 2]
                changed = True
                break
    return tuple(word)


def brute_root_isomorphic(a: BallView, b: BallView) -> bool:
    """Exhaustive search over root-fixing vertex bijections."""
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False

    def norm(view):
        out = set()
        for src, label, dst in view.edges:
            if label == STAR:
                out.add((min(src, dst), STAR, max(src, dst)))
            else:
                out.add((src, label, dst))
        return out

    ea, eb = norm(a), norm(b)
    others_a = [v for v in a.vertices if v != a.root]
    others_b = [v for v in b.vertices if v != b.root]
    for perm in permutations(others_b):
        mapping = dict(zip(others_a, perm))
        mapping[a.root] = b.root
        mapped = set()
        for src, label, dst in ea:
            if label == STAR:
                x, y = mapping[src], mapping[dst]
                mapped.add((min(x, y), STAR, max(x, y)))
            else:
                mapped.add((mapping[src], label, mapping[dst]))
        if mapped == eb:
            return True
    return False


def reference_word_to_str(w) -> str:
    """Printable word, one f-string per letter."""
    if not w:
        return "e"
    return "*".join([f"s{l}" if l > 0 else f"s{-l}^-1" for l in w])


def brute_aut_count(oracle: FiniteOracle) -> int:
    """Count label-preserving automorphisms by exhaustive bijection search."""
    verts = list(oracle.vertices)
    count = 0
    for perm in permutations(verts):
        mapping = dict(zip(verts, perm))
        ok = True
        for v in verts:
            for i in range(1, oracle.rank + 1):
                if mapping[oracle.neighbor(v, i)] != oracle.neighbor(mapping[v], i):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def index2_oracle() -> FiniteOracle:
    """s1 swaps the two cosets, s2 fixes both: an index-2 normal subgroup."""
    return FiniteOracle.from_perms([(1, 0), (0, 1)], names=["A", "B"])


def one_vertex_oracle() -> FiniteOracle:
    """The whole group as a subgroup of itself: one vertex, all loops."""
    return FiniteOracle.from_perms([(0,), (0,)], names=["v"])


def cyclic_oracle(n: int, shift2: int = 1) -> FiniteOracle:
    """Vertex-transitive graph on Z/n: s1 adds 1, s2 adds shift2."""
    p1 = tuple((i + 1) % n for i in range(n))
    p2 = tuple((i + shift2) % n for i in range(n))
    return FiniteOracle.from_perms([p1, p2])


class Counting(SchreierOracle):
    """Forwards to an oracle and counts each (vertex, letter) asked."""

    def __init__(self, inner):
        self.inner = inner
        self.rank = inner.rank
        self.root = inner.root
        self.asked = Counter()

    def neighbor(self, vertex, letter):
        self.asked[vertex, letter] += 1
        return self.inner.neighbor(vertex, letter)

    def token(self, vertex):
        return self.inner.token(vertex)


# -- the lazy-oracle path of exact enumeration, kept as a reference ----------


def reference_aut_count(oracle: FiniteOracle) -> int:
    """Count the vertices v for which a parallel walk from the root and
    from v never contradicts itself: one dict-based walk per vertex."""
    count = 0
    for v in oracle.vertices:
        fwd = {oracle.root: v}
        bwd = {v: oracle.root}
        stack = [(oracle.root, v)]
        ok = True
        while stack and ok:
            a, b = stack.pop()
            for l in letters_ordered(oracle.rank):
                x, y = oracle.neighbor(a, l), oracle.neighbor(b, l)
                if fwd.get(x, y) != y or bwd.get(y, x) != x:
                    ok = False
                    break
                if x not in fwd:
                    fwd[x] = y
                    bwd[y] = x
                    stack.append((x, y))
        count += ok
    return count


def reference_oracle_from_code(code: tuple) -> FiniteOracle:
    rank, n, rows = code
    return FiniteOracle.from_perms(
        [[rows[v][j] for v in range(n)] for j in range(rank)])


def reference_conjugate_code(code: tuple, g) -> tuple:
    return canonical_code(conjugate(reference_oracle_from_code(code), g))


def _mark_tables(base: FiniteOracle, p):
    """Every mark table of a finite base as a dict, with its probability
    as a product over the vertices."""
    law = MarkLaw(Fraction(p), base.rank)
    for marks in itertools.product(range(base.rank + 1),
                                   repeat=len(base.vertices)):
        table = dict(zip(base.vertices, marks))
        prob = Fraction(1)
        for v, m in table.items():
            prob *= law.masses(at_root=v == base.root)[m]
        yield table, prob


def reference_normalizer_law(base: FiniteOracle, p,
                             biased_root_slot=None) -> AtomicMeasure:
    """enumerate_normalizer_law through one lazy NormalizerOracle per mark
    table and root slot."""
    measure = AtomicMeasure()
    for table, prob in _mark_tables(base, p):
        if biased_root_slot is not None:
            slots = (biased_root_slot,)
        elif table[base.root]:
            slots, prob = (0, 1, 2), prob / 3
        else:
            slots = (0,)
        for slot in slots:
            oracle = NormalizerOracle(base, table.__getitem__, slot)
            measure.add(canonical_code(oracle), prob)
    return measure


def reference_aut_trivial_mass(base: FiniteOracle, p) -> Fraction:
    total = Fraction(0)
    for table, prob in _mark_tables(base, p):
        oracle = NormalizerOracle(base, table.__getitem__, 0)
        code = canonical_code(oracle)
        if reference_aut_count(reference_oracle_from_code(code)) == 1:
            total += prob
    return total


# -- the dict-keyed fingerprint walk, kept as a reference --------------------


def reference_walk_table(root, step, rank: int, length: int) -> dict:
    """The end vertex of the walk from `root` of each reduced word of length
    <= `length`, keyed by word in shortlex order. `step(v, letter)` gives
    the neighbor. `words_upto` lists each word's prefix before the word, so
    one step per word fills the table."""
    ends = {}
    for w in words_upto(rank, length):
        ends[w] = step(ends[w[:-1]], w[-1]) if w else root
    return ends


def reference_conjugate_fingerprints(root, step, rank: int, radius: int) -> tuple:
    """(fp, conj): the cylinder fingerprint of the stabilizer K of `root`
    and, keyed by each letter l, that of l K l^-1, from one walk table of
    length radius + 1. l K l^-1 contains w iff the walk of l^-1 w ends at
    the walk of l^-1; walks do not depend on reduction, so for w = l u
    that is the walk of u."""
    if radius < 0:
        raise DomainError("radius must be >= 0")
    ends = reference_walk_table(root, step, rank, radius + 1)
    words = list(takewhile(lambda w: len(w) <= radius, ends))
    fp = tuple(w for w in words if ends[w] == root)
    conj = {}
    for l in letters_ordered(rank):
        at = ends[(-l,)]
        conj[l] = tuple(w for w in words
                        if ends[w[1:] if w and w[0] == l else (-l,) + w] == at)
    return fp, conj


# -- the two-pass ball builder, kept as a reference --------------------------


def reference_bfs(root, step, letters, radius=None, budget=None) -> dict:
    """Breadth-first distances from `root`, in discovery order: every
    expanded vertex is stepped along every letter, with no rows."""
    dist = {root: 0}
    queue = [root]
    for v in queue:
        d = dist[v]
        if d == radius:
            break
        for l in letters:
            w = step(v, l)
            if w is not None and w not in dist:
                dist[w] = d + 1
                queue.append(w)
                if budget is not None and len(queue) > budget:
                    raise BudgetError(f"ball exploration exceeded budget {budget}")
    return dist


def reference_grow_view(root, step, succ, rank, radius, token, star=None,
                        budget=None) -> BallView:
    """`grow_view` as a BFS followed by a second pass that steps every
    vertex again for its s_i-edges and its star edge."""
    if radius < 0:
        raise DomainError("radius must be >= 0")
    letters = letters_ordered(rank)
    walk = step
    if star is not None:
        letters.append(STAR)

        def walk(v, l):
            return star(v) if l == STAR else step(v, l)

    dist = reference_bfs(root, walk, letters, radius, budget)
    tok = {v: token(v) for v in dist}
    if len(set(tok.values())) != len(tok):
        raise InvalidGraphError("oracle tokens are not injective")
    edges = []
    for v in dist:
        for i in range(1, rank + 1):
            w = succ(v, i)
            if w in dist:
                edges.append((tok[v], i, tok[w]))
    if star is not None:
        for v in dist:
            w = star(v)
            if w in dist and tok[v] < tok[w]:
                edges.append((tok[v], STAR, tok[w]))
    boundary = [tok[v] for v, d in dist.items() if d == radius]
    return BallView(rank, radius, tok[root], tok.values(), edges, boundary)


def reference_ball(oracle, radius: int, budget: int = DEFAULT_BUDGET) -> BallView:
    def step(v, l):
        w = oracle.neighbor(v, l)
        if oracle.neighbor(w, -l) != v:
            raise InvalidGraphError(
                f"permutation property fails at {oracle.token(v)} (letter {l})")
        return w

    return reference_grow_view(oracle.root, step, oracle.neighbor, oracle.rank,
                               radius, oracle.token, budget=budget)


def reference_star_ball(graph, radius: int, budget: int = DEFAULT_BUDGET) -> BallView:
    return reference_grow_view(graph.root, graph.step, graph.step, graph.rank,
                               radius, graph.token, graph.star, budget)


def reference_sub_ball(view: BallView, radius: int) -> BallView:
    if radius > view.radius and view.boundary:
        raise HorizonError(f"stored ball has radius {view.radius}, need {radius}")
    return reference_grow_view(view.root, view.step, view.step, view.rank,
                               radius, str,
                               (lambda v: view.step(v, STAR))
                               if view.has_stars() else None)


def reference_ball_code(view: BallView) -> tuple:
    """`ball_code` from a BFS along the 2r letters and STAR, and a second
    pass that steps every vertex again along each label."""
    labels = list(range(1, view.rank + 1)) + [STAR] * view.has_stars()
    letters = letters_ordered(view.rank) + [STAR]
    order = list(reference_bfs(view.root, view.step, letters))
    if len(order) != len(view.vertices):
        raise DomainError("view is not connected from its root")
    number = {v: k for k, v in enumerate(order)}
    rows = tuple(tuple(number.get(view.step(v, l)) for l in labels)
                 for v in order)
    return (view.rank, len(order), rows)


# -- the word-walk translate pushforward, kept as a reference ---------------


def reference_lambda_pushforward(space, eta=None):
    """`lambda_pushforward` by listing every translate: the root of each
    reduced word f of length <= alphabet is trace(psi, f^-1), and a root
    retracts by the first translate in `words_upto` order that reaches a
    Cayley vertex. Returns (measure, reps) as the library does."""
    n = space.action.n
    eta = {q: Fraction(1, n) if eta is None else Fraction(eta[q])
           for q in range(n)}
    classes = {}
    for q in range(n):
        rec = classes.setdefault(point_class_code(space, q), [q, 0])
        rec[1] += eta[q]
    translates = words_upto(space.rank, space.alphabet)
    lam, reps = AtomicMeasure(), {}
    for pc, (q, mass) in sorted(classes.items()):
        if mass == 0:
            continue
        psi, seen = PsiOracle(space.point(q)), set()
        for f in translates:
            u = trace(psi, inverse_word(f))
            key = encoded_root_key(space, u)
            if key in seen:
                continue
            seen.add(key)
            ends = (trace(psi.rebased(u), inverse_word(g)) for g in translates)
            v = next(v for v in ends if v[0] == "c")
            if encoded_root_key(space, v) == ("cay", 0, pc):
                lam.add(key, mass)
                reps.setdefault(key, (q, u))
    return lam, reps


# -- the recursive key encoder of the keyed draws, kept as a reference -------


def token_bytes(obj) -> bytes:
    """Canonical, injective byte encoding of an exact int, an exact str or
    an exact tuple of keys; any other key, subclasses among them, raises
    TypeError."""
    if type(obj) is int:
        return b"i" + str(obj).encode() + b";"
    if type(obj) is str:
        data = obj.encode()
        return b"s" + str(len(data)).encode() + b":" + data
    if type(obj) is tuple:
        return b"(" + b"".join(token_bytes(x) for x in obj) + b")"
    raise TypeError(f"cannot encode {type(obj).__name__} as a hash key")


def outcome(fn, *args):
    """(value, None) if fn(*args) returns, (None, exception type) if it
    raises: two code paths agree when their outcomes are equal."""
    try:
        return fn(*args), None
    except Exception as exc:  # the type is compared, not the message
        return None, type(exc)


# -- word maps, writers and random data that only the tests need -------------


def point_symbol(x, g) -> int:
    """The symbol of the configuration `x` (a SubshiftPoint) at g."""
    return x.space.labels[x.space.action.act(x.basepoint, g)]


def point_pattern(x, radius: int) -> dict:
    """The symbols of `x` at every reduced word of length <= radius, in
    shortlex order."""
    return {g: point_symbol(x, g) for g in words_upto(x.space.rank, radius)}


def atom_mass(measure: AtomicMeasure, key) -> Fraction:
    return measure.data.get(key, Fraction(0))


def atom_keys(measure: AtomicMeasure):
    return measure.data.keys()


def contains(oracle: SchreierOracle, w) -> bool:
    """Word membership in the subgroup represented by the oracle."""
    return trace(oracle, reduce_word(w)) == oracle.root


def concat(*words):
    return reduce_word(chain.from_iterable(words))


def conjugated_word(g, w):
    """g w g^-1, reduced."""
    return concat(g, w, inverse_word(g))


def phi_inverse_word(w):
    """Partial inverse of phi_word; None when w has an odd run of s1-letters
    (i.e. w is not in the subgroup generated by s1^2, s2, ..., s_r)."""
    out: list[int] = []
    i = 0
    while i < len(w):
        l = w[i]
        if abs(l) == 1:
            j = i
            while j < len(w) and w[j] == l:
                j += 1
            run = j - i
            if run % 2 != 0:
                return None
            out.extend([l] * (run // 2))
            i = j
        else:
            out.append(l)
            i += 1
    return tuple(out)


def conjugate_code(code: tuple, g) -> tuple:
    """Canonical code of the conjugated (rebased) finite graph: the root
    moves along g^-1. The int-array path of `reference_conjugate_code`."""
    action = code_action(code)
    v = 0
    for l in inverse_word(g):
        if not 0 < abs(l) <= code[0]:
            raise DomainError(f"letter {l} out of range for rank {code[0]}")
        v = action.step(v, l)
    moved = array_code(action.perms, v)
    if moved[1] != code[1]:
        raise DomainError("graph is not connected from the root")
    return moved


def pushforward(measure: AtomicMeasure, fn) -> AtomicMeasure:
    """The measure of fn(k) for k drawn from `measure`."""
    out = AtomicMeasure()
    for k, m in measure.data.items():
        out.add(fn(k), m)
    return out


def format_cycles(perm: tuple) -> str:
    n = len(perm)
    seen = set()
    parts = []
    for i in range(n):
        if i in seen or perm[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        seen.add(i)
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "id"


def emit_action(action: FiniteAction) -> str:
    """An action file (README, "File formats") that `parse_action` reads."""
    lines = [f"points {action.n}"]
    for i, p in enumerate(action.perms, start=1):
        lines.append(f"perm s{i}: {format_cycles(p)}")
    return "\n".join(lines) + "\n"


def random_subshift_space(n_points: int, rank: int, alphabet: int,
                          seed: int) -> SubshiftSpace:
    rng = KeyedRng(seed, "subshift")
    perms = tuple(rng.permutation(n_points) for _ in range(rank))
    labels = tuple(1 + rng.randrange(alphabet) for _ in range(n_points))
    return SubshiftSpace(FiniteAction(n_points, perms), labels, alphabet)


def emit_subshift(space: SubshiftSpace, basepoint: int = 0) -> str:
    """A subshift file that `parse_subshift` reads."""
    labels = "".join(f"label {q} {s}\n" for q, s in enumerate(space.labels))
    return (f"alphabet {space.alphabet}\n" + emit_action(space.action)
            + labels + f"basepoint {basepoint}\n")


# -- surgery on explicit balls: the reference of PoulsenOracle's lazy one ----


def star_records(view: BallView) -> tuple:
    """Star edges of a view as sorted (v, w) pairs with v <= w."""
    return tuple(sorted((v, w) for v, l, w in view.edges if l == STAR))


def _swap_s1(view: BallView, pairs, keep_stars: bool) -> BallView:
    partner = {}
    for v, w in pairs:
        if v in partner or w in partner:
            raise DomainError("a vertex appears in two star records")
        partner[v] = w
        partner[w] = v
    for v in partner:
        if view.step(v, 1) is None:
            raise DomainError(f"starred vertex {v!r} lacks its outgoing "
                              "s1-edge; surgery needs all four implicated edges")
    edges = [e for e in view.edges if e[1] != STAR and e[1] != 1]
    edges += [(v, 1, w) for v in view.vertices
              if (w := view.step(partner.get(v, v), 1)) is not None]
    if keep_stars:
        edges += [(v, STAR, w) for v, w in pairs]
    return BallView(view.rank, view.radius, view.root, view.vertices,
                    edges, view.boundary)


def surgery(view: BallView) -> BallView:
    """Consume every star edge {v, w}: replace (v, v.s1) and (w, w.s1) by
    (v, w.s1) and (w, v.s1). The output has no star edges. Up to the
    retained star records this is an involution; `inverse_surgery` undoes it."""
    return _swap_s1(view, star_records(view), keep_stars=False)


def inverse_surgery(view: BallView, records) -> BallView:
    """Undo a surgery given its star records: swap the same s1-successor
    pairs back and restore the star edges."""
    return _swap_s1(view, tuple(records), keep_stars=True)
