"""Symbolic configurations encoded as subgroups.

A configuration assigns a symbol in {1..n} to every group element. Its
encoded subgroup is read off a decorated Cayley graph: each edge (g, g.s1)
is subdivided and the new vertex carries an s2-labeled cycle whose length
is the symbol at g; the extra cycle vertices take s1-loops (and s_i-loops
for i >= 3, which also sit on the subdivision vertex). Walking a doubled
first generator therefore crosses one subdivision vertex per s1-step, and
the whole shift action is carried by the doubling endomorphism phi:
encode(f . x) = phi(f) . encode(x).

Configurations here are backed by finite actions with labeled points, so
the configuration space is closed, invariant and finite; this makes
membership in the encoded set decidable on encoded graphs and lets the
translate pushforward be computed with exact rational masses.
"""

from __future__ import annotations

from fractions import Fraction

from .actions import FiniteAction, read_action
from .errors import (AmbiguityError, BudgetError, DomainError, HorizonError,
                     NotInYError, NotInZError)
from .measures import AtomicMeasure
from .oracles import (DEFAULT_BUDGET, CayleyOracle, FiniteOracle,
                      SchreierOracle, ball, bfs, conjugate, trace)
from .analysis import ball_code, bfs_numbering
from .lines import MAX_DIGITS, bad_line, number, once, quote, records
from .words import (
    Word,
    inverse_word,
    letters_ordered,
    phi_word,
    shortlex_walk,
    word_count,
    word_to_str,
)


class SubshiftSpace:
    """A finite invariant configuration space: a labeled finite action.

    The configuration with basepoint q reads x(g) = label(q . g); shifting
    by f moves the basepoint to q . f^-1.
    """

    def __init__(self, action: FiniteAction, labels, alphabet: int):
        if action.rank < 2:
            raise DomainError("encoding needs rank >= 2")
        if alphabet < 1:
            raise DomainError("alphabet size must be >= 1")
        labels = tuple(labels)
        if len(labels) != action.n:
            raise DomainError("need one label per point")
        for s in labels:
            if not 1 <= s <= alphabet:
                raise DomainError(f"symbol {quote(str(s))} outside alphabet "
                                  f"{quote(f'1..{alphabet}')} (0 is illegal)")
        self.action = action
        self.labels = labels
        self.alphabet = alphabet
        self.rank = action.rank
        self.cayley = CayleyOracle(self.rank)  # shared by every PsiOracle
        self._codes: dict = {}
        self._pc: dict = {}

    def point(self, q: int) -> "SubshiftPoint":
        return SubshiftPoint(self, q)

    def candidate_codes(self, radius: int) -> frozenset:
        """Ball codes of every configuration's encoding at this radius."""
        got = self._codes.get(radius)
        if got is None:
            got = frozenset(ball_code(ball(PsiOracle(self.point(q)), radius))
                            for q in range(self.action.n))
            self._codes[radius] = got
        return got


class SubshiftPoint:
    def __init__(self, space: SubshiftSpace, basepoint: int):
        if not 0 <= basepoint < space.action.n:
            raise DomainError("basepoint out of range")
        self.space = space
        self.basepoint = basepoint

    def shifted(self, f: Word) -> "SubshiftPoint":
        """The configuration f . x: basepoint moves along f^-1."""
        q = self.space.action.act(self.basepoint, inverse_word(f))
        return SubshiftPoint(self.space, q)


class PsiOracle(SchreierOracle):
    """Lazy Schreier oracle of an encoded configuration: the decorated
    Cayley graph, walked on the numerals of the space's `CayleyOracle`.

    Vertices: ("c", n, x) for the Cayley copy of the word g with numeral n,
    ("y", n, x, j) for the j-th vertex of the cycle at the subdivision of
    (g, g.s1), 0 <= j < label(x); x = q . g is the point of g, so a step
    moves n along the Cayley graph and x along the action. Root: ("c", 0, q).
    """

    def __init__(self, point: SubshiftPoint):
        space = point.space
        self.rank = space.rank
        self.root = ("c", 0, point.basepoint)
        self._cayley = space.cayley
        self._step = space.action.step
        self._labels = space.labels

    def neighbor(self, vertex, letter: int):
        if vertex[0] == "c":
            _, n, x = vertex
            if letter == 1:
                return ("y", n, x, 0)
            m = self._cayley.neighbor(n, letter)
            if letter == -1:
                return ("y", m, self._step(x, -1), 0)
            return ("c", m, self._step(x, letter))
        _, n, x, j = vertex
        a = abs(letter)
        if a == 1:
            if j > 0:
                return vertex
            if letter == -1:
                return ("c", n, x)
            return ("c", self._cayley.neighbor(n, 1), self._step(x, 1))
        if a == 2:
            k = self._labels[x]
            return ("y", n, x, (j + 1) % k if letter == 2 else (j - 1) % k)
        return vertex

    def token(self, vertex) -> str:
        word = self._cayley.token(vertex[1])
        if vertex[0] == "c":
            return f"c({word})"
        return f"y({word};{vertex[3]})"


def translate_count(alphabet: int, rank: int) -> int:
    """The number of translates, the reduced words of length <= alphabet
    size: conjugating an encoded subgroup by these reaches every root of its
    orbit. BudgetError past MAX_DIGITS digits."""
    count = word_count(rank, alphabet, 10**MAX_DIGITS - 1)
    if count is None:
        raise BudgetError(f"translate count has more than {MAX_DIGITS} digits")
    return count


def in_Z(oracle: SchreierOracle, space: SubshiftSpace, radius: int) -> bool:
    """Truncated membership in the encoded set: the radius-`radius` ball
    must match the ball of some configuration's encoding. False is
    definitive; True is consistent-up-to-radius."""
    if radius < 2:
        raise DomainError("radius must be >= 2 to see the cycle structure")
    return ball_code(ball(oracle, radius)) in space.candidate_codes(radius)


def upsilon(oracle: SchreierOracle, space: SubshiftSpace, radius: int,
            budget: int | None = None):
    """Retract a subgroup into the encoded set: conjugate by the first
    translate, in shortlex order, that lands there; the walk of translates
    stops there. Returns (retracted oracle, translate word).

    Raises NotInYError when no translate passes, AmbiguityError when the
    chosen translate fails a recheck at radius + 2 (raise the radius), and
    BudgetError once the radius-`radius` balls of the translates walked
    hold more than `budget` (default DEFAULT_BUDGET) vertices in all."""
    if radius < 2:
        raise DomainError("radius must be >= 2 to see the cycle structure")
    budget = DEFAULT_BUDGET if budget is None else budget
    codes, spent = space.candidate_codes(radius), 0
    for f in shortlex_walk(space.rank, space.alphabet):
        cand = conjugate(oracle, f)
        view = ball(cand, radius)
        spent += len(view.vertices)
        if spent > budget:
            raise BudgetError(f"translate balls exceeded budget {budget}")
        if ball_code(view) in codes:
            if not in_Z(cand, space, radius + 2):
                raise AmbiguityError(
                    f"translate {word_to_str(f)} passed at radius {radius} "
                    "but failed the recheck; use a larger radius"
                )
            return cand, f
    raise NotInYError(
        f"no translate of length <= {space.alphabet} lands in the encoded set"
    )


def decode(oracle: SchreierOracle, radius: int, symbol_cap: int = 4096) -> dict:
    """Read the configuration pattern off an encoded subgroup's graph: the
    symbol at g is the s2-cycle length at the subdivision vertex of
    (g, g.s1), for all g with |g| <= radius - 2.

    The caller is responsible for membership in the encoded set; malformed
    cycle structure raises NotInZError."""
    if radius < 2:
        raise DomainError("radius must be >= 2 to see the cycle structure")
    pattern: dict = {}
    try:
        for g in shortlex_walk(oracle.rank, radius - 2):
            u = trace(oracle, phi_word(g) + (1,))
            v = oracle.neighbor(u, 2)
            count = 1
            while v != u:
                if oracle.neighbor(v, 1) != v:
                    raise NotInZError(
                        f"cycle vertex at {word_to_str(g)} lacks its s1-loop"
                    )
                v = oracle.neighbor(v, 2)
                count += 1
                if count > symbol_cap:
                    raise NotInZError(
                        f"no s2-cycle closes at {word_to_str(g)} "
                        f"within {symbol_cap} steps"
                    )
            pattern[g] = count
    except HorizonError as e:
        raise NotInZError(
            f"walk left the stored graph while decoding: {e}"
        ) from None
    return pattern


def point_class_code(space: SubshiftSpace, q: int) -> tuple:
    """Canonical code of the labeled orbit graph rooted at q; equal codes
    <=> the two basepoints define the same configuration."""
    code = space._pc.get(q)
    if code is None:
        order, rows = bfs_numbering(q, space.action.step,
                                    letters_ordered(space.rank))
        labels = tuple(space.labels[v] for v in order)
        code = space._pc[q] = ("pc", space.rank, space.alphabet, len(order),
                               labels, rows)
    return code


def encoded_root_key(space: SubshiftSpace, vertex) -> tuple:
    """Canonical key of an encoded graph re-rooted at the `PsiOracle`
    vertex `vertex`; equal keys <=> equal subgroups. Cayley roots give
    ("cay", 0, pc) for the point class of their point; cycle roots record
    the s2-distance to their subdivision vertex as ("cyc", k, pc)."""
    x = vertex[2]
    if vertex[0] == "c":
        return ("cay", 0, point_class_code(space, x))
    return ("cyc", -vertex[3] % space.labels[x], point_class_code(space, x))


def lambda_pushforward(space: SubshiftSpace, eta: dict | None = None):
    """Exact translate pushforward of an invariant configuration law.

    eta maps points to rational masses (default uniform). Returns
    (measure, reps): an AtomicMeasure over encoded-subgroup keys giving
    every preimage of the retraction the full mass of its target, and a
    representative (basepoint, vertex) per atom for conjugation checks.
    Restricted to the encoded set the measure equals the pushforward of
    eta, and it is exactly conjugation-invariant when eta is invariant.

    The roots the translates f reach, trace(psi, f^-1), are exactly the
    vertices within distance alphabet of the root: a shortest walk never
    steps back, so it spells a reduced word. Keys and steps never read the
    Cayley numeral, so one `bfs` of that radius per class walks the finite
    quotient, `PsiOracle` over the one-vertex Schreier graph; a space of more
    than DEFAULT_BUDGET points + labels raises BudgetError first. A vertex
    retracts to the Cayley vertex of its own point (the shortlex-first walk
    there runs along its s2-cycle to place 0, then s1^-1).
    """
    action = space.action
    if action.n + sum(space.labels) > DEFAULT_BUDGET:
        raise BudgetError(f"points + labels exceed budget {DEFAULT_BUDGET}")
    eta = {q: Fraction(1, action.n) if eta is None else Fraction(eta[q])
           for q in range(action.n)}
    if any(eta[q] != eta[action.step(q, l)] for q in range(action.n)
           for l in range(1, action.rank + 1)):
        raise DomainError("eta is not invariant under the finite action")

    classes: dict = {}  # point class code -> [a point of it, its mass]
    for q in range(action.n):
        classes.setdefault(point_class_code(space, q), [q, 0])[1] += eta[q]

    letters = letters_ordered(space.rank)
    loops = FiniteOracle.from_perms([(0,)] * space.rank, names=[0])
    lam = AtomicMeasure()
    reps: dict = {}
    for pc, (q, mass) in sorted(classes.items()):
        if mass == 0:
            continue
        psi = PsiOracle(space.point(q))
        psi._cayley = loops  # every letter is a loop at numeral 0
        for u in bfs(psi.root, psi.neighbor, letters, space.alphabet)[0]:
            key = encoded_root_key(space, u)
            if key[2] == pc and key not in reps:
                lam.add(key, mass)
                reps[key] = (q, u)
    return lam, reps


def lambda_conjugate(space: SubshiftSpace, lam: AtomicMeasure, reps: dict,
                     letter: int) -> AtomicMeasure:
    """Pushforward of the translate measure under conjugation by one
    generator letter: each atom's root moves one step along the inverse."""
    out = AtomicMeasure()
    for key, mass in lam.data.items():
        q, u = reps[key]
        v = PsiOracle(space.point(q)).neighbor(u, -letter)
        out.add(encoded_root_key(space, v), mass)
    return out


def parse_subshift(text: str):
    """Subshift file: an action file's `points`/`perm` lines plus `alphabet`,
    `label <point> <symbol>` and `basepoint` lines (README, "File formats").
    Returns (SubshiftSpace, basepoint)."""
    alphabet = basepoint = None
    labels: dict[int, int] = {}
    action_rows = []
    for lineno, (kind, *args) in records(text):
        if kind in ("points", "perm"):
            action_rows.append((lineno, [kind, *args]))
            continue
        arity = {"alphabet": 1, "label": 2, "basepoint": 1}.get(kind)
        if arity != len(args) or not all(map(str.isdecimal, args)):
            raise bad_line(text, lineno, "cannot parse")
        values = [number(x, kind, lineno=lineno) for x in args]
        if kind == "alphabet":
            once(alphabet, lineno, "'alphabet' line")
            alphabet = values[0]
        elif kind == "label":
            once(labels.get(values[0]), lineno, f"'label {values[0]}' line")
            labels[values[0]] = values[1]
        else:
            once(basepoint, lineno, "'basepoint' line")
            basepoint = values[0]
    if alphabet is None:
        raise DomainError("subshift file needs an alphabet line")
    action = read_action(text, action_rows)
    if sorted(labels) != list(range(action.n)):
        raise DomainError("need a label line for every point")
    space = SubshiftSpace(action, tuple(labels[i] for i in range(action.n)),
                          alphabet)
    return space, space.point(basepoint or 0).basepoint  # checks the range
