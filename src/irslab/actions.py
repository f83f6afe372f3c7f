"""Finite actions of the free group: r permutations of a point set.

`FiniteAction` itself lives in `oracles`, since a finite Schreier graph is
such an action seen from a point; this module adds orbit graphs,
stabilizer codes, first returns, random actions and the action file reader.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import array_code
from .errors import BudgetError, DomainError
from .lines import bad_line, number, once, quote, records
from .measures import AtomicMeasure
from .oracles import DEFAULT_BUDGET, FiniteAction, FiniteOracle, bfs
from .randomness import KeyedRng
from .words import letters_ordered


def orbit_schreier(action: FiniteAction, point: int) -> FiniteOracle:
    """Schreier graph of the stabilizer of `point`: the action on the orbit
    of `point`, rooted there, with each orbit point v named `str(v)`."""
    orbit = sorted(bfs(point, action.step, letters_ordered(action.rank))[0])
    pos = {v: k for k, v in enumerate(orbit)}
    perms = [[pos[p[v]] for v in orbit] for p in action.perms]
    return FiniteOracle.from_perms(perms, pos[point], map(str, orbit))


def is_totally_nonfree(action: FiniteAction) -> bool:
    """True iff the stabilizer map separates points (all stabilizers
    pairwise distinct)."""
    codes = {array_code(action.perms, x) for x in range(action.n)}
    return len(codes) == action.n


def first_return(perm: tuple, subset) -> dict:
    """First-return map of a permutation on a subset Y: y -> perm^k(y) for
    the least k >= 1 with perm^k(y) in Y. Always a bijection of Y."""
    Y = frozenset(subset)
    if not Y:
        raise DomainError("subset must be nonempty")
    n = len(perm)
    for y in Y:
        if not 0 <= y < n:
            raise DomainError(f"subset point {quote(str(y))} out of range")
    out = {}
    for y in sorted(Y):
        z = perm[y]
        while z not in Y:
            z = perm[z]
        out[y] = z
    return out


def stab_pushforward_law(action: FiniteAction) -> AtomicMeasure:
    """Uniform point measure pushed through the stabilizer map: an exact
    atomic law over root-isomorphism classes of orbit Schreier graphs."""
    law = AtomicMeasure()
    for x in range(action.n):
        law.add(array_code(action.perms, x), Fraction(1, action.n))
    return law


def random_action(n: int, rank: int, seed: int) -> FiniteAction:
    rng = KeyedRng(seed, "action")
    return FiniteAction(n, tuple(rng.permutation(n) for _ in range(rank)))


def random_transitive_action(n: int, rank: int, seed: int) -> FiniteAction:
    """First transitive action in a seeded stream of random actions."""
    for k in range(10_000):
        a = random_action(n, rank, seed + k * 0x9E3779B9)
        if len(bfs(0, a.step, letters_ordered(rank))[0]) == n:
            return a
    raise DomainError("could not find a transitive action")


def parse_cycles(text: str, n: int, lineno: int = 1) -> tuple:
    """Permutation of 0..n-1 from cycle notation like "(0 1 2)(3 4)" or
    "id", read from line `lineno` of a file; a point appears at most once."""
    text = text.strip()
    perm = list(range(n))
    if text == "id":
        return tuple(perm)
    moved = set()
    for chunk in filter(None, map(str.strip, text.replace(")", ")\n").split("\n"))):
        fields = chunk[1:-1].replace(",", " ").split()
        if not (chunk[0] == "(" and chunk[-1] == ")"
                and all(map(str.isdecimal, fields))):
            raise DomainError(f"line {lineno}: bad cycle {quote(chunk)}")
        pts = [number(f, "point", lineno=lineno) for f in fields]
        for f, x, y in zip(fields, pts, pts[1:] + pts[:1]):
            if x >= n:
                raise DomainError(
                    f"line {lineno}: point {quote(f)} out of range 0..{n - 1}")
            if x in moved:
                raise DomainError(f"line {lineno}: point {x} appears twice")
            moved.add(x)
            perm[x] = y
    return tuple(perm)


def parse_action(text: str) -> FiniteAction:
    """Action file: `points <n>` then `perm s<i>: <cycles>` lines, read by
    the line rules of README's "File formats"."""
    return read_action(text, records(text))


def read_action(text: str, rows) -> FiniteAction:
    """The action of `rows`, the (line number, fields) of the `points` and
    `perm` lines of `text`. A point count past DEFAULT_BUDGET raises
    BudgetError before any permutation is built."""
    n = None
    perms: dict[int, tuple] = {}
    for lineno, fields in rows:
        head, _, cyc = " ".join(fields).partition(":")
        words = head.split()
        if len(words) == 2 and words[0] == "points" and not cyc:
            if not words[1].isdecimal():
                raise DomainError(
                    f"line {lineno}: bad point count {quote(words[1])}")
            once(n, lineno, "'points' line")
            n = number(words[1], "point count", lineno=lineno)
            if n > DEFAULT_BUDGET:
                raise BudgetError(f"line {lineno}: point count exceeds "
                                  f"budget {DEFAULT_BUDGET}")
        elif len(words) == 2 and words[0] == "perm":
            if n is None:
                raise DomainError(f"line {lineno}: 'points <n>' must come first")
            gen = words[1]
            if not (gen.startswith("s") and gen[1:].isdecimal()):
                raise DomainError(f"line {lineno}: bad generator {quote(gen)}")
            i = number(gen[1:], "generator", lineno=lineno)
            once(perms.get(i), lineno, f"'perm s{i}' line")
            perms[i] = parse_cycles(cyc, n, lineno)
        else:
            raise bad_line(text, lineno, "cannot parse")
    if n is None or not perms:
        raise DomainError("action file needs 'points' and 'perm' lines")
    if sorted(perms) != list(range(1, len(perms) + 1)):
        raise DomainError("perm lines must cover s1..sr without gaps")
    return FiniteAction(n, tuple(perms[i] for i in sorted(perms)))
