"""Finite actions of the free group: r permutations of a point set.

`FiniteAction` itself lives in `oracles`, since a finite Schreier graph is
such an action seen from a point; this module adds orbit graphs,
stabilizer codes, first returns, random actions and the action file format.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import array_code
from .errors import DomainError
from .measures import AtomicMeasure
from .oracles import FiniteAction, FiniteOracle, bfs
from .randomness import KeyedRng
from .sgr import _number
from .words import letters_ordered


def orbit_schreier(action: FiniteAction, point: int) -> FiniteOracle:
    """Schreier graph of the stabilizer of `point`: the action on the orbit
    of `point`, rooted there, with each orbit point v named `str(v)`."""
    orbit = sorted(bfs(point, action.step, letters_ordered(action.rank))[0])
    pos = {v: k for k, v in enumerate(orbit)}
    perms = [[pos[p[v]] for v in orbit] for p in action.perms]
    return FiniteOracle.from_perms(perms, pos[point], map(str, orbit))


def stab_equal(action: FiniteAction, x: int, y: int) -> bool:
    """Whether two points have the same stabilizer subgroup."""
    return array_code(action.perms, x) == array_code(action.perms, y)


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
            raise DomainError(f"subset point {y} out of range")
    out = {}
    for y in sorted(Y):
        z = perm[y]
        while z not in Y:
            z = perm[z]
        out[y] = z
    return out


def graphing_cost(action: FiniteAction, domains) -> Fraction:
    """Cost of a graphing under the uniform measure: sum of |domain_i| / n,
    with domain_i the subset on which generator i is used."""
    if len(domains) != action.rank:
        raise DomainError("need one domain per generator")
    total = 0
    for d in domains:
        ds = frozenset(d)
        for y in ds:
            if not 0 <= y < action.n:
                raise DomainError(f"domain point {y} out of range")
        total += len(ds)
    return Fraction(total, action.n)


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


def parse_cycles(text: str, n: int) -> tuple:
    """Permutation of 0..n-1 from cycle notation like "(0 1 2)(3 4)" or "id"."""
    text = text.strip()
    perm = list(range(n))
    if text in ("id", "()", ""):
        return tuple(perm)
    if not text.startswith("("):
        raise DomainError(f"bad cycle notation {text!r}")
    moved = set()
    for chunk in text.replace(")", ")\n").split("\n"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise DomainError(f"bad cycle {chunk!r}")
        try:
            pts = [int(s) for s in chunk[1:-1].replace(",", " ").split()]
        except ValueError:
            raise DomainError(f"bad cycle {chunk!r}") from None
        if len(pts) != len(set(pts)):
            raise DomainError(f"repeated point in cycle {chunk!r}")
        for x in pts:
            if not 0 <= x < n:
                raise DomainError(f"point {x} out of range 0..{n - 1}")
            if x in moved:
                raise DomainError(f"point {x} in two cycles")
            moved.add(x)
        for i, x in enumerate(pts):
            perm[x] = pts[(i + 1) % len(pts)]
    return tuple(perm)


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


def parse_action(text: str) -> FiniteAction:
    """Action file format: `points <n>` then `perm s<i>: <cycles>` lines."""
    n = None
    perms: dict[int, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, cyc = line.partition(":")
        words = head.split()
        if len(words) == 2 and words[0] == "points" and not cyc:
            if not words[1].isdecimal():
                raise DomainError(f"line {lineno}: bad point count {words[1]!r}")
            if n is not None:
                raise DomainError(f"line {lineno}: second 'points' line")
            n = _number(words[1], lineno, "point count")
            continue
        if len(words) == 2 and words[0] == "perm":
            if n is None:
                raise DomainError("'points <n>' must come first")
            gen = words[1]
            if not (gen.startswith("s") and gen[1:].isdecimal()):
                raise DomainError(f"line {lineno}: bad generator {gen!r}")
            i = _number(gen[1:], lineno, "generator")
            if i in perms:
                raise DomainError(f"line {lineno}: second 'perm s{i}' line")
            perms[i] = parse_cycles(cyc, n)
            continue
        raise DomainError(f"line {lineno}: cannot parse {line!r}")
    if n is None or not perms:
        raise DomainError("action file needs 'points' and 'perm' lines")
    rank = max(perms)
    if sorted(perms) != list(range(1, rank + 1)):
        raise DomainError("perm lines must cover s1..sr without gaps")
    return FiniteAction(n, tuple(perms[i] for i in range(1, rank + 1)))


def emit_action(action: FiniteAction) -> str:
    lines = [f"points {action.n}"]
    for i, p in enumerate(action.perms, start=1):
        lines.append(f"perm s{i}: {format_cycles(p)}")
    return "\n".join(lines) + "\n"
