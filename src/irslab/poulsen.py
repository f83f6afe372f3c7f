"""Recursive percolation sampler with star-edge surgery.

A level-0 copy of a base-law graph is drawn; every vertex is independently
retained with probability p, and each retained vertex x gets a fresh
base-law copy attached by an undirected star edge from x to the copy's
root. The recursion continues copy by copy. Attachment roots already carry
a star edge and are excluded from further percolation, so every vertex
meets at most one star edge and the ambient degree bound 2r+1 holds.

The emitted oracle is the surgered graph: each star edge {v, w} trades the
s1-successors of v and w, which merges the copies into a single Schreier
coset graph. The root is the root of the level-0 copy.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import DomainError
from .oracles import (STAR, BallView, DEFAULT_BUDGET, SchreierOracle,
                      grow_view)
from .randomness import TWO128, Keyed


@functools.lru_cache(maxsize=64)
def retention_cutoff(p) -> int:
    """The 128-bit draw cutoff of retention with probability 0 < p < 1."""
    p = Fraction(p)
    if not (0 < p < 1):
        raise DomainError("p must lie strictly between 0 and 1")
    return (p.numerator << 128) // p.denominator


class PercolationGraph:
    """The unsurgered graph: disjoint lazily-drawn copies plus star edges.

    Vertices are pairs (path, coset) where path is the tuple of percolated
    cosets leading to this copy (empty for the level-0 copy) and coset is a
    vertex of that copy's own graph. Only `copy` draws a copy; `step`,
    `star`, `percolated` and `known_step` take only vertices it returned.
    """

    def __init__(self, base_law, p, seed: int):
        self._cuts = (retention_cutoff(p), TWO128)  # 0: retained
        self.law = base_law
        self.seed = seed
        self.rank = base_law.rank
        self._copies: dict = {}
        self._perc: dict = {}
        self._keyed = Keyed(seed, "perc")
        self._draws: dict = {}  # path -> its copy's draws of (path, coset)
        self._trails: dict = {(): ""}  # path -> the trail of its tokens
        self.root = ((), self.copy(()).root)

    def copy(self, path) -> SchreierOracle:
        o = self._copies.get(path)
        if o is None:
            o = self._copies[path] = self.law.draw(self.seed, "attach", path)
        return o

    def percolated(self, u) -> bool:
        """Retained by the Bernoulli field; attachment roots are exempt."""
        hit = self._perc.get(u)
        if hit is None:
            path, v = u
            if path and v == self._copies[path].root:
                hit = False
            else:
                draws = self._draws.get(path)
                if draws is None:
                    draws = self._draws[path] = self._keyed.under(path)
                hit = not draws.choose(v, self._cuts)
            self._perc[u] = hit
        return hit

    def star(self, u):
        """Star partner of u, or None."""
        path, v = u
        if path and v == self._copies[path].root:
            return (path[:-1], path[-1])
        if not self.percolated(u):
            return None
        child = path + (v,)
        return (child, self.copy(child).root)

    def step(self, u, letter: int):
        """In-copy edge, ignoring stars."""
        path, v = u
        return (path, self._copies[path].neighbor(v, letter))

    def known_step(self, u, letter):
        """`step`, or `star` for the letter STAR, read from what is already
        drawn: None where there is no star partner, or where the neighbour
        is a vertex its copy never returned or lies in a copy not yet
        drawn. Draws nothing."""
        path, v = u
        if letter != STAR:
            w = self._copies[path].known_neighbor(v, letter)
            return None if w is None else (path, w)
        if path and v == self._copies[path].root:
            return (path[:-1], path[-1])
        child = path + (v,)
        return (child, self._copies[child].root) if child in self._copies else None

    def token(self, u) -> str:
        """Printable name p(<trail>|<inner>): the tokens of the percolated
        cosets on the path joined by "/", then that of the coset in its own
        copy, each with backslash, "/" and "|" escaped so that distinct
        vertices get distinct tokens."""
        path, v = u
        return f"p({self._trail(path)}|{_escaped(self.copy(path).token(v))})"

    def _trail(self, path) -> str:
        trail = self._trails.get(path)
        if trail is None:
            up = path[:-1]
            step = _escaped(self.copy(up).token(path[-1]))
            trail = self._trails[path] = f"{self._trail(up)}/{step}" if up else step
        return trail


def _escaped(token: str) -> str:
    if "\\" in token or "/" in token or "|" in token:
        return token.replace("\\", "\\\\").replace("/", "\\/").replace("|", "\\|")
    return token


class PoulsenOracle(SchreierOracle):
    """The surgered graph as a lazy Schreier oracle."""

    def __init__(self, base_law, p, seed: int):
        self.graph = PercolationGraph(base_law, p, seed)
        self.rank = self.graph.rank
        self.root = self.graph.root

    def neighbor(self, u, letter: int):
        g = self.graph
        if letter == 1:
            partner = g.star(u)
            return g.step(partner if partner is not None else u, 1)
        if letter == -1:
            w = g.step(u, -1)
            partner = g.star(w)
            return partner if partner is not None else w
        path, v = u
        return (path, g._copies[path].neighbor(v, letter))

    def known_neighbor(self, u, letter: int):
        """`neighbor`, or None for a step new to its copy or into a new copy,
        read through `known_step`. A retained x with no known star partner
        leads into a new copy, so x's percolation bit is drawn only once
        the in-copy step is known: the one case where the bit decides."""
        g = self.graph
        if letter == 1:
            partner = g.known_step(u, STAR)
            if partner is not None:
                return g.known_step(partner, 1)
            w = g.known_step(u, 1)
            return None if w is None or g.percolated(u) else w
        w = g.known_step(u, letter)
        if letter != -1 or w is None:
            return w
        partner = g.known_step(w, STAR)
        if partner is not None:
            return partner
        return None if g.percolated(w) else w

    def token(self, u) -> str:
        return self.graph.token(u)


def star_ball(graph: PercolationGraph, radius: int,
              budget: int = DEFAULT_BUDGET) -> BallView:
    """Ball of the unsurgered graph; star edges count as length-1 steps and
    appear with label '*'."""
    return grow_view(graph.root, graph.step, graph.known_step, graph.rank,
                     radius, graph.token, graph.star, budget)


def view_equal_exact(a: BallView, b: BallView) -> bool:
    """Identity of views as labeled graphs: views are canonical (see
    BallView), so equal rank, radius, boundary, vertices and cells."""
    return (a.rank == b.rank and a.radius == b.radius
            and a.boundary == b.boundary and a.vertices == b.vertices
            and a.letters == b.letters and a.cells == b.cells)
