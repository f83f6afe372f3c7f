"""Line-oriented text format for finite rooted labeled graphs (".sgr").

    schreier r=<r>
    root <token>
    <src> <label> <dst>     one line per edge, label in {s1..s<r>, *}
    boundary <token>        one line per boundary vertex

A token is a non-empty string with no whitespace that does not start with
'#'; emit and parse both raise DomainError on any other token. Parse reads
lines by the rules of `lines` (README, "File formats"). A parsed view is
numbered in BFS order from the root like every BallView, and emit writes
edges in that order (`BallView.edges`), boundary tokens sorted and no
comments, so parse . emit is the identity on emitted text and the order
of a file's lines changes nothing it reads as. The parsed radius is the
depth of the farthest layer, so a complete finite ball asked beyond its
eccentricity reads back with the smaller radius."""

from __future__ import annotations

import re
from itertools import filterfalse

from .errors import DomainError
from .lines import bad_line, number, once, quote, records
from .oracles import STAR, BallView, FiniteOracle


def _names(view) -> dict:
    """Each label of a view to its name in a file: "s<i>", or "*"."""
    return {l: STAR if l == STAR else f"s{l}" for l in view.letters[::2]}


_TOKEN = re.compile(r"[^\s#]\S*")


def _check_tokens(tokens) -> None:
    """Raise DomainError unless every token is a string that is non-empty,
    has no whitespace and does not start with '#'."""
    try:
        for v in filterfalse(_TOKEN.fullmatch, tokens):
            raise DomainError(f"bad vertex token {quote(v)}: a token is non-empty, "
                              "has no whitespace and does not start with '#'")
    except TypeError:
        raise DomainError("vertex tokens must be strings") from None


def emit_sgr(view: BallView) -> str:
    _check_tokens(view.vertices)
    names = _names(view)
    return "\n".join(
        [f"schreier r={view.rank}", f"root {view.root}"]
        + [f"{src} {names[label]} {dst}" for src, label, dst in view.edges]
        + [f"boundary {v}" for v in sorted(view.boundary)] + [""])


def parse_sgr(text: str) -> BallView:
    """Parse .sgr text into a BallView under the line rules of README's
    "File formats". The line checks come first, then in order: the tokens,
    boundary vertices with no edges, the edge checks of BallView,
    connectivity from the root, and the boundary layer."""
    rank = root = None
    edges = []
    boundary = []
    labels = {}  # label fields read by lookup: "*" and s1..s<rank> up to s64
    seen = {}  # each token, in order of first appearance
    for lineno, parts in records(text):
        if len(parts) == 3:  # an edge line, even from a vertex named "root"
            src, label, dst = parts
            lab = labels.get(label)
            if lab is None:
                if rank is None:
                    raise DomainError(
                        f"line {lineno}: edge line before 'schreier' header")
                if not (label.startswith("s") and label[1:].isdecimal()):
                    raise DomainError(f"line {lineno}: bad label {quote(label)}")
                lab = number(label[1:], "label", lineno=lineno)
                if not 1 <= lab <= rank:
                    raise DomainError(
                        f"line {lineno}: label {quote(label)} out of range")
            edges.append((src, lab, dst))
            seen[src] = seen[dst] = None
        elif parts[0] == "schreier":
            head = parts[1] if len(parts) == 2 else ""
            if not (head.startswith("r=") and head[2:].isdecimal()):
                raise bad_line(text, lineno, "bad header")
            once(rank, lineno, "'schreier' header")
            rank = number(head[2:], "rank", lineno=lineno)
            if rank < 1:
                raise DomainError(f"line {lineno}: rank must be >= 1")
            labels = {f"s{i}": i for i in range(1, min(rank, 64) + 1)}
            labels[STAR] = STAR
        elif parts[0] == "root":
            if len(parts) != 2:
                raise DomainError(f"line {lineno}: bad root line")
            once(root, lineno, "'root' line")
            root = parts[1]
            seen[root] = None
        elif parts[0] == "boundary":
            if len(parts) != 2:
                raise DomainError(f"line {lineno}: bad boundary line")
            boundary.append(parts[1])
        else:
            raise bad_line(text, lineno, "bad edge line")
    if rank is None:
        raise DomainError("missing 'schreier r=<r>' header")
    if root is None:
        raise DomainError("missing 'root <token>' line")
    _check_tokens(seen)
    for v in boundary:
        if v not in seen:
            raise DomainError(f"boundary vertex {quote(v)} has no edges")
    view = BallView(rank, None, root, seen, edges, boundary)
    if None in view.depth:
        raise DomainError("graph is not connected from the root")
    view.radius = view.depth[-1]
    if not view.boundary <= set(view.vertices[view.depth.index(view.radius):]):
        raise DomainError("a boundary vertex is not in the farthest layer")
    return view


def parse_complete_oracle(text: str) -> FiniteOracle:
    """Parse a .sgr file that must describe a complete finite Schreier graph
    (no boundary, no star edges)."""
    view = parse_sgr(text)
    if view.boundary:
        raise DomainError("expected a complete graph, found boundary vertices")
    return view.to_oracle()


def emit_edgelist(view: BallView) -> str:
    """Plain edge-list export with labels as attributes, one edge per line."""
    names = _names(view)
    return "\n".join(f"{src} {dst} label={names[label]}"
                     for src, label, dst in view.edges) + "\n"
