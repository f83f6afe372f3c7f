"""Line-oriented text format for finite rooted labeled graphs (".sgr").

    schreier r=<r>
    root <token>
    <src> <label> <dst>     one line per edge, label in {s1..s<r>, *}
    boundary <token>        one line per boundary vertex

A token is a non-empty string with no whitespace that does not start with
'#'; emit and parse both raise DomainError on any other token. Lines
starting with '#' and blank lines are ignored on parse; emit writes edges
in stored order, boundary tokens sorted and no comments, so parse . emit
is the identity on emitted text.
"""

from __future__ import annotations

import re
from itertools import filterfalse

from .errors import DomainError
from .oracles import STAR, BallView, FiniteOracle, bfs


def _label_str(label) -> str:
    return STAR if label == STAR else f"s{label}"


_TOKEN = re.compile(r"[^\s#]\S*")


def _check_tokens(tokens) -> None:
    """Raise DomainError unless every token is a string that is non-empty,
    has no whitespace and does not start with '#'."""
    try:
        for v in filterfalse(_TOKEN.fullmatch, tokens):
            raise DomainError(f"bad vertex token {v!r}: a token is non-empty, "
                              "has no whitespace and does not start with '#'")
    except TypeError:
        raise DomainError("vertex tokens must be strings") from None


def emit_sgr(view: BallView) -> str:
    _check_tokens(view.vertices)
    lines = [f"schreier r={view.rank}", f"root {view.root}"]
    for src, label, dst in view.edges:
        lines.append(f"{src} {_label_str(label)} {dst}")
    for v in sorted(view.boundary):
        lines.append(f"boundary {v}")
    return "\n".join(lines) + "\n"


def parse_sgr(text: str) -> BallView:
    rank = None
    root = None
    edges = []
    boundary = []
    seen: dict[str, None] = {}  # the tokens, in order of first appearance

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        # three fields make an edge line, even from a vertex named "root"
        kind = parts[0] if len(parts) != 3 else "edge"
        if kind == "schreier":
            head = parts[1] if len(parts) == 2 else ""
            if not (head.startswith("r=") and head[2:].isdecimal()):
                raise DomainError(f"line {lineno}: bad header {line!r}")
            if rank is not None:
                raise DomainError(f"line {lineno}: second 'schreier' header")
            rank = int(head[2:])
            if rank < 1:
                raise DomainError(f"line {lineno}: rank must be >= 1")
            continue
        if kind == "root":
            if len(parts) != 2:
                raise DomainError(f"line {lineno}: bad root line")
            if root is not None:
                raise DomainError(f"line {lineno}: second 'root' line")
            root = parts[1]
            seen[root] = None
            continue
        if kind == "boundary":
            if len(parts) != 2:
                raise DomainError(f"line {lineno}: bad boundary line")
            boundary.append(parts[1])
            continue
        if len(parts) != 3:
            raise DomainError(f"line {lineno}: bad edge line {line!r}")
        src, label, dst = parts
        if rank is None:
            raise DomainError("edge line before 'schreier' header")
        if label == STAR:
            lab = STAR
        elif label.startswith("s") and label[1:].isdecimal():
            lab = int(label[1:])
            if not 1 <= lab <= rank:
                raise DomainError(f"line {lineno}: label {label} out of range")
        else:
            raise DomainError(f"line {lineno}: bad label {label!r}")
        seen[src] = seen[dst] = None
        edges.append((src, lab, dst))
    if rank is None:
        raise DomainError("missing 'schreier r=<r>' header")
    if root is None:
        raise DomainError("missing 'root <token>' line")
    _check_tokens(seen)
    for v in boundary:
        if v not in seen:
            raise DomainError(f"boundary vertex {v!r} has no edges")
    view = BallView(rank, None, root, seen, edges, boundary)
    number, depth, _ = bfs(root, view.step, view.letters)
    if len(number) != len(seen):
        raise DomainError("graph is not connected from the root")
    view.radius = depth[-1]
    if any(depth[number[v]] != view.radius for v in boundary):
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
    lines = []
    for src, label, dst in view.edges:
        lines.append(f"{src} {dst} label={_label_str(label)}")
    return "\n".join(lines) + "\n"
