"""Command line interface.

Every run is fully determined by its flags: seeds default to 0 (never to
entropy), and output ordering never depends on hash or map iteration order.
Every subcommand but aut opens with one '#' header line that echoes each
option OPTIONS marks and the command took (unset ones, None, are left
out), in OPTIONS order, and rank= is the rank of the bases, which a file:
base brings itself; a command that takes --seed also echoes
stream=<randomness.STREAM_VERSION>, the version of the map from a seed to
its draws. An unmarked option shows in the body (--trials, --z-threshold,
--check-invariance), is echoed by its effective value (encode's basepoint,
which the file can set), or sets only the layout, the destination or the
point of failure (--format, --out, --budget). `lines.number` reads each
number an option takes, as OPTIONS declares, after argparse. Exit codes:
0 success, 1 domain error, 2 budget exceeded, 3 verification failure.
Each cmd_* function returns its text and exit code and does no I/O; main
writes the text once, to stdout or to --out.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__
from .actions import (first_return, is_totally_nonfree, parse_action,
                      stab_pushforward_law)
from .analysis import (
    aut_count,
    automorphisms,
    code_action,
    cylinder_fingerprint,
    metric,
    root_isomorphic,
    walk_fingerprints,
)
from .encoding import (PsiOracle, decode, lambda_conjugate, lambda_pushforward,
                       parse_subshift, translate_count, upsilon)
from .errors import BudgetError, DomainError
from .laws import NormalizerLaw, PointLaw, PoulsenLaw, trivial_law
from .lines import number, quote
from .montecarlo import (
    CylinderSpec,
    convergence_sweep,
    estimate_cylinder,
    exact_invariance_rows,
    invariance_report,
    render_invariance,
    render_sweep,
)
from .normalizer import enumerate_normalizer_law
from .oracles import (DEFAULT_BUDGET, BallBackedOracle, FiniteOracle, ball,
                      conjugate)
from .sgr import emit_edgelist, emit_sgr, parse_complete_oracle, parse_sgr
from .randomness import STREAM_VERSION, TWO128, KeyedRng
from .words import (letters_ordered, phi_word, shortlex_word, word_count,
                    word_from_str, word_to_str)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_BUDGET = 2
EXIT_VERIFY = 3


def parse_base_spec(spec: str, rank: int, p: Fraction | None):
    """Base/sampler specifications compose right to left:
    trivial | file:<path.sgr> | normalizer:<spec> | biased-normalizer:<spec>
    | poulsen:<spec>. Randomized stages all use the single --p value."""
    if spec == "trivial":
        return trivial_law(rank)
    if spec.startswith("file:"):
        path = spec[5:]
        return PointLaw(parse_complete_oracle(_read(path)), f"file:{path}")
    for head, maker in (
        ("normalizer:", lambda inner: NormalizerLaw(inner, _need_p(p))),
        ("biased-normalizer:",
         lambda inner: NormalizerLaw(inner, _need_p(p), biased_root_slot=0)),
        ("poulsen:", lambda inner: PoulsenLaw(inner, _need_p(p))),
    ):
        if spec.startswith(head):
            return maker(parse_base_spec(spec[len(head):], rank, p))
    raise DomainError(f"unknown base spec {quote(spec)}")


def _need_p(p: Fraction | None) -> Fraction:
    if p is None:
        raise DomainError("this base spec needs --p")
    return p


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise DomainError(f"{path}: not UTF-8 text at byte {e.start}") from None


def _write(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(args, **extra) -> str:
    if hasattr(args, "seed"):
        extra["stream"] = STREAM_VERSION
    bits = [f"# irslab {args.command}"]
    for name, (echo, *_) in OPTIONS.items():
        val = getattr(args, name.replace("-", "_"), None)
        if echo and val is not None:
            bits.append(f"{name}={val}")
    for k, v in extra.items():
        bits.append(f"{k}={v}")
    return " ".join(bits) + "\n"


def _load_graph_oracle(path: str):
    return BallBackedOracle(parse_sgr(_read(path)))


def _read_numbers(args) -> None:
    """Read each numeric option given as text by `number`, as OPTIONS
    declares; LISTS stay text, for headers to echo, until `_numbers`."""
    for name, (_, _, *spec) in OPTIONS.items():
        dest = name.replace("-", "_")
        text = getattr(args, dest, None)
        if spec and name not in LISTS and isinstance(text, str):
            setattr(args, dest, number(text, f"--{name}", *spec))


def _numbers(args, name: str) -> list:
    """The values of the comma-separated option `name`."""
    _, _, *spec = OPTIONS[name]
    text = getattr(args, name.replace("-", "_"))
    return [number(item, f"--{name}", *spec) for item in text.split(",")]


def _laws(args, *specs) -> list:
    """The laws of base specs, which must share one rank. A file: base
    brings its own rank, so args.rank becomes the rank the output is made
    with, the one the header echoes and fingerprint words are read in."""
    laws = [parse_base_spec(spec, args.rank, args.p) for spec in specs]
    ranks = sorted({law.rank for law in laws})
    if len(ranks) > 1:
        raise DomainError(f"bases of ranks {ranks[0]} and {ranks[1]} differ")
    args.rank = ranks[0]
    return laws


def _fingerprint_spec(args) -> CylinderSpec:
    words = tuple(word_from_str(w, args.rank) for w in args.fingerprint.split(","))
    return CylinderSpec(words, args.radius)


def cmd_ball(args) -> tuple[str, int]:
    law, = _laws(args, args.base)
    oracle = law.sample(args.seed)
    view = ball(oracle, args.radius, args.budget)
    body = emit_edgelist(view) if args.format == "edgelist" else emit_sgr(view)
    return _header(args) + body, EXIT_OK


def cmd_metric(args) -> tuple[str, int]:
    law_a, law_b = _laws(args, args.base, args.other)
    a = law_a.sample(args.seed)
    b = law_b.sample(args.other_seed)
    d = metric(a, b, args.max_radius, args.budget)
    out = _header(args)
    if d == 0:
        out += f"d = 0 (<= 1/{args.max_radius + 2})\n"
    else:
        out += f"d = {d.numerator}/{d.denominator}\n"
    return out, EXIT_OK


def cmd_fingerprint(args) -> tuple[str, int]:
    law, = _laws(args, args.base)
    oracle = law.sample(args.seed)
    fp = cylinder_fingerprint(oracle, args.radius)
    return _header(args) + "".join(word_to_str(w) + "\n" for w in fp), EXIT_OK


def cmd_aut(args) -> tuple[str, int]:
    oracle = parse_complete_oracle(_read(args.graph))
    return f"{aut_count(oracle)}\n", EXIT_OK


def _fp2(action) -> str:
    """The radius-2 fingerprint of the stabilizer of point 0, in braces."""
    fp = walk_fingerprints(0, action.step, action.rank, 2)[0]
    return "{" + " ".join(map(word_to_str, fp)) + "}"


def cmd_enumerate_normalizer(args) -> tuple[str, int]:
    # a file: base brings its rank; any other base is refused below
    law = parse_base_spec(args.base, 2, args.p)
    if not (law.is_point and isinstance(law.oracle, FiniteOracle)):
        raise DomainError("enumeration needs a finite point-mass base")
    base = law.oracle
    measure = enumerate_normalizer_law(base, _need_p(args.p), budget=args.budget)
    out = _header(args)
    out += f"atoms {len(measure)} total {measure.total()}\n"
    for i, (code, mass) in enumerate(measure.items_sorted()):
        action = code_action(code)
        aut = 1 + sum(1 for _ in automorphisms(action.perms))
        out += (f"atom {i}: mass {mass} vertices {code[1]} "
                f"aut {aut} fp2 {_fp2(action)}\n")
    if args.check_invariance:
        rows = exact_invariance_rows(measure, args.radius)
        if any(r.deviation != 0 for r in rows):
            return out + "exact invariance: FAIL\n", EXIT_VERIFY
        out += "exact invariance: PASS\n"
    return out, EXIT_OK


def cmd_encode(args) -> tuple[str, int]:
    space, basepoint = parse_subshift(_read(args.subshift))
    if args.basepoint is not None:
        basepoint = args.basepoint
    oracle = PsiOracle(space.point(basepoint))
    view = ball(oracle, args.radius, args.budget)
    return _header(args, basepoint=basepoint) + emit_sgr(view), EXIT_OK


def cmd_decode(args) -> tuple[str, int]:
    oracle = _load_graph_oracle(args.graph)
    pattern = decode(oracle, args.radius)
    out = _header(args)
    for g, symbol in pattern.items():  # in shortlex order
        out += f"x({word_to_str(g)}) = {symbol}\n"
    return out, EXIT_OK


def cmd_check_equivariance(args) -> tuple[str, int]:
    space, _ = parse_subshift(_read(args.subshift))
    # each trial draws a word of length 1..n by its shortlex position, and
    # one 128-bit draw must reach every position
    rank = space.rank
    count = word_count(rank, args.max_word_len, TWO128)
    if count is None:
        raise DomainError(
            f"--max-word-len gives 2^128 words or more at rank {rank}")
    rng = KeyedRng(args.seed, "equivariance")
    failures = 0
    for _ in range(args.trials):
        q = rng.randrange(space.action.n)
        f = shortlex_word(rank, 1 + rng.randrange(count - 1))
        x = space.point(q)
        lhs = ball(PsiOracle(x.shifted(f)), args.radius, args.budget)
        rhs = ball(conjugate(PsiOracle(x), phi_word(f)), args.radius, args.budget)
        if not root_isomorphic(lhs, rhs):
            failures += 1
    out = _header(args) + (
        f"equivariance trials {args.trials} failures {failures}: "
        + ("PASS" if failures == 0 else "FAIL") + "\n"
    )
    return out, EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_upsilon(args) -> tuple[str, int]:
    oracle = _load_graph_oracle(args.graph)
    space, _ = parse_subshift(_read(args.subshift))
    retracted, f = upsilon(oracle, space, args.radius, args.budget)
    out = _header(args) + f"translate {word_to_str(f)}\n"
    out += emit_sgr(ball(retracted, args.radius, args.budget))
    return out, EXIT_OK


def cmd_lambda(args) -> tuple[str, int]:
    space, _ = parse_subshift(_read(args.subshift))
    lam, reps = lambda_pushforward(space)
    out = _header(args)
    out += f"translates {translate_count(space.alphabet, space.rank)}\n"
    out += f"atoms {len(lam)} total {lam.total()}\n"
    for i, (key, mass) in enumerate(lam.items_sorted()):
        kind, k, _pc = key
        out += f"atom {i}: kind {kind} offset {k} mass {mass}\n"
    ok = True
    for l in letters_ordered(space.rank):
        if lambda_conjugate(space, lam, reps, l) != lam:
            ok = False
    out += "conjugation invariance: " + ("PASS" if ok else "FAIL") + "\n"
    return out, EXIT_OK if ok else EXIT_VERIFY


def cmd_stab_law(args) -> tuple[str, int]:
    action = parse_action(_read(args.action))
    law = stab_pushforward_law(action)
    out = _header(args) + f"atoms {len(law)} total {law.total()}\n"
    for i, (code, mass) in enumerate(law.items_sorted()):
        fp2 = _fp2(code_action(code))
        out += f"atom {i}: mass {mass} vertices {code[1]} fp2 {fp2}\n"
    return out, EXIT_OK


def cmd_tnf_check(args) -> tuple[str, int]:
    action = parse_action(_read(args.action))
    flag = is_totally_nonfree(action)
    return _header(args) + f"totally-nonfree: {str(flag).lower()}\n", EXIT_OK


def cmd_first_return(args) -> tuple[str, int]:
    action = parse_action(_read(args.action))
    if args.gen > action.rank:
        raise DomainError(f"--gen is above the rank {action.rank}")
    fr = first_return(action.perms[args.gen - 1],
                      frozenset(_numbers(args, "subset")))
    out = _header(args)
    for y in sorted(fr):
        out += f"{y} -> {fr[y]}\n"
    return out, EXIT_OK


def cmd_estimate(args) -> tuple[str, int]:
    law, = _laws(args, args.sampler)
    spec = _fingerprint_spec(args)
    rep = estimate_cylinder(law, spec, args.samples, args.seed)
    return _header(args) + rep.render() + "\n", EXIT_OK


def cmd_invariance(args) -> tuple[str, int]:
    law, = _laws(args, args.sampler)
    rows = invariance_report(law, args.radius, args.samples, args.seed,
                             min_mass=args.min_mass)
    out = _header(args) + render_invariance(rows, args.format)
    breached = [r for r in rows if r.breached(args.z_threshold)]
    out += (
        f"max z-score threshold {args.z_threshold}: "
        + ("PASS" if not breached else f"FAIL ({len(breached)} cells)") + "\n"
    )
    return out, EXIT_OK if not breached else EXIT_VERIFY


def cmd_sweep(args) -> tuple[str, int]:
    base, = _laws(args, args.base)
    spec = _fingerprint_spec(args)
    rows = convergence_sweep(args.construction, base, _numbers(args, "p-list"),
                             spec, args.samples, args.seed)
    return _header(args) + render_sweep(rows, args.format), EXIT_OK


# Each option once: whether '#' headers echo it, its argparse keywords,
# then for a number its `lines.number` kind and bounds [low, high) (LISTS:
# of each comma-separated item). Headers list echoed options in this order.
OPTIONS = {
    "base": (True, {"required": True}),
    "other": (True, {"required": True}),
    "sampler": (True, {"required": True}),
    "construction": (True, {"choices": ("poulsen", "normalizer"),
                            "default": "poulsen"}),
    "rank": (True, {"default": 2, "help":
                    "free group rank for synthetic bases (default 2)"}, int, 1),
    "p": (True, {"help": "parameter p as an exact rational, e.g. 1/10"},
          Fraction),
    "p-list": (True, {"required": True, "help": "comma-separated rationals, "
                      "e.g. 0.2,0.1,0.05,0.01"}, Fraction),
    "seed": (True, {"default": 0, "help": "seed in [0, 2^64) (default 0, "
                    "never entropy)"}, int, 0, 2**64),
    "other-seed": (True, {"default": 0, "help":
                          "seed of --other, in [0, 2^64) (default 0)"},
                   int, 0, 2**64),
    "radius": (True, {"required": True}, int, 0),
    "max-radius": (True, {"required": True}, int, 0),
    "max-word-len": (True, {"default": 3}, int, 1),
    "samples": (True, {"required": True}, int, 1),
    "fingerprint": (True, {"default": "e", "help": "comma-separated words, "
                           "e.g. 'e,s2,s2^-1'"}),
    "min-mass": (True, {"default": Fraction(1, 100)}, Fraction),
    "subshift": (True, {"required": True}),
    "graph": (True, {"required": True}),
    "action": (True, {"required": True}),
    "gen": (True, {"required": True}, int, 1),  # cmd_first_return: <= rank
    "subset": (True, {"required": True,
                      "help": "comma-separated points, e.g. 0,2"}, int, 0),
    "budget": (False, {"default": DEFAULT_BUDGET,
                       "help": "vertex budget for lazy exploration"}, int, 0),
    "check-invariance": (False, {"action": "store_true"}),
    "basepoint": (False, {}, int, 0),
    "trials": (False, {"required": True}, int, 1),
    "z-threshold": (False, {"default": 4.0}, float, 0, float("inf")),
    "format": (False, {"choices": ("text", "csv"), "default": "text"}),
    "out": (False, {"help": "write output to a file"}),
}
LISTS = ("p-list", "subset")


class _Command(NamedTuple):
    fn: Callable
    help: str
    options: str  # the options it takes besides --out, in --help order
    overrides: dict = {}  # option -> the keywords that differ from OPTIONS
    defaults: dict = {}  # values set without an option


def _alias(head: str) -> _Command:
    return _Command(cmd_ball, f"alias of ball --base {head}<base>",
                    "base radius seed rank p budget",
                    {"base": {"type": lambda spec: head + spec}},
                    {"format": "sgr"})


COMMANDS = {
    "ball": _Command(cmd_ball, "emit a radius-R ball of a base graph",
                     "base radius format seed rank p budget",
                     {"format": {"choices": ("sgr", "edgelist"),
                                 "default": "sgr"}}),
    "metric": _Command(cmd_metric, "local distance between two graphs",
                       "base other max-radius other-seed seed rank p budget"),
    "fingerprint": _Command(cmd_fingerprint,
                            "length-limited membership fingerprint",
                            "base radius seed rank p"),
    "aut": _Command(cmd_aut, "automorphism count of a finite graph", "graph"),
    "sample-normalizer": _alias("normalizer:"),
    "sample-poulsen": _alias("poulsen:"),
    "enumerate-normalizer": _Command(
        cmd_enumerate_normalizer, "exact output law over a finite base",
        "base check-invariance radius p budget",
        {"radius": {"required": False, "default": 2}}),
    "encode": _Command(cmd_encode, "encode a configuration as a graph",
                       "subshift radius basepoint budget"),
    "decode": _Command(cmd_decode, "read a configuration off a graph",
                       "graph radius"),
    "check-equivariance": _Command(
        cmd_check_equivariance, "shift-vs-conjugation equivariance trials",
        "subshift trials radius max-word-len seed budget",
        {"radius": {"required": False, "default": 4}}),
    "upsilon": _Command(cmd_upsilon, "retract a subgroup into the encoded set",
                        "graph subshift radius budget"),
    "lambda": _Command(cmd_lambda,
                       "exact translate pushforward of a configuration law",
                       "subshift"),
    "stab-law": _Command(cmd_stab_law, "stabilizer pushforward law", "action"),
    "tnf-check": _Command(cmd_tnf_check, "totally-non-free test", "action"),
    "first-return": _Command(cmd_first_return, "first-return map on a subset",
                             "action gen subset"),
    "estimate": _Command(cmd_estimate, "Monte Carlo cylinder mass",
                         "sampler fingerprint radius samples seed rank p"),
    "invariance": _Command(
        cmd_invariance, "conjugation-invariance z-table",
        "sampler radius samples min-mass z-threshold seed rank p format"),
    "sweep": _Command(
        cmd_sweep, "small-p convergence sweep",
        "construction base p-list fingerprint radius samples seed rank p "
        "format"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="irslab",
        description="Schreier-graph subgroup samplers and their checks",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for option in cmd.options.split() + ["out"]:
            keywords = OPTIONS[option][1] | cmd.overrides.get(option, {})
            sp.add_argument(f"--{option}", **keywords)
        sp.set_defaults(fn=cmd.fn, **cmd.defaults)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_DOMAIN if e.code not in (0, None) else EXIT_OK
    try:
        _read_numbers(args)
        text, code = args.fn(args)
        _write(args.out, text)
        return code
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
