"""The three benchmark workloads: inputs, timed units, output checks and
metrics.

A workload is a `setup` that builds its inputs from the workload seed, a
`unit` of work that the run repeats while time allows, and a `summarize`
that turns the recorded units into metrics. Units never share mutable
state, so unit k does the same work whether it runs untraced or traced.

Every timed item (a chunk of samples, a ball, an exact call) is scaled by
the reference clock (clock.py), and the gated figures are medians over
items, so neither a burst of load nor a slow minute on a shared machine
moves them much.

The program is reached only through the `ir` package object handed in by
the runner, and every call goes through a module attribute
(`ir.montecarlo.invariance_report`, not a name imported here), so the
tracer's wrappers see each call.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

from clock import Clock

perf = time.perf_counter


def derive(seed: int, *parts) -> int:
    """64-bit input seed from the workload seed. Uses its own hash, not the
    program's keyed generator, so inputs stay fixed when the program's
    random stream changes and deriving them adds no traced calls."""
    data = repr((seed,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def tail_rank(n: int) -> int | None:
    """0-based rank of the highest percentile with at least 10 samples
    beyond it in a sorted list of n samples, or None when n < 11."""
    return n - 11 if n >= 11 else None


def percentile_report(values) -> tuple[float, float | None, str]:
    """(median, tail, description of the tail) of a list of timings."""
    xs = sorted(values)
    k = tail_rank(len(xs))
    if k is None:
        return statistics.median(xs), None, f"n={len(xs)}, too few for a tail"
    pct = 100.0 * (k + 1) / len(xs)
    return statistics.median(xs), xs[k], f"p{pct:.4g}, n={len(xs)}"


@dataclass
class Tally:
    """Output checks and digests of a run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def digest(self, name: str, text: str) -> None:
        h = self.digests.setdefault(name, hashlib.blake2b(digest_size=16))
        h.update(text.encode())

    def hexdigests(self) -> dict:
        return {k: h.hexdigest() for k, h in sorted(self.digests.items())}


@dataclass
class Context:
    """What a unit needs from the run: checks, the reference clock and the
    tracer's item spans (a no-op when untraced)."""

    tally: Tally
    clock: Clock
    item: object = nullcontext


class _Ticks:
    """Start time of each sample, in chunks of `size` samples; a clock mark
    between chunks gives each chunk its scale."""

    def __init__(self, clock: Clock, size: int):
        self.clock = clock
        self.size = size
        self.chunks: list[tuple] = []  # (scale, sample start times, end)
        self._starts = array("d")

    def tick(self) -> None:
        if len(self._starts) == self.size:
            self.close()
        self._starts.append(perf())

    def close(self) -> None:
        """End the current chunk; call once more after the last sample."""
        end = perf()
        if self._starts:
            self.chunks.append((self.clock.mark(), self._starts, end))
            self._starts = array("d")


class _TickingLaw(_Ticks):
    """A law that ticks at each sample: one tick per Monte Carlo sample of
    invariance_report, covering the draw and its fingerprints."""

    def __init__(self, law, clock: Clock, size: int):
        super().__init__(clock, size)
        self.law = law
        self.rank = law.rank

    def sample(self, seed: int):
        self.tick()
        return self.law.sample(seed)


class _TickingSpec(_Ticks):
    """A cylinder spec that ticks at each membership test after the first:
    convergence_sweep tests the point base once, then estimate_cylinder
    tests each sample."""

    def __init__(self, spec, clock: Clock, size: int):
        super().__init__(clock, size)
        self.spec = spec
        self.radius = spec.radius
        self._base_tested = False

    def matches(self, oracle) -> bool:
        if self._base_tested:
            self.tick()
        self._base_tested = True
        return self.spec.matches(oracle)


CHUNK = 500  # samples per timed chunk


def chunk_seconds(chunks) -> list[float]:
    """Scaled duration of each chunk."""
    return [scale * (end - starts[0]) for scale, starts, end in chunks]


def sample_seconds(chunks) -> array:
    """Scaled duration of each sample: the gap to the next start."""
    return array("d", (scale * (b - a) for scale, starts, end in chunks
                       for a, b in zip(starts, starts[1:] + array("d", [end]))))


# -- montecarlo ---------------------------------------------------------------
# Many small cold samples whose balls are never built: keyed hashing,
# cylinder fingerprints and the statistics layer do the work. The only
# workload that runs the montecarlo module.

MC_SIZES = {"invariance": 20_000, "sweep": 10_000}
MC_SWEEP_P = (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100))


def mc_setup(ir, seed: int, sizes: dict):
    laws = ir.laws
    trivial = laws.trivial_law(2)
    return {
        "seed": seed,
        "sizes": sizes,
        "honest": laws.PoulsenLaw(
            laws.NormalizerLaw(trivial, Fraction(1, 10)), Fraction(1, 10)),
        "biased": laws.NormalizerLaw(trivial, Fraction(1, 2), biased_root_slot=0),
        "trivial": trivial,
        "spec": ir.montecarlo.CylinderSpec(((),), 2),
    }


def mc_unit(ir, inp: dict, u: int, ctx: Context) -> dict:
    mc = ir.montecarlo
    n_inv = inp["sizes"]["invariance"]
    n_sweep = inp["sizes"]["sweep"]
    seed = inp["seed"]
    honest = _TickingLaw(inp["honest"], ctx.clock, min(CHUNK, n_inv))
    biased = _TickingLaw(inp["biased"], ctx.clock, min(CHUNK, n_inv))
    spec = _TickingSpec(inp["spec"], ctx.clock, min(CHUNK, n_sweep))
    with ctx.item("invariance"):
        rows = mc.invariance_report(honest, 1, n_inv, derive(seed, "mc", u, "honest"))
    honest.close()
    with ctx.item("biased-control"):
        neg = mc.invariance_report(biased, 1, n_inv, derive(seed, "mc", u, "biased"))
    biased.close()
    with ctx.item("sweep"):
        sweep = mc.convergence_sweep("poulsen", inp["trivial"], MC_SWEEP_P, spec,
                                     n_sweep, derive(seed, "mc", u, "sweep"))
    spec.close()

    tally = ctx.tally
    honest_z = max((r.z for r in rows), default=None)
    tally.check(honest_z is not None and honest_z <= 4,
                f"unit {u}: honest max z {honest_z} exceeds 4")
    neg_z = max((r.z for r in neg), default=None)
    tally.check(neg_z is not None and neg_z > 6,
                f"unit {u}: biased control max z {neg_z} is not above 6")
    for r in sweep:
        tally.check(r.bound is not None and float(r.deviation) <= r.bound,
                    f"unit {u}: sweep deviation {r.deviation} at p={r.p} "
                    f"exceeds bound {r.bound}")
    last = sweep[-1]
    tally.check(last.p == Fraction(1, 100) and last.estimate >= Fraction(4, 5),
                f"unit {u}: estimate {last.estimate} at p={last.p} below 4/5")
    tally.digest("invariance_report", mc.render_invariance(rows))
    tally.digest("biased_control_report", mc.render_invariance(neg))
    tally.digest("sweep_report", mc.render_sweep(sweep))

    # keep chunk times, not tick times, so memory does not grow with units
    per_p = len(spec.chunks) // len(MC_SWEEP_P)
    groups = {"honest": honest.chunks, "biased": biased.chunks}
    for k, p in enumerate(MC_SWEEP_P):
        groups[f"sweep p={p}"] = spec.chunks[k * per_p:(k + 1) * per_p]
    return {
        "chunks": {g: chunk_seconds(c) for g, c in groups.items()},
        "samples": {g: sum(len(starts) for _, starts, _ in c)
                    for g, c in groups.items()},
        "honest_sample_s": sample_seconds(honest.chunks),
    }


def mc_summarize(units: list[dict]):
    # a group's time per unit: its chunks per unit times the median chunk
    samples = units[0]["samples"]
    durations = {g: len(c) * statistics.median([t for u in units
                                                for t in u["chunks"][g]])
                 for g, c in units[0]["chunks"].items()}
    wall = sum(durations.values())
    inv = ("honest", "biased")
    inv_rate = sum(samples[g] for g in inv) / sum(durations[g] for g in inv)
    sweep = [g for g in durations if g not in inv]
    sweep_rate = sum(samples[g] for g in sweep) / sum(durations[g] for g in sweep)
    p50, tail, how = percentile_report(
        [1e3 * t for u in units for t in u["honest_sample_s"]])
    gated = {"wall_s": wall, "rate_per_s": inv_rate, "item_ms.p50": p50}
    named = [
        ("mc.invariance_samples_per_s", inv_rate, "1/s", ""),
        ("mc.sweep_samples_per_s", sweep_rate, "1/s", ""),
        ("mc.wall_s", wall, "s", f"{len(units)} units"),
        ("mc.sample_ms.p50", p50, "ms", "honest invariance samples"),
        ("mc.sample_ms.tail", tail, "ms", how),
    ]
    return gated, named


# -- deep-ball ----------------------------------------------------------------
# Large cold balls: each mark is looked up again from the memo about 2r
# times, so the three-layer neighbor chain, token building and BallView
# construction do the work, with no fingerprints or statistics. The
# emit/parse round trip is the graph format written beside a read.

BALL_SIZES = {"radius": 7, "batch": 10}


def ball_setup(ir, seed: int, sizes: dict):
    laws = ir.laws
    return {
        "seed": seed,
        "sizes": sizes,
        "law": laws.PoulsenLaw(
            laws.NormalizerLaw(laws.trivial_law(2), Fraction(1, 10)),
            Fraction(1, 10)),
    }


def ball_unit(ir, inp: dict, u: int, ctx: Context) -> dict:
    radius = inp["sizes"]["radius"]
    batch = inp["sizes"]["batch"]
    balls = []
    for j in range(batch):
        i = u * batch + j
        with ctx.item("ball"):
            t0 = perf()
            view = ir.oracles.ball(inp["law"].sample(derive(inp["seed"], "ball", i)),
                                   radius)
            t1 = perf()
            try:
                ir.oracles.validate_schreier_ball(view)
                valid = True
            except ir.errors.InvalidGraphError:
                valid = False
            t2 = perf()
            text = ir.sgr.emit_sgr(view)
            back = ir.sgr.parse_sgr(text)
            same = ir.poulsen.view_equal_exact(view, back)
            t3 = perf()
        scale = ctx.clock.mark()
        ctx.tally.check(valid, f"ball {i}: fails validate_schreier_ball")
        ctx.tally.check(same, f"ball {i}: parse_sgr(emit_sgr(v)) differs from v")
        ctx.tally.digest("emit_sgr", text)
        balls.append({"extract": scale * (t1 - t0), "vertices": len(view.vertices),
                      "roundtrip": scale * (t3 - t2), "total": scale * (t3 - t0)})
    return {"balls": balls}


def ball_summarize(units: list[dict]):
    balls = [b for u in units for b in u["balls"]]
    wall = statistics.median(sum(b["total"] for b in u["balls"]) for u in units)
    rate = statistics.median(b["vertices"] / b["extract"] for b in balls)
    p50, tail, how = percentile_report([1e3 * b["extract"] for b in balls])
    roundtrip = statistics.median(1e3 * b["roundtrip"] for b in balls)
    gated = {"wall_s": wall, "rate_per_s": rate, "item_ms.p50": p50}
    named = [
        ("ball.extract_ms.p50", p50, "ms", f"n={len(balls)}"),
        ("ball.extract_ms.tail", tail, "ms", how),
        ("ball.vertices_per_s", rate, "1/s", "median over balls"),
        ("ball.sgr_roundtrip_ms.p50", roundtrip, "ms", f"n={len(balls)}"),
        ("ball.wall_s", wall, "s",
         f"median over {len(units)} batches of {len(units[0]['balls'])} balls"),
    ]
    return gated, named


# -- exact --------------------------------------------------------------------
# Exponential exact enumeration with no keyed hashing: canonical codes,
# rooted comparison of finite graphs, FiniteOracle rebuilds and Fraction
# arithmetic do the work. A hashing change should leave it unchanged.

EXACT_SIZES = {"indices": (3, 4, 5, 6, 7, 8), "random_index": 8, "enum_index": 5}
P_EXACT = Fraction(1, 2)
# P(aut trivial) at p = 1/2 for the cyclic base s1 = s2 = +1 on Z/n.
CYCLIC_AUT_TRIVIAL = {
    3: Fraction(57, 64),
    4: Fraction(113, 128),
    5: Fraction(1005, 1024),
    6: Fraction(3881, 4096),
    7: Fraction(16317, 16384),
    8: Fraction(8057, 8192),
}


EXACT_CHUNK = 250  # mark assignments per timed chunk


class _TickingVertices(tuple):
    """The vertex tuple of an exact base, ticking each time it is iterated:
    aut_trivial_mass and enumerate_normalizer_law iterate it once per mark
    assignment, so a long call is timed in short chunks."""

    ticks = None

    def __iter__(self):
        if self.ticks is not None:
            self.ticks.tick()
        return super().__iter__()


def cyclic_base(ir, n: int):
    step = tuple((v + 1) % n for v in range(n))
    return ir.oracles.FiniteOracle.from_perms([step, step])


def exact_setup(ir, seed: int, sizes: dict):
    actions = ir.actions
    wanted = set(sizes["indices"]) | {sizes["enum_index"]}
    action = actions.random_transitive_action(sizes["random_index"], 2,
                                              derive(seed, "exact", "base"))
    cyclic = {n: cyclic_base(ir, n) for n in sorted(wanted)}
    random_base = actions.orbit_schreier(action, 0)
    for base in (*cyclic.values(), random_base):
        base.vertices = _TickingVertices(base.vertices)
    return {"sizes": sizes, "cyclic": cyclic, "random": random_base}


def aut_outcomes(base) -> int:
    """Mark assignments enumerated by aut_trivial_mass."""
    return (base.rank + 1) ** len(base.vertices)


def law_outcomes(base) -> int:
    """Mark assignments times root slots enumerated by
    enumerate_normalizer_law: three slots when the root is marked."""
    r = base.rank
    return (r + 1) ** (len(base.vertices) - 1) * (1 + 3 * r)


def _timed(ctx: Context, calls: dict, name: str, fn, base=None):
    """Run fn as one exact item, in chunks of EXACT_CHUNK mark assignments
    of `base`; record the scaled chunk times under `name`."""
    ticks = _Ticks(ctx.clock, EXACT_CHUNK)
    if base is not None:
        base.vertices.ticks = ticks
    with ctx.item("base"):
        ticks.tick()
        out = fn()
    ticks.close()
    if base is not None:
        base.vertices.ticks = None
    calls[name] = chunk_seconds(ticks.chunks)
    return out


def exact_unit(ir, inp: dict, u: int, ctx: Context) -> dict:
    normalizer = ir.normalizer
    sizes = inp["sizes"]
    tally = ctx.tally
    calls = {}
    outcomes = 0
    for n in sizes["indices"]:
        base = inp["cyclic"][n]
        mass = _timed(ctx, calls, f"cyclic{n}",
                      lambda: normalizer.aut_trivial_mass(base, P_EXACT), base)
        outcomes += aut_outcomes(base)
        expected = CYCLIC_AUT_TRIVIAL.get(n)
        tally.check(mass == expected,
                    f"cyclic index {n}: mass {mass}, expected {expected}")
        tally.digest("aut_trivial_masses", f"{n} {mass}\n")
    base = inp["random"]
    mass = _timed(ctx, calls, "random",
                  lambda: normalizer.aut_trivial_mass(base, P_EXACT), base)
    outcomes += aut_outcomes(base)
    tally.digest("aut_trivial_masses", f"random {mass}\n")

    base = inp["cyclic"][sizes["enum_index"]]
    law = _timed(ctx, calls, "enumerate",
                 lambda: normalizer.enumerate_normalizer_law(base, P_EXACT), base)
    rows = _timed(ctx, calls, "exact_rows",
                  lambda: ir.montecarlo.exact_invariance_rows(law, 2))
    outcomes += law_outcomes(base)
    tally.check(law.total() == 1, f"enumerated law totals {law.total()}, not 1")
    tally.check(bool(rows) and all(r.deviation == 0 for r in rows),
                "an exact invariance deviation is not 0")
    tally.digest("exact_invariance_rows", ir.montecarlo.render_invariance(rows))
    return {"outcomes": outcomes, "calls": calls,
            "top": f"cyclic{max(sizes['indices'])}"}


def exact_summarize(units: list[dict]):
    # every unit repeats the same calls in the same chunks: a call's time is
    # the sum over its chunks of each chunk's median over the units
    calls = {c: sum(map(statistics.median, zip(*(u["calls"][c] for u in units))))
             for c in units[0]["calls"]}
    wall = sum(calls.values())
    rate = units[0]["outcomes"] / wall
    top = units[0]["top"]
    gated = {"wall_s": wall, "rate_per_s": rate, "item_ms.p50": 1e3 * calls[top]}
    named = [
        ("exact.wall_s", wall, "s", f"{len(units)} units"),
        ("exact.outcomes_per_s", rate, "1/s",
         f"{units[0]['outcomes']} outcomes per unit"),
        (f"exact.{top}_ms.p50", 1e3 * calls[top], "ms", f"n={len(units)}"),
    ]
    return gated, named


@dataclass(frozen=True)
class Workload:
    setup: object
    unit: object
    summarize: object
    sizes: dict


WORKLOADS = {
    "montecarlo": Workload(mc_setup, mc_unit, mc_summarize, MC_SIZES),
    "deep-ball": Workload(ball_setup, ball_unit, ball_summarize, BALL_SIZES),
    "exact": Workload(exact_setup, exact_unit, exact_summarize, EXACT_SIZES),
}
