"""Layer microbenchmarks: one keyed digest, one warm neighbor step per
oracle layer, a cold radius-6 ball per layer and one canonical code.

Each figure is the median of REPEATS reference-scaled timings (clock.py).
They run untraced, before a traced pass.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

from clock import Clock
from workloads import cyclic_base, derive

perf = time.perf_counter
REPEATS = 5
P = Fraction(1, 10)
LETTERS = (1, 2, -1, -2)


def _scaled_median(fn, clock: Clock) -> float:
    """Median over REPEATS of the scaled time of one call of fn."""
    times = []
    for _ in range(REPEATS):
        t0 = perf()
        fn()
        dt = perf() - t0
        times.append(dt * clock.mark())
    return statistics.median(times)


def _layer_oracles(ir, seed: int) -> dict:
    laws = ir.laws
    cayley = ir.oracles.CayleyOracle(2)
    return {
        "cayley": cayley,
        "normalizer": ir.normalizer.normalizer_oracle(cayley, P, seed),
        "poulsen": laws.PoulsenLaw(laws.NormalizerLaw(laws.trivial_law(2), P),
                                   P).sample(seed),
    }


def _vertices(oracle, radius: int) -> list:
    """Vertices within `radius` of the root, found through neighbor."""
    seen = {oracle.root}
    frontier = [oracle.root]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for l in LETTERS:
                w = oracle.neighbor(v, l)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return list(seen)


def micro_metrics(ir, seed: int, clock: Clock) -> dict:
    """Microbenchmark figures as {name: (value, unit)}."""
    out = {}
    digest128 = ir.randomness.digest128
    # a Poulsen-over-normalizer vertex: (path of percolated cosets, coset)
    key = ((("b", (1, -2)), ("t", (2, 2), 1)), ("b", (1, 1, -2)))

    def digests():
        for _ in range(5000):
            digest128(seed, "perc", key)

    out["randomness.digest_us"] = (1e6 / 5000 * _scaled_median(digests, clock), "us")

    for layer, oracle in _layer_oracles(ir, derive(seed, "micro", "step")).items():
        steps = [(v, l) for v in _vertices(oracle, 3) for l in LETTERS]
        neighbor = oracle.neighbor

        def walk():
            for _ in range(20):
                for v, l in steps:
                    neighbor(v, l)

        walk()  # warm the memo tables
        out[f"oracles.neighbor_ns.{layer}"] = (
            1e9 / (20 * len(steps)) * _scaled_median(walk, clock), "ns")

    times = {layer: [] for layer in ("cayley", "normalizer", "poulsen")}
    for k in range(REPEATS):
        oracles = _layer_oracles(ir, derive(seed, "micro", "ball", k))
        for layer, oracle in oracles.items():
            t0 = perf()
            ir.oracles.ball(oracle, 6)
            dt = perf() - t0
            times[layer].append(dt * clock.mark())
    for layer, ts in times.items():
        out[f"oracles.ball6_ms.{layer}"] = (1e3 * statistics.median(ts), "ms")

    base = cyclic_base(ir, 8)
    marks = dict(zip(base.vertices, (1, 0, 0, 2, 0, 0, 1, 0)))
    tripled = ir.normalizer.NormalizerOracle(base, marks.__getitem__, 0)
    canonical_code = ir.analysis.canonical_code

    def codes():
        for _ in range(200):
            canonical_code(tripled)

    out["analysis.canonical_code_us"] = (1e6 / 200 * _scaled_median(codes, clock), "us")
    return out
