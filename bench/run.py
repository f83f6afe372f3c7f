#!/usr/bin/env python3
"""irslab benchmark: one workload per process, outputs checked, metrics
printed by name and unit, the last line one JSON result.

    python3 bench/run.py --workload montecarlo --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from any directory; the program is imported from the src/ directory
next to this one, never from an installed copy. --trace 0 reports the
end-to-end metrics; --trace 1 runs the layer microbenchmarks, then the
workload untraced for half the time and the same units again traced, and
reports the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import REFERENCE_S, Clock, UnscaledClock
from micro import micro_metrics
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Context, Tally

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # at the start of a run and again at its end
GATED_UNITS = {"wall_s": "s", "rate_per_s": "1/s", "item_ms.p50": "ms"}

perf = time.perf_counter


class MissingProgram(RuntimeError):
    pass


def load_irslab():
    """Import irslab afresh from the checkout's src/, dropping any copy
    already imported, so each call pays the full import."""
    if not (SRC / "irslab" / "__init__.py").is_file():
        raise MissingProgram(f"no irslab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "irslab" or n.startswith("irslab.")]:
        del sys.modules[name]
    ir = importlib.import_module("irslab")
    if not Path(ir.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"irslab was imported from {ir.__file__}, not {SRC}")
    return ir


def set_up(workload, seed: int, sizes: dict, clock: Clock):
    """Import the program and build the inputs SETUP_REPEATS times. Returns
    the last import, its inputs and the scaled set-up times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf()
        ir = load_irslab()
        inputs = workload.setup(ir, seed, sizes)
        dt = perf() - t0
        times.append(dt * clock.mark())
    return ir, inputs, times


def run_units(workload, ir, inputs, ctx: Context, budget_s: float | None = None,
              count: int | None = None):
    """Run units 0, 1, ... either `count` of them or, with a budget, while
    the next one (as long as the last) would end within it; at least one."""
    units = []
    t_start = perf()
    while True:
        t0 = perf()
        units.append(workload.unit(ir, inputs, len(units), ctx))
        now = perf()
        if count is not None:
            if len(units) >= count:
                break
        elif now - t_start + (now - t0) > budget_s:
            break
    return units, perf() - t_start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool,
            sizes: dict | None = None) -> dict:
    """One run of a workload. Returns the result record: the contract's
    four keys plus `named` (the workload's own metrics), `digests`,
    `problems` and `env`."""
    workload = WORKLOADS[name]
    sizes = sizes or workload.sizes
    clock = Clock()
    ir, inputs, setup_times = set_up(workload, seed, sizes, clock)
    ctx = Context(Tally(), clock)
    if not trace:
        units, _ = run_units(workload, ir, inputs, ctx, budget_s=seconds)
        gated, named = workload.summarize(units)
        rss = peak_rss_mb()
        # set up again after the units: the median then spans the run, not
        # one moment of the machine's load
        setup_times += set_up(workload, seed, sizes, clock)[2]
        metrics = {"setup_s": (statistics.median(setup_times), "s"),
                   "peak_rss_mb": (rss, "MB")}
        metrics.update((k, (v, GATED_UNITS[k])) for k, v in gated.items())
    else:
        metrics = micro_metrics(ir, seed, clock)
        spent = clock.spent
        units, untraced_s = run_units(workload, ir, inputs, ctx,
                                      budget_s=seconds / 2)
        untraced_s -= clock.spent - spent  # the traced pass runs no reference
        named = workload.summarize(units)[1]
        tracer = Tracer(ir)
        with tracer:
            run_units(workload, ir, inputs,
                      Context(ctx.tally, UnscaledClock(), tracer.item),
                      count=len(units))
        metrics.update(layer_metrics(tracer, untraced_s))
        tracer.write(BENCH / "out" / f"trace-{name}-seed{seed}.json",
                     {"workload": name, "seed": seed, "units": len(units)})
    reference = statistics.median(clock.refs)
    named.append(("reference_ms", 1e3 * reference, "ms",
                  f"median of {len(clock.refs)}; times above are scaled by "
                  f"{1e3 * REFERENCE_S:g} ms over the reference at each item"))
    tally = ctx.tally
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": named,
        "digests": tally.hexdigests(),
        "problems": tally.problems,
        "env": environment(),
    }


def report(name: str, seed: int, trace: bool, result: dict) -> None:
    print(f"# irslab benchmark: workload {name}, seed {seed}, "
          f"{'traced' if trace else 'untraced'}")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    print("# digests " + json.dumps(result["digests"], sort_keys=True))
    for metric, value, unit, note in result["named"]:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{metric} {shown} {unit}" + (f"  ({note})" if note else ""))
    ratio = result["failed"] / result["attempted"]
    print(f"fail_ratio {ratio:.6g} ratio  "
          f"({result['failed']} of {result['attempted']} checks failed)")
    for problem in result["problems"]:
        print(f"# check failed: {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}))


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        sys.stdout.flush()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, bool(args.trace), result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
