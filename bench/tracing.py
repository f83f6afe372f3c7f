"""Per-layer tracing of irslab from outside the program.

The tracer replaces public functions and methods of the irslab modules with
timing wrappers for the length of a traced pass, then puts the originals
back. Nothing under src/ changes. A function is replaced in every irslab
module that holds it, so names imported elsewhere (irslab.normalizer's
digest128, irslab.montecarlo's cylinder_fingerprint, ...) are counted too.

Every wrapper adds to a per-name counter of calls and self time (its own
duration minus that of wrapped calls made inside it). High-frequency
names (neighbor, digest128, token, the mark memo) only count, so memory
stays bounded. Calls and items that happen a few times per sample, ball or
base also record a span: name, parent span, start and end. Spans and
counters are written out when the pass ends.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

perf = time.perf_counter

# (module, function, counter); functions that also record a span are in SPANNED.
FUNCTIONS = (
    ("randomness", "digest128", "randomness.digest"),
    ("randomness", "subseed", "randomness.subseed"),
    ("oracles", "ball", "oracles.ball"),
    ("oracles", "validate_schreier_ball", "oracles.validate"),
    ("analysis", "cylinder_fingerprint", "analysis.fingerprint"),
    ("analysis", "canonical_code", "analysis.canonical_code"),
    ("analysis", "rooted_equal_finite", "analysis.rooted_equal_finite"),
    ("analysis", "aut_count", "analysis.aut_count"),
    ("analysis", "oracle_from_code", "analysis.oracle_from_code"),
    ("normalizer", "aut_trivial_mass", "normalizer.aut_trivial_mass"),
    ("normalizer", "enumerate_normalizer_law", "normalizer.enumerate"),
    ("montecarlo", "invariance_report", "montecarlo.invariance_report"),
    ("montecarlo", "estimate_cylinder", "montecarlo.estimate_cylinder"),
    ("montecarlo", "convergence_sweep", "montecarlo.convergence_sweep"),
    ("montecarlo", "exact_invariance_rows", "montecarlo.exact_invariance_rows"),
    ("sgr", "emit_sgr", "sgr.emit"),
    ("sgr", "parse_sgr", "sgr.parse"),
)

# (module, class, method, counter)
METHODS = (
    ("oracles", "CayleyOracle", "neighbor", "oracles.neighbor.cayley"),
    ("normalizer", "NormalizerOracle", "neighbor", "oracles.neighbor.normalizer"),
    ("poulsen", "PoulsenOracle", "neighbor", "oracles.neighbor.poulsen"),
    ("oracles", "FiniteOracle", "neighbor", "oracles.neighbor.finite"),
    ("oracles", "CayleyOracle", "token", "oracles.token"),
    ("oracles", "FiniteOracle", "token", "oracles.token"),
    ("oracles", "RebasedOracle", "token", "oracles.token"),
    ("normalizer", "NormalizerOracle", "token", "oracles.token"),
    ("poulsen", "PoulsenOracle", "token", "oracles.token"),
    ("oracles", "FiniteOracle", "__init__", "oracles.finite_build"),
    ("laws", "PointLaw", "sample", "laws.sample"),
    ("laws", "NormalizerLaw", "sample", "laws.sample"),
    ("laws", "PoulsenLaw", "sample", "laws.sample"),
    ("normalizer", "MarkLaw", "thresholds", "normalizer.thresholds"),
    ("normalizer", "_HashMarks", "__call__", "normalizer.mark"),
    ("measures", "AtomicMeasure", "add", "measures.add"),
)

SPANNED = {
    "oracles.ball", "oracles.validate", "normalizer.aut_trivial_mass",
    "normalizer.enumerate", "montecarlo.invariance_report",
    "montecarlo.estimate_cylinder", "montecarlo.convergence_sweep",
    "montecarlo.exact_invariance_rows", "sgr.emit", "sgr.parse",
}
# A top-level draw made directly by these calls is one Monte Carlo sample.
SAMPLE_PARENTS = {"montecarlo.invariance_report", "montecarlo.estimate_cylinder"}
ENUMERATORS = {"normalizer.aut_trivial_mass", "normalizer.enumerate"}
HISTOGRAMS = {"analysis.fingerprint"}
HIST_STEP = math.log(1.01)  # 1 % wide buckets for per-call durations


class Tracer:
    """Counters, spans and the patches that feed them. Use as a context
    manager around the traced pass."""

    def __init__(self, ir):
        self.ir = ir
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.hist: dict[str, dict[int, int]] = {}
        self.frames: list[list] = [[None, 0.0]]  # [counter name, child seconds]
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.open: list[int] = []
        self.enum_depth = 0
        self.enum_outcomes = 0
        self.mark_hits = 0
        self.sgr_bytes = 0
        self.poulsen_live: list = []
        self.poulsen = {"samples": 0, "copies": 0, "perc": 0, "max_depth": 0}
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _open_span(self, name: str) -> int:
        parent = self.open[-1] if self.open else None
        self.spans.append([name, parent, perf(), None])
        self.open.append(len(self.spans) - 1)
        return self.open[-1]

    def _close_span(self, sid: int) -> None:
        while self.open:
            top = self.open.pop()
            self.spans[top][3] = perf()
            if self.spans[top][0] in ("sample", "ball"):
                self._harvest_poulsen()
            if top == sid:
                return

    @contextmanager
    def item(self, name: str):
        """Span around one item of the benchmark's own loop."""
        sid = self._open_span(name)
        try:
            yield
        finally:
            self._close_span(sid)

    def _harvest_poulsen(self) -> None:
        """Read the memo tables of the Poulsen samples the item drew."""
        acc = self.poulsen
        for oracle in self.poulsen_live:
            copies = oracle.graph._copies
            acc["samples"] += 1
            acc["copies"] += len(copies)
            acc["perc"] += len(oracle.graph._perc)
            acc["max_depth"] = max(acc["max_depth"], max(map(len, copies)))
        self.poulsen_live.clear()

    # -- wrappers ---------------------------------------------------------

    def _counted(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        frames = self.frames
        hist = self.hist.setdefault(name, {}) if name in HISTOGRAMS else None

        def counted(*args, **kwargs):
            frame = [name, 0.0]
            frames.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                frames.pop()
                stat[0] += 1
                stat[1] += dt - frame[1]
                frames[-1][1] += dt
                if hist is not None and dt > 0:
                    b = math.floor(math.log(dt * 1e6) / HIST_STEP)
                    hist[b] = hist.get(b, 0) + 1

        return counted

    def _wrap(self, name: str, fn):
        counted = self._counted(name, fn)
        if name == "laws.sample":
            def sample(law, seed):
                if self.frames[-1][0] in SAMPLE_PARENTS:
                    if self.open and self.spans[self.open[-1]][0] == "sample":
                        self._close_span(self.open[-1])
                    self._open_span("sample")
                return counted(law, seed)
            return sample
        if name == "normalizer.mark":
            def lookup(marks, v):
                if v in marks.cache:
                    self.mark_hits += 1
                return counted(marks, v)
            return lookup
        if name == "sgr.emit":
            def emit(view):
                text = counted(view)
                self.sgr_bytes += len(text.encode())
                return text
            return emit
        if name in SPANNED:
            enum = name in ENUMERATORS

            def spanned(*args, **kwargs):
                sid = self._open_span(name)
                self.enum_depth += enum
                try:
                    return counted(*args, **kwargs)
                finally:
                    self.enum_depth -= enum
                    self._close_span(sid)
            return spanned
        return counted

    def _hooks(self):
        """Uncounted hooks on constructors: Poulsen samples are collected
        for their memo tables, normalizer graphs built inside an exact
        enumeration are its outcomes."""
        poulsen_init = self.ir.poulsen.PoulsenOracle.__init__
        normalizer_init = self.ir.normalizer.NormalizerOracle.__init__

        def on_poulsen(oracle, *args, **kwargs):
            poulsen_init(oracle, *args, **kwargs)
            self.poulsen_live.append(oracle)

        def on_normalizer(oracle, *args, **kwargs):
            normalizer_init(oracle, *args, **kwargs)
            if self.enum_depth:
                self.enum_outcomes += 1

        return (
            (self.ir.poulsen.PoulsenOracle, "__init__", on_poulsen),
            (self.ir.normalizer.NormalizerOracle, "__init__", on_normalizer),
        )

    def __enter__(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "irslab" or k.startswith("irslab.")]
        for mod, fn_name, name in FUNCTIONS:
            original = getattr(getattr(self.ir, mod), fn_name)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)
        for mod, cls_name, meth, name in METHODS:
            cls = getattr(getattr(self.ir, mod), cls_name)
            self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))
        for owner, attr, hook in self._hooks():
            self._patch(owner, attr, hook)
        self.t_start = perf()
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        self.wall = perf() - self.t_start
        while self.open:
            self._close_span(self.open[0])
        self._harvest_poulsen()
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def hist_median_us(self, name: str) -> float:
        hist = self.hist.get(name) or {}
        total = sum(hist.values())
        seen = 0
        for b in sorted(hist):
            seen += hist[b]
            if 2 * seen >= total:
                return math.exp((b + 0.5) * HIST_STEP)
        return 0.0

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.t_start
        doc = {
            "meta": meta,
            "counters": {k: {"calls": c, "self_s": s}
                         for k, (c, s) in sorted(self.stats.items())},
            "span_fields": ["name", "parent", "start_s", "end_s"],
            "spans": [[n, p, round(a - t0, 7), round(b - t0, 7)]
                      for n, p, a, b in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


NEIGHBOR_LAYERS = ("cayley", "normalizer", "poulsen", "finite")
# Report-building calls; their self time excludes the sampling and
# fingerprint work done inside them.
TABULATE = ("montecarlo.invariance_report", "montecarlo.estimate_cylinder",
            "montecarlo.convergence_sweep", "montecarlo.exact_invariance_rows")


def layer_metrics(tr: Tracer, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    p = tr.poulsen
    per_sample = max(p["samples"], 1)
    lookups = tr.calls("normalizer.mark")
    out = {
        "randomness.digest_calls": (tr.calls("randomness.digest"), "count"),
        "randomness.digest_self_s": (tr.self_s("randomness.digest"), "s"),
        "randomness.digest_share": (tr.self_s("randomness.digest") / tr.wall, "ratio"),
        "randomness.subseed_calls": (tr.calls("randomness.subseed"), "count"),
        "laws.sample_calls": (tr.calls("laws.sample"), "count"),
        "laws.sample_self_s": (tr.self_s("laws.sample"), "s"),
    }
    for layer in NEIGHBOR_LAYERS:
        out[f"oracles.neighbor_calls.{layer}"] = (
            tr.calls(f"oracles.neighbor.{layer}"), "count")
        out[f"oracles.neighbor_self_s.{layer}"] = (
            tr.self_s(f"oracles.neighbor.{layer}"), "s")
    out.update({
        "oracles.token_calls": (tr.calls("oracles.token"), "count"),
        "oracles.token_self_s": (tr.self_s("oracles.token"), "s"),
        "oracles.ball_self_s": (tr.self_s("oracles.ball"), "s"),
        "oracles.finite_build_calls": (tr.calls("oracles.finite_build"), "count"),
        "oracles.finite_build_self_s": (tr.self_s("oracles.finite_build"), "s"),
        "normalizer.mark_lookups": (lookups, "count"),
        "normalizer.mark_hit_ratio": (tr.mark_hits / lookups if lookups else 0.0,
                                      "ratio"),
        "normalizer.thresholds_calls": (tr.calls("normalizer.thresholds"), "count"),
        "normalizer.enum_outcomes": (tr.enum_outcomes, "count"),
        "poulsen.copies_drawn": (p["copies"] / per_sample, "count"),
        "poulsen.max_depth": (p["max_depth"], "count"),
        "poulsen.perc_draws": (p["perc"] / per_sample, "count"),
        "analysis.fingerprint_calls": (tr.calls("analysis.fingerprint"), "count"),
        "analysis.fingerprint_self_s": (tr.self_s("analysis.fingerprint"), "s"),
        "analysis.fingerprint_us.p50": (tr.hist_median_us("analysis.fingerprint"),
                                        "us"),
    })
    for fn in ("canonical_code", "rooted_equal_finite"):
        out[f"analysis.{fn}_calls"] = (tr.calls(f"analysis.{fn}"), "count")
        out[f"analysis.{fn}_self_s"] = (tr.self_s(f"analysis.{fn}"), "s")
    out.update({
        "analysis.aut_count_calls": (tr.calls("analysis.aut_count"), "count"),
        "analysis.oracle_from_code_calls": (tr.calls("analysis.oracle_from_code"),
                                            "count"),
        "montecarlo.tabulate_self_s": (sum(map(tr.self_s, TABULATE)), "s"),
        "measures.add_calls": (tr.calls("measures.add"), "count"),
        "measures.add_self_s": (tr.self_s("measures.add"), "s"),
        "sgr.emit_self_s": (tr.self_s("sgr.emit"), "s"),
        "sgr.parse_self_s": (tr.self_s("sgr.parse"), "s"),
        "sgr.bytes": (tr.sgr_bytes, "B"),
        "trace.overhead_ratio": (tr.wall / untraced_wall, "ratio"),
    })
    return out
