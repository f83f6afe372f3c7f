"""Reference-scaled timing for a shared machine.

Other tenants of a small shared machine change how fast it runs Python by
tens of percent, for seconds to minutes at a time. The benchmark therefore
runs a short fixed reference loop between the items it times and scales
each item's duration by REFERENCE_S over the mean reference time at the
item's two ends. Load slows the item and the reference alike and cancels;
a change to irslab moves the scaled time exactly as it moves the raw one.
The reference loop runs outside every timed interval.
"""

from __future__ import annotations

import time

perf = time.perf_counter

# Time of `reference_s` on an unloaded 2-core x86-64 machine (Python 3.11),
# so scaled figures read as seconds on that machine.
REFERENCE_S = 0.0033


def reference_s() -> float:
    """Time one run of a fixed loop of dict updates, the kind of
    interpreter work irslab's memo tables do. Its keys are ints, which the
    cyclic garbage collector does not track, so the loop never triggers a
    collection whose cost would depend on the program's heap."""
    t0 = perf()
    counts: dict = {}
    for i in range(20_000):
        key = (i & 255) << 12 | i >> 8
        counts[key] = counts.get(key, 0) + 1
    return perf() - t0


class Clock:
    """Scale factors for consecutive timed items."""

    def __init__(self):
        self.ref = reference_s()
        self.refs = [self.ref]
        self.spent = 0.0  # seconds spent in mark(), outside the timed items

    def mark(self) -> float:
        """End the current item: run the reference again and return the
        item's scale, REFERENCE_S over the mean of the reference times
        before and after it."""
        t0 = perf()
        before = self.ref
        self.ref = reference_s()
        self.refs.append(self.ref)
        self.spent += perf() - t0
        return 2 * REFERENCE_S / (before + self.ref)


class UnscaledClock:
    """Runs no reference loop, so the traced pass's counters and self times
    do not include it."""

    def mark(self) -> float:
        return 1.0
