"""Shared pieces of the four workloads: tallies, percentiles, output checks,
and the host's pace.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU virtual
machine, a plain Python loop switched between a fast phase and one up to
1.8x slower, each lasting from seconds to minutes, so whole 25-second runs
of one workload read up to 20 % apart.  Every workload therefore times a
fixed piece of reference work (:func:`reference_work`) between *slices* of
its own work (a pass, an epoch or a round), and :class:`Tally` scales each
duration measured in a slice by how long the reference work took around
it.  Durations are thus reported at the reference pace: as if
:func:`reference_work` took exactly :data:`REFERENCE_SECONDS`.  The
reference work uses nothing of the program, so a change to the program
moves the scaled times in full; what scaling removes is the drift of the
host.  ``bedside-live`` times its delivery latencies against a pace
measured inside its open loop instead (see there).
"""

from __future__ import annotations

import gc
import re
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: An operation that completes later than this after it was due counts as
#: late (closed-loop operations are due when they are issued).
LATE_LIMIT_MS = 250.0

#: Duration of :func:`reference_work` at the reference pace.
REFERENCE_SECONDS = 0.010
#: Reference timings a slice is scaled by: the one that closes it and the
#: ones before.  Their median rides out a single disturbed timing.
PACE_WINDOW = 3

_REFERENCE_ARRAY = np.random.default_rng(0).standard_normal(200_000)


def reference_work() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes now.

    The mix resembles the program's (a Python loop, a dict of strings,
    sorting and scanning a 1.6 MB array).  The garbage
    collector is paused so the program's live objects cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        total = 0
        for i in range(60_000):
            total += i * i
        names = {i: str(i) for i in range(20_000)}
        np.sort(_REFERENCE_ARRAY)
        np.cumsum(_REFERENCE_ARRAY)
        float((_REFERENCE_ARRAY * 2.5 + 1.0).sum())
        elapsed = time.perf_counter() - began
        del names
        return elapsed
    finally:
        if enabled:
            gc.enable()


def quantile(values, q: float) -> float:
    """The *q*-quantile (0..1) of *values*, linearly interpolated; 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


def mean(values) -> float:
    return float(statistics.fmean(values)) if len(values) else 0.0


def another(done: int, began: float, seconds: float, fixed_units: int | None) -> bool:
    """Whether a loop that has run *done* units should run one more: exactly
    *fixed_units* in the fixed-work mode, else until *seconds* have passed
    since *began*."""
    if fixed_units is not None:
        return done < fixed_units
    return time.perf_counter() - began < seconds


def reset_peak_rss() -> None:
    """Restart this process's resident-memory high-water mark at its current
    size, so memory touched before the measured work (input generation,
    reference runs) does not count.  Linux only."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since :func:`reset_peak_rss` of this process or
    of its largest reaped child (a pool worker), whichever is larger.  A
    forked worker's count includes the pages it shares with this process,
    so the two are not added.  Linux reports KiB."""
    status = Path("/proc/self/status").read_text()
    own = int(re.search(r"^VmHWM:\s*(\d+) kB", status, re.MULTILINE).group(1))
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def same_result(expected, actual) -> bool:
    """Bit-identical event streams (times, values and durations)."""
    return (
        np.array_equal(expected.times, actual.times)
        and np.array_equal(expected.values, actual.values)
        and np.array_equal(expected.durations, actual.durations)
    )


@dataclass
class Tally:
    """What one pass of a workload measured and counted.

    An *operation* is one query (retro), push or due result (live), push or
    round (ward), or pump (cohort); every client's final-result check counts
    as one more.  ``op_seconds`` holds the latency of each completed timed
    operation at the reference pace, ``late`` the operations that missed
    :data:`LATE_LIMIT_MS` in wall time.

    A workload calls :meth:`pace` before its first slice and after each
    one; durations recorded in between are scaled when the slice closes.
    """

    setup_seconds: list[float] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    #: The same latencies in wall seconds, for the run record.
    op_wall_seconds: list[float] = field(default_factory=list)
    #: ``time.perf_counter()`` when each timed operation completed.
    op_done: list[float] = field(default_factory=list)
    #: Input events the timed operations processed, and the seconds they
    #: took (the ``events_per_s`` ratio).
    events: int = 0
    busy_seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Timed operations that are due (deadline-bearing) and those that were
    #: late or never completed.
    due: int = 0
    late: int = 0
    mismatches: list[str] = field(default_factory=list)
    #: Every :func:`reference_work` timing, in run order.
    reference_seconds: list[float] = field(default_factory=list)
    #: Program-reported records the per-layer metrics read.
    layer: dict = field(default_factory=dict)
    #: Sizes of the generated inputs, for the run record.
    sizes: dict = field(default_factory=dict)
    #: Durations of the open slice, in wall seconds: (setup, op, busy).
    _open: tuple = field(default_factory=lambda: ([], [], []))

    def pace(self) -> None:
        """Time the reference work, and close the open slice: scale the
        durations recorded since the last call to the reference pace."""
        if not self.reference_seconds:
            reference_work()  # the first call runs on cold caches
        self.reference_seconds.append(reference_work())
        recent = self.reference_seconds[-PACE_WINDOW:]
        scale = REFERENCE_SECONDS / statistics.median(recent)
        setups, ops, busy = self._open
        self.setup_seconds.extend(seconds * scale for seconds in setups)
        self.op_seconds.extend(seconds * scale for seconds in ops)
        self.busy_seconds += sum(busy) * scale
        self._open = ([], [], [])

    def add_setup(self, seconds: float) -> None:
        """Record one set-up of the system that took *seconds*."""
        self._open[0].append(seconds)

    def add_busy(self, seconds: float, events: int, wall_clock: bool = False) -> None:
        """Record *seconds* spent processing *events* input events.  An open
        loop's seconds are *wall_clock*: its schedule sets them, not the
        host's pace, so they are not scaled."""
        if wall_clock:
            self.busy_seconds += seconds
        else:
            self._open[2].append(seconds)
        self.events += events

    def time_op(
        self, seconds: float, done: float | None = None, scale: float | None = None
    ) -> None:
        """Record one completed, due operation that took *seconds*.  It is
        scaled to the reference pace by its slice's pace, or by *scale* when
        the caller measured the pace itself."""
        self.attempted += 1
        self.due += 1
        if scale is None:
            self._open[1].append(seconds)
        else:
            self.op_seconds.append(seconds * scale)
        self.op_wall_seconds.append(seconds)
        self.op_done.append(time.perf_counter() if done is None else done)
        if seconds * 1e3 > LATE_LIMIT_MS:
            self.late += 1

    def miss_op(self) -> None:
        """Record one due operation that never completed (a missing result)."""
        self.attempted += 1
        self.failed += 1
        self.due += 1
        self.late += 1

    def fail_op(self, label: str, exc: Exception) -> None:
        """Record one due operation that raised: it failed, and the outputs
        it should have produced are wrong."""
        self.miss_op()
        self.mismatches.append(f"{label}: {type(exc).__name__}: {exc}")

    def check(self, label: str, expected, actual, new_op: bool = True) -> None:
        """Correctness gate for one output: a mismatch fails the operation.

        ``new_op=False`` checks the output of an operation already counted
        (a retro query); otherwise the check is an operation of its own.
        """
        self.attempted += int(new_op)
        if actual is None or not same_result(expected, actual):
            self.failed += 1
            self.mismatches.append(label)

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics this pass supports (``peak_rss_mb`` aside)."""
        if any(self._open):
            self.pace()
        ops_ms = [seconds * 1e3 for seconds in self.op_seconds]
        return {
            "setup_s": statistics.median(self.setup_seconds) if self.setup_seconds else 0.0,
            "events_per_s": self.events / self.busy_seconds if self.busy_seconds else 0.0,
            "op_ms_p50": quantile(ops_ms, 0.50),
            "op_ms_p90": quantile(ops_ms, 0.90),
            "ontime_fraction": (self.due - self.late) / self.due if self.due else 0.0,
        }

    def percentiles(self) -> dict[str, dict[str, float]]:
        """Operation latency percentiles in ms, at the reference pace and in
        wall time, with the sample count, for the run record (the 95th and
        99th were not steady enough to gate on)."""
        shown = {}
        for name, seconds in (("paced", self.op_seconds), ("wall", self.op_wall_seconds)):
            ops_ms = [value * 1e3 for value in seconds]
            shown[name] = {f"p{q}": quantile(ops_ms, q / 100) for q in (50, 75, 90, 95, 99)}
        return {**shown, "samples": len(self.op_seconds)}
