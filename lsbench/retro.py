"""``retro-fig3``: a retrospective analyst job over generated patient records.

Each operation compiles the Figure 3 ECG+ABP pipeline (interpolating
resample) with a fresh :class:`~repro.LifeStreamEngine` on library defaults
and runs it once over one record: compile plus first run, the cost an
analyst pays per record, not a warm best-of rerun.  Records run one at a
time in a closed loop.  Their gap fraction ranges from gap-free to 30 % in
two long bursts, so the share of windows targeted processing skips varies
from record to record.

The reference for every record is a serial one-shot run at
``optimization_level=0``, computed outside the timed region.
"""

from __future__ import annotations

import time

import numpy as np

from lsbench.common import Tally, another
from repro import ArraySource, LifeStreamEngine
from repro.core.timeutil import TICKS_PER_MINUTE
from repro.data.physio import generate_abp, generate_ecg
from repro.pipelines.e2e import lifestream_e2e_query

#: Seconds of signal per record (ten one-minute default windows).
RECORD_SECONDS = 600.0
#: Gap fraction of each record.  The gaps come in two long bursts, so the
#: larger fractions swallow whole windows, which targeted processing skips.
#: An odd count keeps the median query inside one record's cluster.
GAP_FRACTIONS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
GAP_BURSTS = 2
#: The set-up record, compiled and run once per pass: the first time in
#: the process pays the one-time costs, later ones show the warm set-up.
WARMUP_SECONDS = 60.0
#: Passes over every record in the fixed-work (traced) mode.
TRACE_PASSES = 6


def make_record(seed: int, seconds: float, gap_fraction: float) -> dict:
    """ECG (500 Hz) and ABP (125 Hz) sources from one monitor.

    The gap fraction is spent in :data:`GAP_BURSTS` disconnections of equal
    length that silence both signals.  Each starts 2 to 998 ms before an
    even-numbered default window, so how many whole windows the gaps cover
    depends on the fraction alone; the seed picks which windows.
    """
    ecg_times, ecg_values = generate_ecg(seconds, seed=seed)
    abp_times, abp_values = generate_abp(seconds, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    burst = int(gap_fraction * seconds * 1000 / GAP_BURSTS)
    # Slot 0 is left out: a gap at the start of the data shortens the
    # record's span instead of leaving windows to skip.
    slots = max(GAP_BURSTS + 1, int(seconds * 1000) // (2 * TICKS_PER_MINUTE))
    starts = rng.choice(np.arange(1, slots), size=GAP_BURSTS, replace=False)
    starts *= 2 * TICKS_PER_MINUTE
    starts -= 2 * rng.integers(1, 500, size=GAP_BURSTS)
    if burst:
        ecg_keep = np.ones(ecg_times.size, dtype=bool)
        abp_keep = np.ones(abp_times.size, dtype=bool)
        for start in starts:
            ecg_keep &= (ecg_times < start) | (ecg_times >= start + burst)
            abp_keep &= (abp_times < start) | (abp_times >= start + burst)
        ecg_times, ecg_values = ecg_times[ecg_keep], ecg_values[ecg_keep]
        abp_times, abp_values = abp_times[abp_keep], abp_values[abp_keep]
    return {
        "ecg": ArraySource(ecg_times, ecg_values, period=2),
        "abp": ArraySource(abp_times, abp_values, period=8),
    }


def make_inputs(seed: int) -> dict:
    """The records and the set-up record."""
    records = [
        make_record(seed * 1000 + 10 * index, RECORD_SECONDS, fraction)
        for index, fraction in enumerate(GAP_FRACTIONS)
    ]
    warmup = make_record(seed * 1000 + 999, WARMUP_SECONDS, 0.1)
    return {"records": records, "warmup": warmup}


def input_events(sources: dict) -> int:
    return sum(source.event_count() for source in sources.values())


def compile_and_run(sources: dict, **engine_kwargs):
    """One analyst query: a fresh engine, compile, first run."""
    engine = LifeStreamEngine(**engine_kwargs)
    return engine.compile(lifestream_e2e_query(), sources).run()


def references(inputs: dict) -> list:
    """Each record's serial, unoptimized one-shot output."""
    return [compile_and_run(record, optimization_level=0) for record in inputs["records"]]


def run(inputs: dict, expected: list, seconds: float, fixed_work: bool = False) -> Tally:
    """Closed loop over the records for *seconds* (or ``TRACE_PASSES`` passes);
    each pass is a slice."""
    tally = Tally()
    records = inputs["records"]
    tally.sizes = {
        "records": len(records),
        "record_seconds": RECORD_SECONDS,
        "events_per_record": [input_events(record) for record in records],
        "gap_fractions": list(GAP_FRACTIONS),
    }
    began_loop = time.perf_counter()
    passes = 0
    tally.pace()
    while True:
        # One set-up per pass, so its samples span the run; the first is
        # the process's first compile and run.
        began = time.perf_counter()
        compile_and_run(inputs["warmup"])
        tally.add_setup(time.perf_counter() - began)
        for index, record in enumerate(records):
            began = time.perf_counter()
            try:
                result = compile_and_run(record)
            except Exception as exc:  # an exception fails the query, not the run
                tally.fail_op(f"record {index}", exc)
                continue
            elapsed = time.perf_counter() - began
            tally.time_op(elapsed)
            tally.add_busy(elapsed, input_events(record))
            tally.check(f"record {index}", expected[index], result, new_op=False)
        tally.pace()
        passes += 1
        if not another(passes, began_loop, seconds, TRACE_PASSES if fixed_work else None):
            break
    return tally
