"""``ward-pool``: ward-scale ingest of many cheap sessions on a worker pool.

Every session runs the ``repro.pipelines.loadgen`` vitals query (filter,
scale, quarter-second means over a gappy 500 Hz stream) on an
:class:`~repro.ingest.IngestWorkerPool` with one worker per CPU and the
default checkpoint cadence, on the loadgen pipeline's one-second windows.
The load is a **closed loop** of rounds: push one second of stream for every
session, then ``tick()``, which returns once every worker has replied.  A
run repeats *epochs* — set up a pool and connect every session, stream
:data:`ROUNDS` rounds, finish, collect results, close — so set-up is
measured once per epoch.
"""

from __future__ import annotations

import os
import time

import numpy as np

from lsbench.common import Tally, another
from repro import ArraySource, LifeStreamEngine
from repro.core.timeutil import TICKS_PER_SECOND
from repro.ingest import IngestWorkerPool
from repro.pipelines.loadgen import CATALOG, PERIOD, loadgen_query, synthetic_stream

N_SESSIONS = 256
ROUNDS = 20
CHUNK_MS = 1000
QUERY_NAME = "vitals"
#: Epochs in the fixed-work (traced) mode.
TRACE_EPOCHS = 2


def n_workers() -> int:
    return len(os.sched_getaffinity(0))


def make_inputs(seed: int) -> dict:
    """One gappy stream per session, pre-split into per-round chunks."""
    sessions = {}
    for index in range(N_SESSIONS):
        times, values = synthetic_stream(seed * 10_000 + index, ROUNDS * CHUNK_MS / 1000)
        bounds = np.searchsorted(times, np.arange(ROUNDS + 1) * CHUNK_MS)
        sessions[f"bed-{index:03d}"] = {
            "times": times,
            "values": values,
            "chunks": [
                (times[bounds[r] : bounds[r + 1]], values[bounds[r] : bounds[r + 1]])
                for r in range(ROUNDS)
            ],
        }
    return {"sessions": sessions, "rounds": ROUNDS}


def references(inputs: dict) -> dict:
    """Each session's query as a one-shot run over its whole stream."""
    expected = {}
    for client_id, stream in inputs["sessions"].items():
        source = ArraySource(stream["times"], stream["values"], period=PERIOD)
        engine = LifeStreamEngine(window_size=TICKS_PER_SECOND)
        expected[client_id] = engine.compile(loadgen_query(), {"ecg": source}).run()
    return expected


def run(inputs: dict, expected: dict, seconds: float, fixed_work: bool = False) -> Tally:
    """Closed-loop epochs for *seconds* (or ``TRACE_EPOCHS`` epochs).  Each
    round is a slice: the host's pace is measured between rounds, while the
    workers are idle, since tearing a pool down disturbs it."""
    sessions, rounds = inputs["sessions"], inputs["rounds"]
    tally = Tally()
    tally.sizes = {
        "sessions": len(sessions),
        "rounds_per_epoch": rounds,
        "chunk_ms": CHUNK_MS,
        "workers": n_workers(),
        "samples_per_epoch": sum(int(s["times"].size) for s in sessions.values()),
    }
    result_stats, recoveries = [], 0
    began_loop = time.perf_counter()
    epochs = 0
    tally.pace()
    while True:
        results = None
        began = time.perf_counter()
        pool = IngestWorkerPool(CATALOG, n_workers=n_workers(), window_size=TICKS_PER_SECOND)
        try:
            for client_id in sessions:
                pool.connect(client_id, QUERY_NAME)
            tally.add_setup(time.perf_counter() - began)
            try:
                for r in range(rounds):
                    began = time.perf_counter()
                    events = 0
                    for client_id, stream in sessions.items():
                        times, values = stream["chunks"][r]
                        if times.size:
                            pool.push(client_id, "ecg", times, values)
                            tally.attempted += 1
                            events += int(times.size)
                    pool.tick()
                    done = time.perf_counter()
                    tally.time_op(done - began)
                    tally.add_busy(done - began, events)
                    tally.pace()
                began = time.perf_counter()
                pool.finish()
                results = pool.results()
                tally.add_busy(time.perf_counter() - began, 0)
            except Exception as exc:  # a failed round ends the epoch
                tally.fail_op(f"epoch {epochs}", exc)
            recoveries += len(pool.recoveries)
        finally:
            pool.close()
        for client_id, reference in expected.items():
            actual = None if results is None else results.get(client_id)
            tally.check(client_id, reference, actual)
            if actual is not None:
                result_stats.append(actual.stats)
        epochs += 1
        if not another(epochs, began_loop, seconds, TRACE_EPOCHS if fixed_work else None):
            break
    tally.sizes["epochs"] = epochs
    tally.layer.update(result_stats=result_stats, pool_recoveries=recoveries)
    return tally
