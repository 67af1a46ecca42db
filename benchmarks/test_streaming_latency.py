"""Per-tick latency of incremental streaming sessions vs. full re-runs.

Acceptance measurement for the streaming execution subsystem: before
sessions existed, serving a live stream through the engine meant advancing
the :class:`~repro.core.sources.ReplaySource` watermark and recompiling +
re-running the query from time zero on every tick — O(stream length) work
per tick, quadratic over the stream's life.  A
:class:`~repro.core.runtime.session.StreamingSession` executes only the
newly-covered windows per tick while carrying operator state forward, so
per-tick work is O(tick length).

The benchmark replays the Figure 3 ECG+ABP workload tick-by-tick both
ways, asserts the two final results are bit-identical to a one-shot batch
run, and requires the session loop to beat per-tick re-running end-to-end.
"""

import numpy as np
import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.bench.workloads import e2e_dataset
from repro.core.engine import LifeStreamEngine
from repro.core.runtime import SerialBackend
from repro.core.sources import ArraySource, ReplaySource
from repro.core.timeutil import TICKS_PER_SECOND, period_from_hz
from repro.pipelines.e2e import ABP_HZ, ECG_HZ, lifestream_e2e_query

HEADERS = ["mode", "ticks", "total seconds", "mean tick ms", "max tick ms",
           "speedup vs re-run"]

#: Replayed stream length and watermark step (one-second live ticks).
DURATION_SECONDS = 20.0
TICK = TICKS_PER_SECOND
#: The session loop must beat recompile-and-re-run-from-zero end-to-end.
REQUIRED_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def workload():
    ecg, abp = e2e_dataset(duration_seconds=DURATION_SECONDS, seed=77)
    end = int(max(ecg[0][-1], abp[0][-1]))
    watermarks = list(range(TICK, end + 2 * TICK, TICK))
    return ecg, abp, watermarks


def _replay_sources(ecg, abp):
    return {
        "ecg": ReplaySource(ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ))),
        "abp": ReplaySource(ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ))),
    }


def _advance(sources, watermark):
    for source in sources.values():
        source.advance(watermark)


def _batch_reference(ecg, abp):
    sources = {
        "ecg": ArraySource(ecg[0], ecg[1], period=period_from_hz(ECG_HZ)),
        "abp": ArraySource(abp[0], abp[1], period=period_from_hz(ABP_HZ)),
    }
    engine = LifeStreamEngine(window_size=TICKS_PER_SECOND)
    return engine.run(lifestream_e2e_query(resample_mode="hold"), sources)


def _run_session(ecg, abp, watermarks):
    """Incremental path: one long-lived session, one tick per watermark."""
    engine = LifeStreamEngine(window_size=TICKS_PER_SECOND)
    session = engine.open_session(
        lifestream_e2e_query(resample_mode="hold"), _replay_sources(ecg, abp)
    )
    for watermark in watermarks:
        session.advance(watermark)
    session.finish()
    result = session.result()
    latencies = [t.elapsed_seconds for t in session.ticks]
    session.close()
    return result, latencies


def _run_rerun(ecg, abp, watermarks):
    """Pre-session path: recompile and re-run from time zero on every tick.

    Serial, like the session it is compared with."""
    import time

    engine = LifeStreamEngine(window_size=TICKS_PER_SECOND, backend=SerialBackend())
    sources = _replay_sources(ecg, abp)
    latencies = []
    result = None
    for watermark in watermarks:
        _advance(sources, watermark)
        began = time.perf_counter()
        result = engine.run(lifestream_e2e_query(resample_mode="hold"), sources)
        latencies.append(time.perf_counter() - began)
    return result, latencies


def _assert_identical(reference, candidate, label):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(reference.durations, candidate.durations, err_msg=label)


def test_streaming_session_latency(benchmark, report_registry, workload):
    ecg, abp, watermarks = workload
    report = get_report(
        report_registry,
        "streaming_latency",
        f"Per-tick latency over {DURATION_SECONDS:.0f}s of live replay "
        f"(1-second ticks, Figure 3 workload)",
        HEADERS,
    )
    reference = _batch_reference(ecg, abp)

    rerun_result, rerun_latencies = _run_rerun(ecg, abp, watermarks)
    _assert_identical(reference, rerun_result, "full re-run vs batch")

    _, (session_result, session_latencies) = timed_benchmark(
        benchmark, lambda: _run_session(ecg, abp, watermarks)
    )
    _assert_identical(reference, session_result, "incremental session vs batch")

    rerun_total = sum(rerun_latencies)
    session_total = sum(session_latencies)
    speedup = rerun_total / session_total if session_total > 0 else float("inf")
    report.record(
        (0,),
        [
            "incremental session",
            len(session_latencies),
            round(session_total, 4),
            round(1e3 * np.mean(session_latencies), 3),
            round(1e3 * np.max(session_latencies), 3),
            round(speedup, 2),
        ],
    )
    report.record(
        (1,),
        [
            "full re-run per tick",
            len(rerun_latencies),
            round(rerun_total, 4),
            round(1e3 * np.mean(rerun_latencies), 3),
            round(1e3 * np.max(rerun_latencies), 3),
            1.0,
        ],
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"incremental session was only {speedup:.2f}x faster than per-tick "
        f"re-runs (required {REQUIRED_SPEEDUP}x): "
        f"{session_total:.4f}s vs {rerun_total:.4f}s"
    )
