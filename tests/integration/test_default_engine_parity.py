"""The default engine against an explicit serial reference.

One-shot runs are vectorized unless given a backend, so a reference
computed "on library defaults" is no longer serial.  These checks compare
the default engine with ``SerialBackend()`` at optimization level 0 — the
unfused, window-by-window reference semantics — in targeted and eager
modes, on the geometries where the run executor's choices matter:

* retrospective records (one-minute windows, interpolating resample, gaps
  of 0 to 30 % in two bursts), where every run is one window and computes
  in the plan's own FWindows;
* one-second windows over a gap-free stretch longer than the slot budget's
  run cap, so a single coverage run is split into several runs.
"""

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.graph import topological_order
from repro.core.runtime import SerialBackend
from repro.core.runtime.vectorized import RUN_SLOT_BUDGET, runs_for_coverage
from repro.core.sources import ArraySource
from repro.core.timeutil import TICKS_PER_MINUTE, TICKS_PER_SECOND
from repro.data.physio import generate_abp, generate_ecg
from repro.pipelines.e2e import lifestream_e2e_query


def _record(seconds, gap_fraction, seed):
    """ECG (500 Hz) and ABP (125 Hz) with two equal bursts of silence."""
    ecg_times, ecg_values = generate_ecg(seconds, seed=seed)
    abp_times, abp_values = generate_abp(seconds, seed=seed + 1)
    burst = int(gap_fraction * seconds * 1000 / 2)
    if burst:
        rng = np.random.default_rng(seed + 2)
        # Bursts start a few ms before a window boundary, so the larger
        # fractions swallow whole windows that targeted processing skips.
        pairs = int(seconds * 1000) // (2 * TICKS_PER_MINUTE)
        slots = rng.choice(np.arange(1, pairs), size=2, replace=False)
        starts = slots * 2 * TICKS_PER_MINUTE - 2 * rng.integers(1, 500, size=2)
        for start in starts:
            keep = (ecg_times < start) | (ecg_times >= start + burst)
            ecg_times, ecg_values = ecg_times[keep], ecg_values[keep]
            keep = (abp_times < start) | (abp_times >= start + burst)
            abp_times, abp_values = abp_times[keep], abp_values[keep]
    return {
        "ecg": ArraySource(ecg_times, ecg_values, period=2),
        "abp": ArraySource(abp_times, abp_values, period=8),
    }


def _assert_identical(reference, candidate, label):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(reference.values, candidate.values, err_msg=label)
    np.testing.assert_array_equal(reference.durations, candidate.durations, err_msg=label)


def _check(query, sources, window_size, targeted):
    reference = LifeStreamEngine(
        window_size=window_size, optimization_level=0, backend=SerialBackend()
    ).run(query, sources, targeted=targeted)
    compiled = LifeStreamEngine(window_size=window_size).compile(query, sources)
    candidate = compiled.run(targeted=targeted)
    # The default must really have run lowered, or the comparison is vacuous.
    assert candidate.stats.execution_mode.startswith("vectorized")
    assert reference.stats.execution_mode == "serial"
    _assert_identical(reference, candidate, f"targeted={targeted}")
    assert candidate.times.size > 0
    return compiled, candidate


def _run_cap(plan):
    widest = max(node.fwindow.capacity for node in topological_order(plan.sink))
    return RUN_SLOT_BUDGET // widest


@pytest.mark.parametrize("targeted", [True, False])
@pytest.mark.parametrize("gap_fraction", [0.0, 0.15, 0.30])
def test_retro_records_match_serial(gap_fraction, targeted):
    sources = _record(600.0, gap_fraction, seed=int(gap_fraction * 100) + 5)
    compiled, result = _check(lifestream_e2e_query(), sources, TICKS_PER_MINUTE, targeted)
    # One-minute windows at 500 Hz exceed the slot budget: runs are one
    # window long and allocate no buffers beyond the memory plan.
    assert _run_cap(compiled.plan) == 1
    assert result.stats.preallocated_bytes == compiled.plan.memory_plan.total_bytes


@pytest.mark.parametrize("targeted", [True, False])
def test_budget_split_coverage_run_matches_serial(targeted):
    sources = _record(150.0, 0.0, seed=11)
    query = lifestream_e2e_query(resample_mode="hold")
    compiled, result = _check(query, sources, TICKS_PER_SECOND, targeted)
    sink = compiled.plan.sink
    longest = max(count for _, count in runs_for_coverage(sink.coverage, sink.dimension))
    assert 1 < _run_cap(compiled.plan) < longest
    assert result.stats.preallocated_bytes > compiled.plan.memory_plan.total_bytes
