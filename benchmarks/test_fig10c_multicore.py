"""Figure 10(c) — multi-core scaling of the end-to-end pipeline.

Paper result (32-core m5a.8xlarge): LifeStream scales to 32 threads and
peaks ~6× above Trill and ~1.9× above NumLib; Trill crashes with OOM beyond
12 threads; NumLib saturates around 24 threads.

The reproduction (i) measures real patient-parallel execution of the
Figure 3 pipeline over a small cohort — the parallelism the paper scales —
at every worker count in ``MEASURED_WORKER_COUNTS``, and (ii) calibrates
the analytic per-engine scaling model with the measured single-worker
throughput to reproduce the full 1–48 thread curves (the documented
substitution for the 32-core machine; those rows are labelled
"modelled").  Measured rows depend on the host's CPU count, which the
report notes: on a host with fewer CPUs than workers the measured curve
flattens, which is the honest result.
"""

import os

import pytest

from benchmarks.conftest import get_report, timed_benchmark
from repro.bench.workloads import scaling_cohort
from repro.scaling import (
    MEASURED_WORKER_COUNTS,
    ScalingModel,
    measure_single_worker_throughput,
    run_data_parallel,
)

THREAD_COUNTS = (1, 2, 4, 8, 12, 16, 24, 32, 48)

HEADERS = ["engine", "workers", "million events/s", "failed"]


@pytest.fixture(scope="module")
def cohort():
    return scaling_cohort(n_patients=4, duration_seconds=30.0, seed=0)


@pytest.fixture(scope="module")
def single_worker_throughputs(cohort):
    return {
        engine: measure_single_worker_throughput(engine, cohort[0])
        for engine in ("lifestream", "trill", "numlib")
    }


def _report(registry):
    return get_report(
        registry,
        "fig10c_multicore",
        "Figure 10(c) — multi-core scaling (measured patient-parallel, modelled curves)",
        HEADERS,
    )


@pytest.mark.parametrize("workers", MEASURED_WORKER_COUNTS)
def test_real_data_parallel_lifestream(benchmark, report_registry, cohort, workers):
    """Real patient-parallel execution: one patient per pool task."""
    seconds, point = timed_benchmark(
        benchmark, lambda: run_data_parallel("lifestream", cohort, n_workers=workers)
    )
    report = _report(report_registry)
    label = "lifestream (measured, patient-parallel)"
    report.record(
        (label, workers),
        [label, workers, point.throughput_events_per_second / 1e6, False],
    )
    if workers == MEASURED_WORKER_COUNTS[0]:
        report.note(
            f"Measured rows ran on a host with {os.cpu_count()} CPU(s), "
            f"{len(cohort)} patients; worker counts above that CPU count "
            "cannot scale."
        )
    assert point.throughput_events_per_second > 0


@pytest.mark.parametrize("engine", ["lifestream", "trill", "numlib"])
def test_modelled_scaling_curve(benchmark, report_registry, single_worker_throughputs, engine):
    """Modelled 1–48 worker curve calibrated from the measured single-worker run."""
    base = single_worker_throughputs[engine]

    def run():
        model = ScalingModel.for_engine(engine, base)
        return model.curve(list(THREAD_COUNTS))

    seconds, curve = timed_benchmark(benchmark, run)
    report = _report(report_registry)
    label = f"{engine} (modelled)"
    for point in curve.points:
        report.record(
            (label, point.workers),
            [label, point.workers, point.throughput_events_per_second / 1e6, point.failed],
        )


def test_paper_claims_hold_on_modelled_curves(benchmark, report_registry, single_worker_throughputs):
    """LifeStream peaks above both baselines; Trill fails beyond 12 workers."""

    def run():
        curves = {
            engine: ScalingModel.for_engine(engine, single_worker_throughputs[engine]).curve(
                list(THREAD_COUNTS)
            )
            for engine in ("lifestream", "trill", "numlib")
        }
        return curves

    _, curves = timed_benchmark(benchmark, run)
    assert curves["lifestream"].peak_throughput() > curves["trill"].peak_throughput()
    assert curves["lifestream"].peak_throughput() > curves["numlib"].peak_throughput()
    trill_failures = [p.workers for p in curves["trill"].points if p.failed]
    assert trill_failures and min(trill_failures) > 12
    report = _report(report_registry)
    report.note(
        "LifeStream peak / Trill peak = "
        f"{curves['lifestream'].peak_throughput() / curves['trill'].peak_throughput():.2f}x; "
        "Trill OOMs beyond 12 workers; NumLib saturates at 24."
    )
