"""Parity suite for the execution backends and operator fusion.

Asserts that fused vs. unfused plans, and both execution backends (serial
and vectorized, the latter also under several run caps), produce bit-identical
StreamResults across operator-chain queries in both targeted and eager
modes."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.query import Query
from repro.core.runtime import SerialBackend, VectorizedBackend
from repro.core.sources import ArraySource
from repro.errors import ExecutionError

from tests.conftest import make_source


def _gappy_source(n=12000, period=2, seed=7):
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * period
    keep = np.ones(n, dtype=bool)
    # A few bursty gaps so coverage is fragmented.
    for start in rng.integers(0, n - 500, size=4):
        keep[start : start + int(rng.integers(100, 400))] = False
    values = np.sin(np.arange(n) * 0.01) * 10
    return ArraySource(times[keep], values[keep], period=period)


#: Name -> query builder.  Each covers a different operator mix: pure
#: element-wise chains (fusable), stateful shifts, windowed aggregates,
#: joins over multicast fan-out, and re-gridding.
CHAIN_QUERIES = {
    "elementwise": lambda: (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 2 + 1)
        .where(lambda v: v > -5)
        .alter_duration(4)
    ),
    "shift-chain": lambda: (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v + 0.5)
        .shift(1000)
        .where(lambda v: np.abs(v) < 9)
    ),
    "aggregate": lambda: (
        Query.source("s", frequency_hz=500)
        .select(lambda v: v * 3)
        .tumbling_window(100)
        .mean()
    ),
    "sliding": lambda: (
        Query.source("s", frequency_hz=500).sliding_window(200, 100).max()
    ),
    "multicast-join": lambda: Query.source("s", frequency_hz=500).multicast(
        lambda s: s.select(lambda v: v)
        .join(s.tumbling_window(100).mean(), lambda v, m: v - m)
    ),
    "regrid-hold": lambda: (
        Query.source("s", frequency_hz=500)
        .alter_period(1, mode="hold")
        .where(lambda v: v > 0)
    ),
}

BACKENDS = {
    "serial": lambda: SerialBackend(),
    "vectorized": lambda: VectorizedBackend(),
    # Tiny run cap: every run is split, exercising run-boundary state carry.
    "vectorized-small-runs": lambda: VectorizedBackend(max_run_windows=3),
    # Further run caps move the split points: one window per run (every
    # window boundary is a run boundary), then runs of 2, 4 and 16 windows.
    "vectorized-runs-1": lambda: VectorizedBackend(max_run_windows=1),
    "vectorized-runs-2": lambda: VectorizedBackend(max_run_windows=2),
    "vectorized-runs-4": lambda: VectorizedBackend(max_run_windows=4),
    "vectorized-runs-16": lambda: VectorizedBackend(max_run_windows=16),
}


def _assert_identical(reference, candidate, label):
    np.testing.assert_array_equal(reference.times, candidate.times, err_msg=label)
    np.testing.assert_array_equal(
        reference.values, candidate.values, err_msg=label
    )
    np.testing.assert_array_equal(reference.durations, candidate.durations, err_msg=label)


class TestFusionParity:
    @pytest.mark.parametrize("backend_name", ["serial", "vectorized"])
    @pytest.mark.parametrize("name", sorted(CHAIN_QUERIES))
    @pytest.mark.parametrize("targeted", [True, False])
    def test_fused_matches_unfused(self, backend_name, name, targeted):
        source = _gappy_source()
        reference = LifeStreamEngine(
            window_size=1000, optimization_level=0, backend=SerialBackend()
        ).run(CHAIN_QUERIES[name](), {"s": source}, targeted=targeted)
        fused = LifeStreamEngine(
            window_size=1000, optimization_level=2, backend=BACKENDS[backend_name]()
        )
        candidate = fused.run(CHAIN_QUERIES[name](), {"s": source}, targeted=targeted)
        _assert_identical(reference, candidate, f"{name} on {backend_name} targeted={targeted}")


class TestBackendParity:
    @pytest.mark.parametrize("backend_name", sorted(BACKENDS))
    @pytest.mark.parametrize("query_name", sorted(CHAIN_QUERIES))
    @pytest.mark.parametrize("targeted", [True, False])
    def test_backends_bit_identical(self, backend_name, query_name, targeted):
        source = _gappy_source()
        reference = LifeStreamEngine(
            window_size=1000, optimization_level=0, backend=SerialBackend()
        ).run(CHAIN_QUERIES[query_name](), {"s": source}, targeted=targeted)
        engine = LifeStreamEngine(window_size=1000, backend=BACKENDS[backend_name]())
        candidate = engine.run(CHAIN_QUERIES[query_name](), {"s": source}, targeted=targeted)
        _assert_identical(
            reference, candidate, f"{query_name} on {backend_name} targeted={targeted}"
        )

    def test_backend_override_per_run(self):
        source = _gappy_source()
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(CHAIN_QUERIES["elementwise"](), {"s": source})
        serial = compiled.run(backend=SerialBackend())
        vectorized = compiled.run(backend=VectorizedBackend(max_run_windows=8))
        assert vectorized.stats.execution_mode == "vectorized"
        _assert_identical(serial, vectorized, "per-run backend override")

    @pytest.mark.parametrize("backend_name", ["serial", "vectorized"])
    def test_long_shift_emits_at_shifted_times(self, backend_name):
        # A shift spanning several windows must delay events by exactly the
        # offset (regression: the carry used to clamp to one window).
        n = 40
        times = np.arange(n, dtype=np.int64) * 10
        values = np.arange(n, dtype=np.float64)
        source = ArraySource(times, values, period=10)
        for offset in (80, 120):
            query = Query.source("s", period=10).shift(offset)
            for opt in (0, 2):
                engine = LifeStreamEngine(
                    window_size=40, optimization_level=opt, backend=BACKENDS[backend_name]()
                )
                result = engine.run(query, {"s": source})
                np.testing.assert_array_equal(result.times, times + offset)
                np.testing.assert_array_equal(result.values, values)
            # Fused chains use the same FIFO.
            chained = Query.source("s", period=10).select(lambda v: v).shift(offset)
            result = LifeStreamEngine(
                window_size=40, optimization_level=2, backend=BACKENDS[backend_name]()
            ).run(chained, {"s": source})
            np.testing.assert_array_equal(result.times, times + offset)
            np.testing.assert_array_equal(result.values, values)

    def test_vectorized_runs_unsafe_operators_window_by_window(self):
        # Interpolating resample is not batch-safe: inside each run it must
        # execute window by window, bit-identically to serial.
        source = _gappy_source()
        query = (
            Query.source("s", frequency_hz=500)
            .alter_period(1, mode="interpolate")
            .where(lambda v: v > 0)
        )
        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        compiled = engine.compile(query, {"s": source})
        reference = compiled.run(backend=SerialBackend())
        candidate = compiled.run()
        assert candidate.stats.execution_mode == "vectorized+serial-fallback"
        _assert_identical(reference, candidate, "unsafe operator inside runs")

    def test_long_shift_carries_across_run_boundaries(self):
        # A shift spanning three windows, with runs capped at two windows:
        # the carry must cross every run boundary intact.
        source = make_source(8000, period=2)
        query = Query.source("s", frequency_hz=500).select(lambda v: v).shift(3000)
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(query, {"s": source})
        reference = compiled.run(backend=SerialBackend())
        candidate = compiled.run(backend=VectorizedBackend(max_run_windows=2))
        _assert_identical(reference, candidate, "long shift across runs")

    def test_invalid_backend_parameters_rejected(self):
        with pytest.raises(ExecutionError):
            VectorizedBackend(max_run_windows=0)

    def test_collect_false_supported_by_all_backends(self):
        source = _gappy_source()
        for factory in BACKENDS.values():
            engine = LifeStreamEngine(window_size=1000, backend=factory())
            result = engine.run(CHAIN_QUERIES["aggregate"](), {"s": source}, collect=False)
            assert len(result) == 0
            assert result.stats.output_windows > 0


class TestExecutionStatsAcrossBackends:
    def test_windows_skipped_matches_eager_arithmetic(self):
        # The arithmetic windows_skipped must agree with what an eager run
        # actually visits.
        source = _gappy_source()
        engine = LifeStreamEngine(window_size=1000)
        compiled = engine.compile(CHAIN_QUERIES["elementwise"](), {"s": source})
        targeted = compiled.run(targeted=True)
        eager = compiled.run(targeted=False)
        assert (
            targeted.stats.windows_skipped
            == eager.stats.output_windows - targeted.stats.output_windows
        )
        assert eager.stats.windows_skipped == 0

class TestExecutionModeHonesty:
    """Regression: silent backend fallbacks used to report the requested
    backend in the stats; they must report the mode that actually ran."""

    def test_serial_backend_reports_serial(self):
        engine = LifeStreamEngine(window_size=1000, backend=SerialBackend())
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()})
        assert result.stats.execution_mode == "serial"

    def test_default_backend_reports_vectorized(self):
        # One-shot runs default to run-lowered execution.
        result = LifeStreamEngine(window_size=1000).run(
            CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()}
        )
        assert result.stats.execution_mode == "vectorized"
        assert result.stats.fallback_reason is None

    def test_vectorized_reports_vectorized_when_fully_lowered(self):
        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()})
        assert result.stats.execution_mode == "vectorized"

    def test_vectorized_partial_fallback_reports_mixed_mode(self):
        # ClipJoin has no whole-run kernel, but the Select/Where stages do:
        # the run executor lowers what it can and drops only the join node
        # to window-by-window execution, and the stats must say so.
        query = Query.source("s", frequency_hz=500).multicast(
            lambda s: s.select(lambda v: v * 2).clip_join(
                s.where(lambda v: v > 0), lambda a, b: a + b
            )
        )
        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        result = engine.run(query, {"s": _gappy_source()})
        assert result.stats.execution_mode == "vectorized+serial-fallback"
        reference = LifeStreamEngine(window_size=1000, backend=SerialBackend()).run(
            query, {"s": _gappy_source()}
        )
        _assert_identical(reference, result, "partial fallback parity")

    def test_vectorized_worthless_plan_reports_serial(self):
        # Every operator refuses to lower: run execution would be pure
        # overhead, so the backend runs (and reports) serial.
        query = Query.source("s", frequency_hz=500).multicast(
            lambda s: s.clip_join(s, lambda a, b: a + b)
        )
        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        result = engine.run(query, {"s": _gappy_source()})
        assert result.stats.execution_mode == "serial"

    def test_vectorized_with_tracer_reports_serial(self):
        from repro.memsim.tracer import AccessTracer

        tracer = AccessTracer()
        engine = LifeStreamEngine(
            window_size=1000, backend=VectorizedBackend(), tracer=tracer
        )
        result = engine.run(CHAIN_QUERIES["elementwise"](), {"s": _gappy_source()})
        assert result.stats.execution_mode == "serial"

    def test_vectorized_session_reports_mode(self):
        from repro.core.sources import ReplaySource

        engine = LifeStreamEngine(window_size=1000, backend=VectorizedBackend())
        session = engine.open_session(
            CHAIN_QUERIES["elementwise"](), {"s": ReplaySource(_gappy_source())}
        )
        session.finish()
        assert session.result().stats.execution_mode == "vectorized"
        session.close()
        # A plan with nothing to lower runs its session ticks serially.
        query = Query.source("s", frequency_hz=500).multicast(
            lambda s: s.clip_join(s, lambda a, b: a + b)
        )
        session = engine.open_session(query, {"s": ReplaySource(_gappy_source())})
        session.finish()
        assert session.result().stats.execution_mode == "serial"
        session.close()


class TestPlanLifetime:
    """Dropped plans must be freed by reference counting alone, and runs
    must not leave cyclic garbage behind.

    A reference cycle through a plan would keep its whole graph, FWindows
    included, alive until the cyclic garbage collector happens to run —
    which run-lowered execution, allocating few Python objects, triggers
    rarely."""

    @pytest.mark.parametrize("backend_name", ["serial", "vectorized"])
    def test_dropped_plan_is_freed_without_the_cycle_collector(self, backend_name):
        from repro.serve.cache import PlanCache

        gc.collect()
        gc.disable()
        try:
            for plan_cache in (None, PlanCache()):
                engine = LifeStreamEngine(window_size=1000, plan_cache=plan_cache)
                compiled = engine.compile(
                    CHAIN_QUERIES["multicast-join"](), {"s": _gappy_source()}
                )
                compiled.run(backend=BACKENDS[backend_name]())
                sink = weakref.ref(compiled.plan.sink)
                del compiled
                assert sink() is None, f"plan cache {plan_cache}"
        finally:
            gc.enable()

    @pytest.mark.parametrize("backend_name", ["serial", "vectorized"])
    def test_runs_leave_no_cyclic_garbage(self, backend_name):
        compiled = LifeStreamEngine(window_size=1000).compile(
            CHAIN_QUERIES["multicast-join"](), {"s": _gappy_source()}
        )
        backend = BACKENDS[backend_name]()
        compiled.run(backend=backend)
        gc.collect()
        gc.disable()
        try:
            compiled.run(backend=backend)
            assert gc.collect() == 0
        finally:
            gc.enable()
