"""Pluggable execution backends.

A backend decides *how* a compiled plan's window loop is driven:

* :class:`SerialBackend` — one window at a time, in-process (the
  reference implementation, and what streaming sessions tick on unless
  given a backend);
* :class:`VectorizedBackend` — lowers the targeted coverage to maximal
  runs of consecutive windows and executes each operator as a single
  NumPy array program over one contiguous run buffer per stream
  (:mod:`~repro.core.runtime.vectorized`), falling back per node to the
  window-by-window semantics where lowering is not exact.  One-shot
  ``CompiledQuery.run()`` uses it when no backend is given.

Both backends produce bit-identical :class:`~repro.core.runtime.result.StreamResult`
event columns for the same plan; the parity suite in
``tests/core/test_backends.py`` asserts this across operator-chain queries
in both targeted and eager modes.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

from repro.core.compiler import CompiledPlan
from repro.core.graph import topological_order
from repro.core.runtime.executor import _window_starts, build_stats, execute_plan
from repro.core.runtime.result import StreamResult
from repro.core.runtime.vectorized import (
    RunExecutor,
    plan_vector_info,
    runs_for_starts,
)
from repro.errors import ExecutionError


class ExecutionBackend:
    """Base class for execution backends."""

    #: Short name used in stats, benchmarks and error messages.
    name = "backend"

    def execute(
        self, plan: CompiledPlan, targeted: bool = True, collect: bool = True
    ) -> StreamResult:
        """Run *plan* and return its result stream."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class SerialBackend(ExecutionBackend):
    """Execute every window in order, in the calling process."""

    name = "serial"

    def execute(
        self, plan: CompiledPlan, targeted: bool = True, collect: bool = True
    ) -> StreamResult:
        return execute_plan(plan, targeted=targeted, collect=collect)


def fork_available() -> bool:
    """True when the platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def vectorized_fallback_reason(plan: CompiledPlan) -> str:
    """Why the vectorized backend would run *plan* entirely serially.

    Names the specific blocking property — the cache tracer, the plan-level
    soundness failure (including which node scales time), or the absence of
    any lowerable operator — so the fallback is attributable in
    :attr:`~repro.core.runtime.result.ExecutionStats.fallback_reason` and in
    :func:`recommend_backend`'s reason.
    """
    if plan.tracer is not None:
        return "plan carries a cache tracer, which models per-window buffer touches"
    info = plan_vector_info(plan)
    if not info.runnable:
        return info.reason
    return (
        f"none of the plan's {info.operator_nodes} operator node(s) lowers "
        "to a run kernel"
    )


def plan_lowers(plan: CompiledPlan) -> bool:
    """True when run execution applies to *plan* and has work to amortise.

    False for cache-tracing plans (the tracer models per-window buffer
    touches), plans where run execution is unsound, and plans where no
    operator lowers; the vectorized backend runs those serially.
    """
    return plan.tracer is None and plan_vector_info(plan).worthwhile


def _run_executor(plan: CompiledPlan) -> RunExecutor:
    # One executor per plan, cached on the plan so run buffers persist across
    # executions and session ticks (the pool is keyed by run length, and
    # repeated executions see the same run geometry).
    executor = plan.__dict__.get("_run_executor")
    if executor is None:
        executor = plan.__dict__["_run_executor"] = RunExecutor(
            plan.sink, plan_vector_info(plan)
        )
    return executor


class VectorizedBackend(ExecutionBackend):
    """Execute maximal runs of consecutive windows as NumPy array programs.

    The targeted coverage is converted to runs of consecutive windows
    (:func:`~repro.core.runtime.vectorized.runs_for_starts`); each run is
    pulled through the graph once, with every stream materialised in one
    contiguous run buffer and every lowerable operator executing the whole
    run per :meth:`~repro.core.operators.base.Operator.compute_run` call.
    The run length adapts to the coverage, up to the plan's slot-budget
    cap (:data:`~repro.core.runtime.vectorized.RUN_SLOT_BUDGET` grid slots
    per run buffer: a plan whose widest stream is 500 Hz runs up to 65
    one-second windows at once, and one-minute windows one at a time in its
    planned FWindows); ``max_run_windows`` lowers that cap further.  Unlowerable operators
    degrade *per node* to bit-identical window-by-window execution instead
    of failing the whole plan over to serial.

    Plans where run execution is unsound (mixed dimensions, time-scaling
    operators) or useless (no operator lowers) run on the serial backend and
    honestly report ``execution_mode == "serial"``; runs with any per-node
    fallback report ``"vectorized+serial-fallback"``.  Cache-tracing plans
    always run serially — the tracer models per-window buffer touches.
    """

    name = "vectorized"

    def __init__(self, max_run_windows: int | None = None):
        if max_run_windows is not None and max_run_windows < 1:
            raise ExecutionError(f"max_run_windows must be positive, got {max_run_windows}")
        #: Upper bound on windows per run (None: the slot-budget cap alone).
        self.max_run_windows = None if max_run_windows is None else int(max_run_windows)

    def execute(
        self, plan: CompiledPlan, targeted: bool = True, collect: bool = True
    ) -> StreamResult:
        if not plan_lowers(plan):
            result = execute_plan(plan, targeted=targeted, collect=collect)
            result.stats.fallback_reason = vectorized_fallback_reason(plan)
            return result
        starts = _window_starts(plan, targeted)
        for node in topological_order(plan.sink):
            node.reset()
        executor = _run_executor(plan)
        executor.fallback_nodes.clear()

        collected_times: list[np.ndarray] = []
        collected_values: list[np.ndarray] = []
        collected_durations: list[np.ndarray] = []
        began = time.perf_counter()
        self.execute_starts(
            plan, starts, collected_times, collected_values, collected_durations, collect
        )
        elapsed = time.perf_counter() - began

        if collected_times:
            times = np.concatenate(collected_times)
            values = np.concatenate(collected_values)
            durations = np.concatenate(collected_durations)
        else:
            times = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.float64)
            durations = np.empty(0, dtype=np.int64)
        stats = build_stats(plan, len(starts), int(times.size), elapsed, targeted)
        stats.execution_mode = (
            "vectorized+serial-fallback" if executor.fallback_nodes else self.name
        )
        # The statically planned per-window FWindows stay allocated (sessions
        # share the plan); the run buffers are this execution's own extra
        # footprint.
        stats.preallocated_bytes = plan.memory_plan.total_bytes + executor.peak_buffer_bytes
        return StreamResult(times, values, durations, stats=stats)

    def execute_starts(
        self,
        plan: CompiledPlan,
        starts,
        times: list,
        values: list,
        durations: list,
        collect: bool = True,
    ) -> tuple[int, bool]:
        """Execute the window *starts* (in order) as runs on *plan*'s state.

        Appends the emitted events to the columnar accumulators and returns
        ``(events_emitted, fell_back)``, where ``fell_back`` reports whether
        any node has executed window-by-window on this plan.  Streaming
        sessions call this once per tick with the tick's ready windows.
        """
        executor = _run_executor(plan)
        cap = executor.max_run_windows
        if self.max_run_windows is not None:
            cap = min(cap, self.max_run_windows)
        events = 0
        for start, count in runs_for_starts(starts, plan.sink.dimension, cap):
            events += executor.execute_run(start, count, collect, times, values, durations)
        return events, bool(executor.fallback_nodes)


def recommend_backend(plan: CompiledPlan, profile) -> tuple[ExecutionBackend, str]:
    """Choose between vectorized and serial ticks for a live session's *plan*.

    Returns ``(backend, reason)`` — the reason is a human-readable sentence
    the adaptive serving layer records, so backend choices are auditable
    rather than silent.  The :class:`~repro.core.runtime.profile.PlanProfile`
    (measured ticks of live sessions) decides: when ticks form runs of two
    or more consecutive windows on average, lowered operators amortise the
    per-window overhead over them, and the profile's histogram sizes the
    vectorized run cap.  Plans the vectorized backend would run serially
    anyway get :class:`SerialBackend`, with
    :func:`vectorized_fallback_reason` as the reason.
    """
    if not plan_lowers(plan):
        return SerialBackend(), vectorized_fallback_reason(plan)
    mean_run = profile.mean_run_length
    if mean_run >= 2.0:
        cap = profile.hints().max_run_windows
        return VectorizedBackend(max_run_windows=cap), (
            f"profile over {profile.ticks} tick(s) measured mean runs of "
            f"{mean_run:.1f} consecutive window(s); lowerable operators "
            f"amortise per-window overhead over runs "
            f"(cap {cap if cap is not None else 'from the slot budget'})"
        )
    return SerialBackend(), (
        f"profile over {profile.ticks} tick(s) measured mostly isolated "
        f"windows (mean run {mean_run:.1f}); run execution has nothing "
        f"to amortise"
    )
