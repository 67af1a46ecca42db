"""Multi-core data-parallel execution (Figure 10(c) of the paper).

Physiological datasets hold data from thousands of patients and the
pipelines process patients independently, so the computation parallelises
across patients.  Two layers are provided:

* :func:`run_data_parallel` — **measured mode**: real data-parallel
  execution of the Figure 3 pipeline over a cohort of patients using a
  ``multiprocessing`` pool (one patient per task), the parallelism the
  paper's Figure 10(c) scales; one measured point per worker count in
  :data:`MEASURED_WORKER_COUNTS`.
* :class:`ScalingModel` — an analytic model that extrapolates measured
  single-worker throughput to arbitrary worker counts using each engine's
  memory behaviour (the Trill-like engine's per-worker join state exhausts
  machine memory above a thread count, the NumLib pipeline saturates, and
  LifeStream keeps scaling thanks to its pre-allocated, reused buffers).
  The Figure 10(c)/(d) benchmarks use the model for the full 1–48 thread
  curves beyond the host's core count; DESIGN.md documents this
  substitution, alongside the measured points.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import PatientRecord
from repro.errors import TrillOutOfMemoryError
from repro.pipelines.e2e import run_e2e

#: Machine parameters of the paper's scaling experiments (AWS m5a.8xlarge).
M5A_8XLARGE_CORES = 32
M5A_8XLARGE_MEMORY_BYTES = 128 * 1024**3


@dataclass
class ScalingPoint:
    """Throughput measured (or modelled) at one worker count."""

    workers: int
    throughput_events_per_second: float
    #: True when this configuration failed (e.g. the Trill baseline ran out
    #: of memory), in which case the throughput is reported as 0.
    failed: bool = False


@dataclass
class ScalingResult:
    """A scaling curve: one point per worker count."""

    engine: str
    points: list[ScalingPoint] = field(default_factory=list)

    def peak_throughput(self) -> float:
        """Highest throughput achieved across all successful points."""
        successful = [p.throughput_events_per_second for p in self.points if not p.failed]
        return max(successful) if successful else 0.0

    def as_rows(self) -> list[tuple[int, float]]:
        """(workers, throughput) rows for table formatting."""
        return [(p.workers, p.throughput_events_per_second) for p in self.points]


def _process_patient(args: tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]) -> int:
    """Worker: run the Figure 3 pipeline for one patient, return events processed."""
    engine, ecg_times, ecg_values, abp_times, abp_values = args
    run = run_e2e(engine, (ecg_times, ecg_values), (abp_times, abp_values))
    return run.events_ingested


def _worker_started(barrier) -> None:
    """Pool initializer: unpickling this function imported the pipeline
    modules in the worker; wait until every worker has done so."""
    barrier.wait()


#: Seconds the parent waits for every pool worker to start.
POOL_START_TIMEOUT_SECONDS = 120.0


def run_data_parallel(
    engine: str,
    patients: list[PatientRecord],
    n_workers: int,
) -> ScalingPoint:
    """Process a cohort of patients in parallel with *n_workers* processes.

    The clock covers the cohort's work only: a pool's workers have started
    their interpreters and imported the pipeline before it starts, so the
    throughput is the pool's, not its start-up.
    """
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive, got {n_workers}")
    tasks = [
        (
            engine,
            record["ecg"].times,
            record["ecg"].values,
            record["abp"].times,
            record["abp"].values,
        )
        for record in patients
    ]
    total_events = sum(record.total_events() for record in patients)
    if n_workers == 1:
        began = time.perf_counter()
        for task in tasks:
            _process_patient(task)
        elapsed = time.perf_counter() - began
    else:
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(n_workers + 1)
        with context.Pool(n_workers, initializer=_worker_started, initargs=(barrier,)) as pool:
            barrier.wait(timeout=POOL_START_TIMEOUT_SECONDS)
            began = time.perf_counter()
            pool.map(_process_patient, tasks)
            elapsed = time.perf_counter() - began
    return ScalingPoint(workers=n_workers, throughput_events_per_second=total_events / elapsed)


#: Worker counts the measured Figure 10(c) mode sweeps.
MEASURED_WORKER_COUNTS = (1, 2, 4)


@dataclass(frozen=True)
class EngineScalingProfile:
    """Per-engine parameters of the analytic scaling model."""

    name: str
    #: Fraction of ideal linear scaling retained per additional worker.
    parallel_efficiency: float
    #: Worker count beyond which throughput stops improving (None = no limit).
    saturation_workers: int | None
    #: Bytes of working memory each worker needs (grows the OOM pressure).
    memory_per_worker_bytes: int
    #: Whether per-worker memory grows with buffered join state (the Trill
    #: divergence behaviour): if True the engine fails outright once the
    #: aggregate footprint exceeds machine memory.
    oom_on_exhaustion: bool


#: Profiles reflecting the behaviours reported in Section 8.6: Trill crashes
#: beyond 12 workers, NumLib saturates around 24, LifeStream scales to the
#: core count with high efficiency.
ENGINE_PROFILES = {
    "lifestream": EngineScalingProfile(
        name="lifestream",
        parallel_efficiency=0.95,
        saturation_workers=None,
        memory_per_worker_bytes=512 * 1024**2,
        oom_on_exhaustion=False,
    ),
    "trill": EngineScalingProfile(
        name="trill",
        parallel_efficiency=0.90,
        saturation_workers=None,
        memory_per_worker_bytes=10 * 1024**3,
        oom_on_exhaustion=True,
    ),
    "numlib": EngineScalingProfile(
        name="numlib",
        parallel_efficiency=0.85,
        saturation_workers=24,
        memory_per_worker_bytes=2 * 1024**3,
        oom_on_exhaustion=False,
    ),
}


class ScalingModel:
    """Analytic multi-core scaling model calibrated from single-worker throughput."""

    def __init__(
        self,
        profile: EngineScalingProfile,
        single_worker_throughput: float,
        machine_cores: int = M5A_8XLARGE_CORES,
        machine_memory_bytes: int = M5A_8XLARGE_MEMORY_BYTES,
    ) -> None:
        if single_worker_throughput <= 0:
            raise ValueError("single_worker_throughput must be positive")
        self.profile = profile
        self.single_worker_throughput = single_worker_throughput
        self.machine_cores = machine_cores
        self.machine_memory_bytes = machine_memory_bytes

    @staticmethod
    def for_engine(engine: str, single_worker_throughput: float, **kwargs) -> "ScalingModel":
        """Build the model for one of the three engines by name."""
        if engine not in ENGINE_PROFILES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {sorted(ENGINE_PROFILES)}")
        return ScalingModel(ENGINE_PROFILES[engine], single_worker_throughput, **kwargs)

    def throughput(self, workers: int) -> ScalingPoint:
        """Modelled throughput at the given worker count."""
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        profile = self.profile
        if (
            profile.oom_on_exhaustion
            and workers * profile.memory_per_worker_bytes > self.machine_memory_bytes
        ):
            return ScalingPoint(workers=workers, throughput_events_per_second=0.0, failed=True)
        effective = min(workers, self.machine_cores)
        if profile.saturation_workers is not None:
            effective = min(effective, profile.saturation_workers)
        # Amdahl-style efficiency decay: each extra worker contributes a bit
        # less than the previous one.
        contribution = sum(profile.parallel_efficiency**index for index in range(effective))
        return ScalingPoint(
            workers=workers,
            throughput_events_per_second=self.single_worker_throughput * contribution,
        )

    def max_workers_before_oom(self) -> int | None:
        """Largest worker count that fits the machine memory (None if unlimited)."""
        if not self.profile.oom_on_exhaustion:
            return None
        return int(self.machine_memory_bytes // self.profile.memory_per_worker_bytes)

    def curve(self, worker_counts: list[int]) -> ScalingResult:
        """Modelled scaling curve over a list of worker counts."""
        return ScalingResult(
            engine=self.profile.name,
            points=[self.throughput(workers) for workers in worker_counts],
        )


def measure_single_worker_throughput(engine: str, patient: PatientRecord) -> float:
    """Measure one worker's Figure 3 pipeline throughput, for model calibration."""
    try:
        run = run_e2e(
            engine,
            (patient["ecg"].times, patient["ecg"].values),
            (patient["abp"].times, patient["abp"].values),
        )
    except TrillOutOfMemoryError:
        return 0.0
    return run.throughput_events_per_second
