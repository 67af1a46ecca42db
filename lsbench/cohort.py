"""``cohort-shared``: multi-tenant serving through one in-process service.

One :class:`~repro.serve.StreamingService` with ``subplan_sharing=True`` and
``adaptive=True`` serves a cohort in a **closed loop** of ``pump(watermark)``
calls, each advancing stream time by one window.  Half the tenants clean one
shared stream with the same prefix as ``benchmarks/test_subplan_sharing.py``
(imputation, normalisation, an amplitude filter, an interpolating
resample), so the service runs that prefix once per pump; the other half
run the same queries over private streams, so sharing is bypassed for them.
The tenants' aggregate tails come in four shapes, so the plan cache holds
more than one template.  A run repeats *epochs* — open every tenant, pump
:data:`PUMPS` times, finish, collect results, close.  ``events_per_s``
counts every tenant's input samples, shared or not: the work an unshared
service would do, so sharing shows as throughput.
"""

from __future__ import annotations

import time

import numpy as np

from lsbench.common import Tally, another
from repro import ArraySource, LifeStreamEngine, Query, ReplaySource
from repro.ops import kernels
from repro.serve import StreamingService

N_SHARED = 12
N_PRIVATE = 12
PUMPS = 60
#: The service's window size and the stream time one pump advances.
WINDOW_SIZE = 4000
CLEAN_WINDOW = 1000
#: Epochs in the fixed-work (traced) mode.
TRACE_EPOCHS = 4


def _amplitude_ok(values):
    return np.abs(values) < 3.5


def tenant_query(index: int) -> Query:
    """The shared cleaning prefix followed by one of four aggregate tails."""
    funcs = ("mean", "max", "min", "std")
    return (
        Query.source("s", frequency_hz=500)
        .transform(CLEAN_WINDOW, kernels.fill_mean_kernel(32))
        .transform(CLEAN_WINDOW, kernels.zscore_kernel())
        .where(_amplitude_ok)
        .resample(frequency_hz=250, mode="interpolate")
        .aggregate(400 + 200 * (index % 4), func=funcs[index % len(funcs)])
    )


def make_stream(seed: int, seconds: float) -> ArraySource:
    """A 500 Hz stream with a fixed number of 0.6 s gaps; the seed moves the
    gaps, the phase and the noise, never the amount of work."""
    n = int(seconds * 500)
    rng = np.random.default_rng(seed)
    times = np.arange(n, dtype=np.int64) * 2
    keep = np.ones(n, dtype=bool)
    for start in rng.integers(0, n - 300, size=max(1, n // 15000)):
        keep[start : start + 300] = False
    phase = rng.uniform(0, 2 * np.pi)
    values = np.sin(np.arange(n) * 0.011 + phase) * 5 + 0.3 * rng.standard_normal(n)
    return ArraySource(times[keep], values[keep], period=2)


def make_inputs(seed: int) -> dict:
    stream_seconds = PUMPS * WINDOW_SIZE / 1000
    shared = make_stream(seed * 1000, stream_seconds)
    tenants = {}
    for index in range(N_SHARED):
        tenants[f"shared-{index:02d}"] = (index, None)
    for index in range(N_PRIVATE):
        tenants[f"private-{index:02d}"] = (
            N_SHARED + index,
            make_stream(seed * 1000 + 1 + index, stream_seconds),
        )
    return {"shared": shared, "tenants": tenants, "pumps": PUMPS}


def tenant_streams(inputs: dict) -> dict:
    return {
        client_id: inputs["shared"] if private is None else private
        for client_id, (_, private) in inputs["tenants"].items()
    }


def references(inputs: dict) -> dict:
    """Each tenant's query as a one-shot run over its whole stream."""
    streams = tenant_streams(inputs)
    return {
        client_id: LifeStreamEngine(window_size=WINDOW_SIZE)
        .compile(tenant_query(index), {"s": streams[client_id]})
        .run()
        for client_id, (index, _) in inputs["tenants"].items()
    }


def run(inputs: dict, expected: dict, seconds: float, fixed_work: bool = False) -> Tally:
    """Closed-loop epochs for *seconds* (or ``TRACE_EPOCHS`` epochs); each
    epoch is a slice."""
    tenants, pumps = inputs["tenants"], inputs["pumps"]
    tally = Tally()
    streams = tenant_streams(inputs)
    tally.sizes = {
        "shared_tenants": sum(1 for _, private in tenants.values() if private is None),
        "private_tenants": sum(1 for _, private in tenants.values() if private is not None),
        "pumps_per_epoch": pumps,
        "window_size": WINDOW_SIZE,
        "samples_per_epoch": sum(source.event_count() for source in streams.values()),
    }
    groups, result_stats = [], []
    began_loop = time.perf_counter()
    epochs = 0
    tally.pace()
    while True:
        began = time.perf_counter()
        service = StreamingService(
            window_size=WINDOW_SIZE, subplan_sharing=True, adaptive=True
        )
        shared = ReplaySource(inputs["shared"])
        for client_id, (index, private) in tenants.items():
            source = shared if private is None else ReplaySource(private)
            service.open(client_id, tenant_query(index), {"s": source})
        tally.add_setup(time.perf_counter() - began)
        results = None
        try:
            for pump in range(1, pumps + 1):
                began = time.perf_counter()
                service.pump(pump * WINDOW_SIZE)
                elapsed = time.perf_counter() - began
                tally.time_op(elapsed)
                tally.add_busy(elapsed, 0)
            began = time.perf_counter()
            service.finish()
            results = service.results()
            tally.add_busy(time.perf_counter() - began, tally.sizes["samples_per_epoch"])
            groups = service.sharing_groups
        except Exception as exc:  # a failed pump ends the epoch
            tally.fail_op(f"epoch {epochs}", exc)
        finally:
            service.close_all()
        for client_id, reference in expected.items():
            actual = None if results is None else results.get(client_id)
            tally.check(client_id, reference, actual)
            if actual is not None:
                result_stats.append(actual.stats)
        tally.pace()
        epochs += 1
        if not another(epochs, began_loop, seconds, TRACE_EPOCHS if fixed_work else None):
            break
    tally.sizes["epochs"] = epochs
    tally.layer.update(result_stats=result_stats, sharing_groups=groups)
    return tally
