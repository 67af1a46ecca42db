"""``bedside-live``: bedside monitors pushing live data through one gateway.

Each client runs the Figure 3 query on one-second windows over two pushed
streams (ECG 500 Hz, ABP 125 Hz) through one
:class:`~repro.ingest.IngestGateway`, and one subscriber per client drains
its results.  The load is an **open loop**: every client pushes 200 ms
chunks on a fixed wall-clock schedule at :data:`SPEED` times real time,
clients staggered evenly across the push period, whether or not the
gateway keeps up.  A pushed chunk that the gateway refuses (``BUSY``) is a
failed push; it is then re-sent with waiting, so the stream stays whole.

The generator waits for each due time by yielding to the event loop, not by
sleeping, so the process never idles.  On a virtual machine, waking an idle
vCPU took about a millisecond that varied with host load, which hid the
per-tick cost of the gateway, service and sessions this workload measures.
Between yields it times a small piece of interpreter work
(:func:`reference_piece`): the host's pace during the open loop.

A *result* is one one-second output window.  Its latency runs from the due
time of the push round whose chunk completes the window's data, fixed by
the schedule, to the moment the subscriber received the batch that holds
it, so a gateway that falls behind shows its backlog in the latency.
Every window of the reference output except the last (which only the
final drain can close) is due during the stream; one never delivered fails
and counts as late.  Latencies are scaled to the reference pace (see
:mod:`lsbench.common`) by the median piece timing of their epoch, taken
while they happened: the host's speed changed within seconds, and the
median delivery latency of an epoch switched with it between about 0.55
and 0.95 ms, which the reference work timed between epochs did not follow.
Lateness is judged in wall time.  ``events_per_s`` is the pushed rate in
wall time, which the schedule sets; set-up times are scaled like every
workload's, by the pace between epochs.

A run repeats *epochs* — set up a gateway and connect every client
(:data:`SETUPS_PER_EPOCH` times, keeping the last), stream
:data:`EPOCH_STREAM_SECONDS` of data, drain, close — so set-up is sampled
throughout the run, not only at its start.
"""

from __future__ import annotations

import asyncio
import statistics
import time

import numpy as np

from lsbench.common import Tally, another
from repro import ArraySource, LifeStreamEngine, StreamResult
from repro.data.physio import generate_abp, generate_ecg
from repro.ingest import IngestGateway, PushStatus, StreamSpec
from repro.pipelines.e2e import lifestream_e2e_query

N_CLIENTS = 16
#: Wall-clock speed-up over real time of the push schedule.
SPEED = 8.0
CHUNK_MS = 200
WINDOW_MS = 1000
STREAMS = {"ecg": StreamSpec(period=2), "abp": StreamSpec(period=8)}
#: Stream seconds per client and epoch (two wall seconds at SPEED), short
#: so the host's pace, measured between epochs, is measured often.
EPOCH_STREAM_SECONDS = 16.0
SETUPS_PER_EPOCH = 4
#: Epochs in the fixed-work (traced) mode.
TRACE_EPOCHS = 1
#: Duration of :func:`reference_piece` at the reference pace: its share of
#: :func:`lsbench.common.reference_work` (0.0015, measured) times
#: :data:`lsbench.common.REFERENCE_SECONDS`.
PIECE_SECONDS = 15e-6


def reference_piece() -> float:
    """Seconds a fixed, short piece of interpreter work takes now."""
    began = time.perf_counter()
    total = 0
    for i in range(300):
        total += i * i
    return time.perf_counter() - began


def make_inputs(seed: int) -> dict:
    """Gap-free ECG/ABP streams, one pair per client."""
    clients = {}
    for index in range(N_CLIENTS):
        base = seed * 1000 + 2 * index
        ecg = generate_ecg(EPOCH_STREAM_SECONDS, seed=base)
        abp = generate_abp(EPOCH_STREAM_SECONDS, seed=base + 1)
        clients[f"bed-{index:02d}"] = {"ecg": ecg, "abp": abp}
    return {"clients": clients, "stream_seconds": EPOCH_STREAM_SECONDS}


def references(inputs: dict) -> dict:
    """Each client's query as a one-shot run over all of its data."""
    expected = {}
    for client_id, streams in inputs["clients"].items():
        sources = {
            name: ArraySource(times, values, period=STREAMS[name].period)
            for name, (times, values) in streams.items()
        }
        engine = LifeStreamEngine(window_size=WINDOW_MS)
        expected[client_id] = engine.compile(lifestream_e2e_query(), sources).run()
    return expected


def due_time(start: float, period: float, round_index: int, client: int, clients: int) -> float:
    """When client number *client* is due to push round *round_index*:
    clients are staggered evenly across the push period."""
    return start + (round_index + client / clients) * period


def completing_round(window: int, rounds: int) -> int:
    """The push round whose chunk reaches the end of result window *window*:
    the earliest round after which the window's data is all pushed."""
    return min(rounds - 1, (window + 1) * WINDOW_MS // CHUNK_MS - 1)


async def _connect_all(clients) -> tuple[IngestGateway, float]:
    began = time.perf_counter()
    gateway = IngestGateway(window_size=WINDOW_MS)
    for client_id in clients:
        await gateway.connect(lifestream_e2e_query(), STREAMS, client_id=client_id)
    return gateway, time.perf_counter() - began


async def _epoch(plan: dict, rounds: int, tally: Tally) -> dict:
    """Set up, stream every client's chunks on schedule, drain, close."""
    for _ in range(SETUPS_PER_EPOCH - 1):
        gateway, seconds = await _connect_all(plan)
        tally.add_setup(seconds)
        await gateway.aclose()
    gateway, seconds = await _connect_all(plan)
    tally.add_setup(seconds)

    period = CHUNK_MS / 1000.0 / SPEED
    received: dict[str, list] = {client_id: [] for client_id in plan}
    pieces: list[float] = []
    layer = tally.layer
    layer.setdefault("lag_seconds", [])

    async def drain(client_id, subscription):
        async for batch in subscription:
            received[client_id].append((time.perf_counter(), batch))

    async def produce(start) -> int:
        pushed = 0
        schedule = sorted(
            (due_time(start, period, r, index, len(plan)), r, client_id)
            for index, client_id in enumerate(plan)
            for r in range(rounds)
        )
        for due, r, client_id in schedule:
            while time.perf_counter() < due:
                pieces.append(reference_piece())
                await asyncio.sleep(0)
            layer["lag_seconds"].append(time.perf_counter() - due)
            for name, stream_chunks in plan[client_id].items():
                times, values = stream_chunks[r]
                try:
                    result = await gateway.push(client_id, name, times, values, wait=False)
                    if result.status is PushStatus.BUSY:
                        tally.failed += 1
                        result = await gateway.push(client_id, name, times, values)
                except Exception as exc:  # a failed push, not a failed run
                    tally.fail_op(f"{client_id} round {r}", exc)
                    continue
                tally.attempted += 1
                pushed += int(times.size)
                layer["backlog_max"] = max(layer.get("backlog_max", 0), result.backlog_samples)
        return pushed

    consumers = [
        asyncio.ensure_future(drain(client_id, gateway.subscribe(client_id)))
        for client_id in plan
    ]
    start = time.perf_counter() + period
    pushed = await produce(start)
    await gateway.flush()
    streamed = time.perf_counter() - start
    tally.add_busy(streamed, pushed, wall_clock=True)
    layer["streamed_seconds"] = layer.get("streamed_seconds", 0.0) + streamed
    counters = layer.setdefault("gateway", {})
    for name in ("passes", "ticks", "throttled_pushes", "busy_rejections"):
        counters[name] = counters.get(name, 0) + getattr(gateway.stats, name)
    # Session stats before the final drain, which closes the sessions.
    layer.setdefault("result_stats", []).extend(
        gateway.service.result(client_id).stats for client_id in plan
    )
    await gateway.aclose()
    await asyncio.gather(*consumers)
    return {"received": received, "start": start, "period": period, "pieces": pieces}


def run(inputs: dict, expected: dict, seconds: float, fixed_work: bool = False) -> Tally:
    """Open-loop epochs for *seconds* (or ``TRACE_EPOCHS`` epochs); each
    epoch is a slice."""
    tally = Tally()
    rounds = int(round(inputs["stream_seconds"] * 1000 / CHUNK_MS))
    plan = {
        client_id: {name: _chunks(*data, rounds) for name, data in streams.items()}
        for client_id, streams in inputs["clients"].items()
    }
    final_window = int(inputs["stream_seconds"] * 1000) // WINDOW_MS - 1
    began = time.perf_counter()
    epochs = 0
    tally.pace()
    while True:
        outcome = asyncio.run(_epoch(plan, rounds, tally))
        delivered_at = []
        for index, (client_id, batches) in enumerate(outcome["received"].items()):
            due_windows = set(np.unique(expected[client_id].times // WINDOW_MS).tolist())
            due_windows.discard(final_window)
            for received_at, batch in batches:
                for window in np.unique(batch.times // WINDOW_MS).tolist():
                    if window in due_windows:
                        due_windows.discard(window)
                        due = due_time(
                            outcome["start"], outcome["period"], completing_round(window, rounds),
                            index, len(plan),
                        )
                        delivered_at.append((received_at, received_at - due))
            for _ in due_windows:
                tally.miss_op()
            actual = _concatenate([batch for _, batch in batches]) if batches else None
            tally.check(client_id, expected[client_id], actual)
        pieces = outcome["pieces"]
        scale = PIECE_SECONDS / statistics.median(pieces) if pieces else None
        for received_at, latency in sorted(delivered_at):
            tally.time_op(latency, done=received_at, scale=scale)
        tally.pace()
        epochs += 1
        if not another(epochs, began, seconds, TRACE_EPOCHS if fixed_work else None):
            break
    tally.sizes = {
        "clients": len(plan),
        "stream_seconds_per_epoch": inputs["stream_seconds"],
        "epochs": epochs,
        "speed": SPEED,
        "chunk_ms": CHUNK_MS,
        "window_ms": WINDOW_MS,
    }
    return tally


def _chunks(times: np.ndarray, values: np.ndarray, rounds: int) -> list:
    """Split one stream into per-round ``(times, values)`` chunks of CHUNK_MS."""
    bounds = np.searchsorted(times, np.arange(rounds + 1) * CHUNK_MS)
    return [
        (times[bounds[r] : bounds[r + 1]], values[bounds[r] : bounds[r + 1]])
        for r in range(rounds)
    ]


def _concatenate(batches) -> StreamResult:
    return StreamResult(
        np.concatenate([batch.times for batch in batches]),
        np.concatenate([batch.values for batch in batches]),
        np.concatenate([batch.durations for batch in batches]),
    )
