"""Per-layer metrics of a traced pass, from its spans and returned stats.

Every metric is computed for every workload; a layer the workload does not
call reads 0.  Times are per call (mean, or the named percentile) so they
compare across runs; counts are totals over the traced pass, whose work is
fixed by the seed.  ``ingest.pool`` sessions live in worker processes, so
for ``ward-pool`` the session metrics come from the tick stats
``IngestWorkerPool.tick`` returns, and compile and cache metrics cover only
the pool's parent process.
"""

from __future__ import annotations

from lsbench.common import mean, quantile
from lsbench.spans import SpanRecorder


def _ms(spans) -> list[float]:
    return [span.seconds * 1e3 for span in spans]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, layer: dict) -> dict[str, float]:
    """Every per-layer metric, from *recorder*'s spans and the program-reported
    records in *layer* (the traced pass's ``Tally.layer``)."""
    spans = recorder.named
    metrics: dict[str, float] = {}

    # core.compiler
    compiles = spans("compiler.compile")
    metrics["compiler.compile_ms"] = mean(_ms(compiles))
    metrics["compiler.compiles"] = len(compiles)
    metrics["compiler.pass_ms"] = mean([s.attrs["pass_seconds"] * 1e3 for s in compiles])

    # serve.cache
    hits = sum(1 for s in spans("cache.lookup") if s.attrs.get("hit"))
    misses = sum(1 for s in compiles if s.attrs.get("hit") is False)
    metrics["cache.hits"] = hits
    metrics["cache.misses"] = misses
    metrics["cache.hit_ratio"] = _ratio(hits, hits + misses)
    metrics["cache.instantiate_ms"] = mean(_ms(spans("cache.instantiate")))

    # core.runtime: one-shot runs, plus every session's final result
    run_stats = [s.attrs["result"] for s in spans("runtime.run")]
    result_stats = run_stats + list(layer.get("result_stats", []))
    computed = sum(stats.windows_computed for stats in result_stats)
    skipped = sum(stats.windows_skipped for stats in result_stats)
    output = sum(stats.output_windows for stats in result_stats)
    metrics["runtime.run_ms"] = mean(_ms(spans("runtime.run")))
    metrics["runtime.windows_computed"] = computed
    metrics["runtime.windows_skipped"] = skipped
    metrics["runtime.skip_ratio"] = _ratio(skipped, skipped + output)
    metrics["runtime.fallbacks"] = sum(
        1
        for stats in result_stats
        if stats.fallback_reason is not None or "fallback" in stats.execution_mode
    )

    # serve.service and serve.subplan, from the reports pump/poll/finish return
    service_calls = spans("service.pump", "service.poll", "service.finish")
    reports = [s.attrs["result"] for s in service_calls]
    members = {
        member for group in layer.get("sharing_groups", []) for member in group["members"]
    }
    prefix_ticks = [tick for report in reports for tick in report.prefix_ticks.values()]
    member_ticks = sum(
        1 for report in reports for client_id in report.ticks if client_id in members
    )
    metrics["service.pump_ms_self"] = mean(
        [recorder.self_seconds(s) * 1e3 for s in spans("service.pump", "service.poll")]
    )
    metrics["service.swaps"] = sum(len(report.swapped) for report in reports)
    metrics["subplan.groups"] = len(layer.get("sharing_groups", []))
    metrics["subplan.prefix_ticks"] = len(prefix_ticks)
    metrics["subplan.prefix_ms"] = mean([t.elapsed_seconds * 1e3 for t in prefix_ticks])
    metrics["subplan.member_ticks_per_prefix_tick"] = _ratio(member_ticks, len(prefix_ticks))

    # core.runtime.session: ticks in this process, or on the pool's workers
    pool_ticks = spans("pool.tick")
    pool_reports = [s.attrs["result"] for s in pool_ticks + spans("pool.finish")]
    ticks = [s.attrs["tick"] for s in spans("session.tick")]
    ticks += [tick for report in pool_reports for tick in report.ticks.values()]
    elapsed = [tick.elapsed_seconds for tick in ticks]
    metrics["session.ticks"] = len(ticks)
    metrics["session.tick_ms_p50"] = quantile([e * 1e3 for e in elapsed], 0.50)
    metrics["session.tick_ms_p99"] = quantile([e * 1e3 for e in elapsed], 0.99)
    metrics["session.windows_per_tick"] = mean([tick.windows_run for tick in ticks])
    metrics["session.windows_deferred"] = sum(tick.windows_deferred for tick in ticks)
    metrics["session.plan_share"] = _ratio(
        sum(tick.plan_seconds for tick in ticks), sum(elapsed)
    )

    # ingest.gateway
    gateway = layer.get("gateway", {})
    dispatch = [s for s in spans("service.poll") if s.parent is None]
    metrics["gateway.push_ms_p99"] = quantile(_ms(spans("gateway.push")), 0.99)
    metrics["gateway.passes"] = gateway.get("passes", 0)
    metrics["gateway.ticks_per_pass"] = _ratio(gateway.get("ticks", 0), gateway.get("passes", 0))
    metrics["gateway.backlog_max"] = layer.get("backlog_max", 0)
    metrics["gateway.throttled_pushes"] = gateway.get("throttled_pushes", 0)
    metrics["gateway.busy_rejections"] = gateway.get("busy_rejections", 0)
    metrics["gateway.dispatch_busy_share"] = _ratio(
        sum(s.seconds for s in dispatch) if gateway else 0.0,
        layer.get("streamed_seconds", 0.0),
    )

    # ingest.pool
    worker_tick_seconds = sum(
        tick.elapsed_seconds for s in pool_ticks for tick in s.attrs["result"].ticks.values()
    )
    metrics["pool.push_ms"] = mean(_ms(spans("pool.push")))
    metrics["pool.tick_ms_p50"] = quantile(_ms(pool_ticks), 0.50)
    metrics["pool.finish_ms"] = mean(_ms(spans("pool.finish")))
    metrics["pool.results_ms"] = mean(_ms(spans("pool.results")))
    metrics["pool.recoveries"] = layer.get("pool_recoveries", 0)
    metrics["pool.tick_busy_ratio"] = _ratio(
        worker_tick_seconds, sum(s.seconds for s in pool_ticks)
    )

    # the open-loop load generator
    metrics["loadgen.lag_ms_p99"] = quantile(
        [lag * 1e3 for lag in layer.get("lag_seconds", [])], 0.99
    )
    return metrics
