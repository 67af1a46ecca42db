"""In-memory spans around the public calls into each layer of the engine.

The traced pass of a benchmark run wraps a fixed list of public methods
(:func:`_traced_calls`) for its duration and records one :class:`Span` per
call: name, start, end, parent span and client id, plus the stats record
the call returned.  Nothing inside the program changes; the wrappers sit
on the public boundary of each layer and are removed when the pass ends.

Parents are tracked with a :class:`contextvars.ContextVar`, so spans
recorded from concurrent asyncio tasks (the live workload) nest under the
task that made the call, not under whatever ran last on the loop.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from dataclasses import dataclass, field

_CURRENT = contextvars.ContextVar("lsbench_current_span", default=None)


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    client: str | None = None
    #: What the call returned that the metrics read (stats records, counts).
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; :meth:`write` dumps them as JSON lines."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``id(session) -> client id``, learned from ``StreamingService.open``.
        self.session_clients: dict[int, str] = {}
        self._children: dict | None = None

    def begin(self, name: str, client: str | None = None) -> tuple[Span, object]:
        """Open a span under the current one; it inherits the parent's client."""
        parent = _CURRENT.get()
        if client is None and parent is not None:
            client = self.spans[parent].client
        span = Span(len(self.spans), name, time.perf_counter(), parent=parent, client=client)
        self.spans.append(span)
        self._children = None
        return span, _CURRENT.set(span.span_id)

    @staticmethod
    def end(span: Span, token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)

    def named(self, *names: str) -> list[Span]:
        wanted = set(names)
        return [span for span in self.spans if span.name in wanted]

    def self_seconds(self, span: Span) -> float:
        """The span's duration minus the part its child spans cover."""
        if self._children is None:
            self._children = {}
            for child in self.spans:
                self._children.setdefault(child.parent, []).append((child.start, child.end))
        children = sorted(self._children.get(span.span_id, ()))
        covered = 0.0
        cursor = span.start
        for start, end in children:
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        return span.seconds - covered

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "id": span.span_id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "client": span.client,
                }
                scalars = {
                    key: value
                    for key, value in span.attrs.items()
                    if isinstance(value, (int, float, str, bool))
                }
                if scalars:
                    record["attrs"] = scalars
                handle.write(json.dumps(record) + "\n")


def _client_arg(args) -> str | None:
    """The client id when the call's first argument after ``self`` is one."""
    if len(args) > 1 and isinstance(args[1], str):
        return args[1]
    return None


def _engine_compile(recorder, original):
    def wrapper(self, query, sources=None, hints=None):
        # A compile the plan cache cannot serve runs the pass pipeline
        # directly; a cacheable one is split by the cache spans below.
        direct = self.plan_cache is None or hints is not None
        span, token = recorder.begin("compiler.compile" if direct else "engine.compile")
        try:
            compiled = original(self, query, sources, hints)
        finally:
            recorder.end(span, token)
        if direct:
            span.attrs["pass_seconds"] = sum(t.seconds for t in compiled.plan.pass_timings)
        return compiled

    return wrapper


def _cache_get_or_compile(recorder, original):
    def wrapper(self, key, compile_fn):
        misses = self.stats.misses
        span, token = recorder.begin("cache.lookup")
        try:
            template = original(self, key, compile_fn)
        finally:
            recorder.end(span, token)
        span.attrs["hit"] = self.stats.misses == misses
        if not span.attrs["hit"]:
            span.name = "compiler.compile"
            span.attrs["pass_seconds"] = sum(t.seconds for t in template.pass_timings)
        return template

    return wrapper


def _session_tick(recorder, original):
    def wrapper(self, *args, **kwargs):
        parent = _CURRENT.get()
        if parent is not None and recorder.spans[parent].name == "session.tick":
            # advance() ticks through poll(): one tick, one span.
            return original(self, *args, **kwargs)
        span, token = recorder.begin("session.tick", recorder.session_clients.get(id(self)))
        try:
            stats = original(self, *args, **kwargs)
        finally:
            recorder.end(span, token)
        span.attrs["tick"] = stats
        return stats

    return wrapper


def _service_open(recorder, original):
    def wrapper(self, *args, **kwargs):
        span, token = recorder.begin("service.open", _client_arg((self,) + args))
        try:
            session = original(self, *args, **kwargs)
        finally:
            recorder.end(span, token)
        recorder.session_clients[id(session)] = span.client
        return session

    return wrapper


def _plain(recorder, original, name, keep=None):
    if inspect.iscoroutinefunction(original):

        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            span, token = recorder.begin(name, _client_arg(args))
            try:
                result = await original(*args, **kwargs)
            finally:
                recorder.end(span, token)
            if keep is not None:
                span.attrs["result"] = keep(result)
            return result

        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span, token = recorder.begin(name, _client_arg(args))
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(span, token)
        if keep is not None:
            span.attrs["result"] = keep(result)
        return result

    return wrapper


def _traced_calls():
    """``(owner class, method name, wrapper factory)`` for every traced call."""
    from repro.core.compiler import CompiledPlan
    from repro.core.engine import CompiledQuery, LifeStreamEngine
    from repro.core.runtime.session import StreamingSession
    from repro.ingest import IngestGateway, IngestWorkerPool
    from repro.serve.cache import PlanCache
    from repro.serve.service import StreamingService

    def plain(name, keep=None):
        return lambda recorder, original: _plain(recorder, original, name, keep)

    def whole(result):
        return result

    return [
        # core.compiler and serve.cache
        (LifeStreamEngine, "compile", _engine_compile),
        (PlanCache, "get_or_compile", _cache_get_or_compile),
        (CompiledPlan, "instantiate", plain("cache.instantiate")),
        # core.runtime
        (CompiledQuery, "run", plain("runtime.run", keep=lambda result: result.stats)),
        # core.runtime.session
        (StreamingSession, "advance", _session_tick),
        (StreamingSession, "poll", _session_tick),
        (StreamingSession, "finish", _session_tick),
        # serve.service
        (StreamingService, "open", _service_open),
        (StreamingService, "pump", plain("service.pump", keep=whole)),
        (StreamingService, "poll", plain("service.poll", keep=whole)),
        (StreamingService, "finish", plain("service.finish", keep=whole)),
        # ingest.gateway
        (IngestGateway, "push", plain("gateway.push", keep=whole)),
        # ingest.pool
        (IngestWorkerPool, "push", plain("pool.push")),
        (IngestWorkerPool, "tick", plain("pool.tick", keep=whole)),
        (IngestWorkerPool, "finish", plain("pool.finish", keep=whole)),
        (IngestWorkerPool, "results", plain("pool.results")),
    ]


class traced:
    """Context manager: wrap :func:`_traced_calls` into *recorder*, then restore."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[type, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        for owner, method, factory in _traced_calls():
            original = owner.__dict__[method]
            self._saved.append((owner, method, original))
            setattr(owner, method, factory(self.recorder, original))
        return self.recorder

    def __exit__(self, *exc_info) -> None:
        for owner, method, original in reversed(self._saved):
            setattr(owner, method, original)
        self._saved.clear()
