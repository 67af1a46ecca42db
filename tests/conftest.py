"""Shared fixtures for the test suite.

The fixtures build small, deterministic streams so individual tests stay
fast; the larger, realistic workloads live in ``benchmarks/``.
"""

from __future__ import annotations

import asyncio
import inspect

import numpy as np
import pytest

from repro.core.engine import LifeStreamEngine
from repro.core.runtime import SerialBackend
from repro.core.sources import ArraySource


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    """Run ``async def`` tests on a fresh event loop.

    The environment has no pytest-asyncio, so this in-repo hook provides
    the equivalent: any coroutine test function is executed to completion
    via :func:`asyncio.run` (one new loop per test — no state leaks
    between tests), with its fixtures passed through unchanged.
    """
    if inspect.iscoroutinefunction(pyfuncitem.obj):
        kwargs = {
            name: pyfuncitem.funcargs[name]
            for name in pyfuncitem._fixtureinfo.argnames
        }
        asyncio.run(pyfuncitem.obj(**kwargs))
        return True
    return None


@pytest.fixture(params=["serial", "default"])
def engine(request) -> LifeStreamEngine:
    """A LifeStream engine with a small window so tests exercise several windows.

    Every test using it runs twice: on the serial reference backend, whose
    per-window ``compute`` paths the hand-computed expectations check, and
    on the engine's default one-shot backend (vectorized run execution).
    """
    backend = SerialBackend() if request.param == "serial" else None
    return LifeStreamEngine(window_size=1000, backend=backend)


@pytest.fixture
def ramp_500hz() -> ArraySource:
    """A 500 Hz (period 2) stream of 5,000 events whose value equals its index."""
    n = 5000
    times = np.arange(n, dtype=np.int64) * 2
    values = np.arange(n, dtype=np.float64)
    return ArraySource(times, values, period=2)


@pytest.fixture
def sine_500hz() -> ArraySource:
    """A 500 Hz stream of 5,000 sine-wave samples."""
    n = 5000
    times = np.arange(n, dtype=np.int64) * 2
    values = np.sin(np.arange(n) * 0.01)
    return ArraySource(times, values, period=2)


@pytest.fixture
def ramp_125hz() -> ArraySource:
    """A 125 Hz (period 8) stream of 1,250 events whose value equals its index."""
    n = 1250
    times = np.arange(n, dtype=np.int64) * 8
    values = np.arange(n, dtype=np.float64)
    return ArraySource(times, values, period=8)


@pytest.fixture
def gappy_500hz() -> ArraySource:
    """A 500 Hz stream with a large burst gap in the middle (events 1000..2999 missing)."""
    n = 5000
    times = np.arange(n, dtype=np.int64) * 2
    values = np.arange(n, dtype=np.float64)
    keep = np.ones(n, dtype=bool)
    keep[1000:3000] = False
    return ArraySource(times[keep], values[keep], period=2)


def make_source(n: int, period: int, value_fn=None, offset: int = 0) -> ArraySource:
    """Helper used by tests that need custom stream shapes."""
    times = offset + np.arange(n, dtype=np.int64) * period
    if value_fn is None:
        values = np.arange(n, dtype=np.float64)
    else:
        values = np.asarray([value_fn(i) for i in range(n)], dtype=np.float64)
    return ArraySource(times, values, period=period, offset=offset)
