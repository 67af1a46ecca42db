"""Static analysis for LifeStream plans, operators and ingest code.

Three analyzers, one diagnostic vocabulary:

- :mod:`repro.analysis.plan_verifier` — a pure function over the compiled
  plan graph that proves or refutes soundness properties (grid/time-map
  algebra, vectorized-lowering soundness, fused-chain legality, join grid
  alignment, dead operators, watermark assumptions) *before* execution.
  Wired into the default pass pipeline as the ``verify`` pass; results
  surface through :attr:`CompiledPlan.diagnostics`, ``explain()`` and the
  ``strict=True`` compile mode.
- :mod:`repro.analysis.contracts` — registry-driven conformance checking of
  every :class:`~repro.core.operators.base.Operator` subclass: ``batch_safe``
  claims, ``compute_run`` parity and ``snapshot_state`` round trips,
  validated by executing synthesized geometries instead of trusting
  declarations.
- :mod:`repro.analysis.async_lint` — an AST linter over the asyncio ingest
  tier catching blocking calls inside ``async def``, unawaited coroutines
  and unbounded queue constructions.

All three run under one CLI::

    python -m repro.analysis [--plan NAME ...] [--contracts] [--lint-async]
                             [--format text|json]

which exits nonzero when any error-level diagnostic is found.
"""

from repro.analysis.async_lint import lint_async_paths, lint_async_source
from repro.analysis.contracts import (
    OperatorCase,
    builtin_cases,
    check_contracts,
    check_operator_case,
    discover_operator_classes,
)
from repro.analysis.diagnostics import (
    CODES,
    SEVERITIES,
    Diagnostic,
    count_by_severity,
    has_errors,
    render_json,
    render_text,
)
from repro.analysis.plan_verifier import verify_compiled_plan, verify_plan_graph

__all__ = [
    "CODES",
    "SEVERITIES",
    "Diagnostic",
    "OperatorCase",
    "builtin_cases",
    "check_contracts",
    "check_operator_case",
    "count_by_severity",
    "discover_operator_classes",
    "has_errors",
    "lint_async_paths",
    "lint_async_source",
    "render_json",
    "render_text",
    "verify_compiled_plan",
    "verify_plan_graph",
]
