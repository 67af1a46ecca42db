"""The executable computation graph.

A compiled query is a DAG of plan nodes.  Leaf nodes wrap stream sources;
interior nodes wrap temporal operators.  Every node owns exactly one output
:class:`~repro.core.fwindow.FWindow`, allocated once by the static memory
planner, plus the operator's constant-size state.

Execution is pull-based: asking the sink node to ``fill(sync_time)``
recursively positions and fills the upstream FWindows it needs (using each
operator's event-lineage map to translate output sync times into input sync
times) and then runs the operator's vectorised kernel.  Because a node
remembers the sync time it last produced, fan-out created by ``Multicast``
never recomputes a window: the second consumer finds the window already
filled.
"""

from __future__ import annotations

import numpy as np

from repro.core.event import StreamDescriptor
from repro.core.fwindow import FWindow
from repro.core.intervals import IntervalSet
from repro.core.operators.base import Operator
from repro.core.sources import StreamSource
from repro.errors import CompilationError, ExecutionError


class PlanNode:
    """Base class for nodes of the executable computation graph."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.inputs: list[PlanNode] = []
        self.descriptor: StreamDescriptor | None = None
        self.dimension: int | None = None
        self.fwindow: FWindow | None = None
        self.coverage: IntervalSet = IntervalSet.empty()
        self._filled_at: int | None = None
        #: Number of windows this node actually computed during the last run;
        #: used by the targeted-query-processing ablation.
        self.windows_computed: int = 0

    def fill(self, sync_time: int) -> None:
        """Ensure the node's FWindow holds the window starting at *sync_time*."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear runtime state so the plan can be executed again."""
        self._filled_at = None
        self.windows_computed = 0
        if self.fwindow is not None:
            self.fwindow.reset()

    def iter_nodes(self):
        """Yield every node reachable from this one (post-order, deduplicated)."""
        yield from _walk(self, set())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dim = f"[{self.dimension}]" if self.dimension else ""
        return f"<{type(self).__name__} {self.name} {self.descriptor}{dim}>"


# Recursive helpers over plan graphs (this one, plan building and cloning
# in the compiler, the run executor's schedule walk) are module-level
# functions, not nested closures: a recursive closure references itself
# through its own cell, so each call would leave a reference cycle that
# holds the graph, FWindows included, until the cyclic garbage collector runs.
def _walk(node: PlanNode, seen: set[int]):
    """Post-order walk behind :meth:`PlanNode.iter_nodes`."""
    if id(node) in seen:
        return
    seen.add(id(node))
    for child in node.inputs:
        yield from _walk(child, seen)
    yield node


class SourceNode(PlanNode):
    """Leaf node streaming data out of a :class:`StreamSource`."""

    def __init__(self, name: str, source: StreamSource) -> None:
        super().__init__(name)
        self.source = source
        self.descriptor = source.descriptor

    def fill(self, sync_time: int) -> None:
        if self.fwindow is None:
            raise ExecutionError(f"source node {self.name} has no FWindow; was the plan compiled?")
        if self._filled_at == sync_time:
            return
        window = self.fwindow
        window.slide_to(sync_time)
        times, values, durations = self.source.read(sync_time, sync_time + window.dimension)
        if times.size:
            window.set_events(times, values, durations)
        self._filled_at = sync_time
        self.windows_computed += 1


class OperatorNode(PlanNode):
    """Interior node applying a temporal operator to its input nodes."""

    def __init__(self, name: str, operator: Operator, inputs: list[PlanNode]) -> None:
        super().__init__(name)
        self.operator = operator
        self.inputs = inputs
        if len(inputs) != operator.arity:
            raise CompilationError(
                f"operator {operator.name} expects {operator.arity} input(s), "
                f"got {len(inputs)}"
            )
        self.descriptor = operator.output_descriptor([node.descriptor for node in inputs])
        self.state = None

    def reset(self) -> None:
        super().reset()
        self.state = self.operator.make_state()

    def fill(self, sync_time: int) -> None:
        if self.fwindow is None:
            raise ExecutionError(f"node {self.name} has no FWindow; was the plan compiled?")
        if self._filled_at == sync_time:
            return
        for index, upstream in enumerate(self.inputs):
            input_sync = self.operator.input_sync_time(sync_time, index, upstream.descriptor)
            upstream.fill(input_sync)
        self.fwindow.slide_to(sync_time)
        self.operator.compute(self.fwindow, [node.fwindow for node in self.inputs], self.state)
        self._filled_at = sync_time
        self.windows_computed += 1


def topological_order(sink: PlanNode) -> list[PlanNode]:
    """All nodes reachable from *sink*, inputs before consumers."""
    return list(sink.iter_nodes())


def source_nodes(sink: PlanNode) -> list[SourceNode]:
    """The source (leaf) nodes of the graph rooted at *sink*."""
    return [node for node in sink.iter_nodes() if isinstance(node, SourceNode)]


def operator_nodes(sink: PlanNode) -> list[OperatorNode]:
    """The operator (interior) nodes of the graph rooted at *sink*."""
    return [node for node in sink.iter_nodes() if isinstance(node, OperatorNode)]


def describe_plan(sink: PlanNode) -> str:
    """Human-readable dump of the plan, one line per node.

    The format mirrors the paper's symbolic notation
    ``(offset, period)[dimension]`` from Figure 6.
    """
    lines = []
    for node in topological_order(sink):
        inputs = ", ".join(inp.name for inp in node.inputs) or "-"
        dim = node.dimension if node.dimension is not None else "?"
        lines.append(f"{node.name:<24} {node.descriptor}[{dim}]  <- {inputs}")
    return "\n".join(lines)


def total_preallocated_bytes(sink: PlanNode) -> int:
    """Total bytes of FWindow buffers pre-allocated for the plan."""
    return sum(
        node.fwindow.memory_bytes() for node in topological_order(sink) if node.fwindow is not None
    )


def plan_fragmentation(sink: PlanNode) -> float:
    """Worst-case FWindow fragmentation currently observed across the plan."""
    fragmentations = [
        node.fwindow.fragmentation()
        for node in topological_order(sink)
        if node.fwindow is not None
    ]
    return float(np.max(fragmentations)) if fragmentations else 0.0
