"""Computing-service (CS) node: executes assigned visualization modules.

A CS node receives a VRT entry naming the modules it must run, applies
them to incoming data and forwards the result to the next hop.  The
module implementations are shared with
:class:`~repro.steering.loop.VisualizationLoopRunner` so a CS node and
the in-process loop runner can never diverge.

Execution comes in two flavours: :meth:`~ComputingServiceNode.execute`
runs inline on the caller's thread (the visualization loop's own step),
while :meth:`~ComputingServiceNode.execute_async` submits the same work
as a one-shot unit on the shared
:class:`~repro.steering.executor.SimulationExecutor` — CS module
execution shares the same bounded compute service as the simulation
step-slices instead of spawning threads of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import SteeringError
from repro.mapping.vrt import VRTEntry
from repro.net.topology import NodeSpec

__all__ = ["ComputingServiceNode", "ExecutionRecord"]


@dataclass(slots=True)
class ExecutionRecord:
    """Timing record of one VRT-entry execution."""

    node: str
    modules: tuple[str, ...]
    seconds: float
    output_bytes: float


class ComputingServiceNode:
    """Runs the modules a VRT entry assigns to this node."""

    def __init__(self, spec: NodeSpec, runner=None, executor=None) -> None:
        # Import here to avoid a module cycle: the loop runner owns the
        # module implementations.
        from repro.steering.loop import VisualizationLoopRunner

        self.spec = spec
        self._run_module = (
            runner._run_module
            if runner is not None
            else VisualizationLoopRunner.__new__(VisualizationLoopRunner)._run_module
        )
        self.executor = executor  # what execute_async runs on
        self.records: list[ExecutionRecord] = []

    def execute(self, entry: VRTEntry, data, params: dict):
        """Run every module of ``entry``; returns (output, record)."""
        if entry.node != self.spec.name:
            raise SteeringError(
                f"VRT entry addressed to {entry.node!r}, this node is "
                f"{self.spec.name!r}"
            )
        t0 = time.perf_counter()
        out_bytes = float(getattr(data, "nbytes", 0.0))
        for name in entry.module_names:
            data, out_bytes = self._run_module(name, data, params)
        seconds = (time.perf_counter() - t0) / self.spec.power
        rec = ExecutionRecord(
            node=self.spec.name,
            modules=entry.module_names,
            seconds=seconds,
            output_bytes=out_bytes,
        )
        self.records.append(rec)
        return data, rec

    def execute_async(self, entry: VRTEntry, data, params: dict):
        """Run :meth:`execute` on the shared simulation executor.

        Returns a :class:`~repro.steering.executor.CallHandle`; call
        ``.result(timeout)`` for the ``(output, record)`` pair.  The
        work unit shares the executor's bounded worker pool with the
        sessions' step-slices — no thread is created per execution.
        """
        if self.executor is None:
            raise SteeringError(
                f"computing service {self.spec.name!r} was given no executor")
        return self.executor.submit_call(
            lambda: self.execute(entry, data, params),
            label=f"cs/{self.spec.name}",
        )
