"""The RICSA simulation-side API (Fig. 7).

Six calls instrument a simulation code's main loop, exactly as the paper
inserts them into VH1's Fortran::

    server = RICSA_StartupSimulationServer(sim, bus)
    server.RICSA_WaitAcceptConnection()
    while not done:
        sweepx(); sweepy(); sweepz()          # the original code
        server.RICSA_PushDataToVizNode()
        msg = server.RICSA_ReceiveHandleMessage()
        if msg is NewSimulationParameters:
            server.RICSA_UpdateSimulationParameters()

Data pushes go to a configurable consumer (the visualization loop or the
front end); steering messages arrive over the bus and are staged into
the simulation's pending parameters.
"""

from __future__ import annotations

from typing import Callable

from repro.data.grid import StructuredGrid
from repro.errors import SteeringError
from repro.sims.base import SteerableSimulation
from repro.steering.bus import MessageBus
from repro.steering.messages import Message, MessageKind
from repro.steering.protocol import SessionState, SessionStateMachine

__all__ = [
    "SteeringServer",
    "RICSA_StartupSimulationServer",
    "run_steered_cycles",
    "steered_cycle_slices",
]


class SteeringServer:
    """Simulation-side endpoint of the steering loop."""

    def __init__(
        self,
        simulation: SteerableSimulation,
        bus: MessageBus,
        node_name: str = "simulator",
        data_consumer: Callable[[StructuredGrid, int], None] | None = None,
    ) -> None:
        self.simulation = simulation
        self.bus = bus
        self.node_name = node_name
        self.mailbox = bus.register(node_name)
        self.data_consumer = data_consumer
        self.machine = SessionStateMachine()
        self.monitored_variable: str | None = None
        self.shutdown_requested = False

    # -- Fig. 7 API -------------------------------------------------------------

    def RICSA_WaitAcceptConnection(self, timeout: float | None = 10.0) -> Message:
        """Block until the SIMULATION_REQUEST arrives; configures the run."""
        while True:
            msg = self.mailbox.recv(timeout=timeout)
            if msg.kind is MessageKind.SIMULATION_REQUEST:
                break
            # Pre-connection messages are dropped (the Fig. 7 do/while
            # loop: keep handling until a SimulationReq).
        self.machine.check_accepts(msg.kind)
        self.machine.transition(SessionState.REQUESTED)
        self.monitored_variable = msg.payload.get("variable")
        initial = msg.payload.get("params") or {}
        if initial:
            self.simulation.apply_steering(initial)
        self.machine.transition(SessionState.CONFIGURED)
        self.machine.transition(SessionState.RUNNING)
        return msg

    def RICSA_ReceiveHandleMessage(self, block: bool = False, timeout: float = 1.0) -> Message | None:
        """Process one pending message; returns it (or ``None`` if idle)."""
        msg = self.mailbox.recv(timeout=timeout) if block else self.mailbox.poll()
        if msg is None:
            return None
        self.machine.check_accepts(msg.kind)
        if msg.kind is MessageKind.SIMULATION_PARAMS:
            self.simulation.apply_steering(msg.payload.get("params", {}))
        elif msg.kind is MessageKind.SHUTDOWN:
            self.shutdown_requested = True
            if not self.machine.terminal:
                self.machine.transition(SessionState.DONE)
        return msg

    def RICSA_UpdateSimulationParameters(self) -> None:
        """Apply staged parameters immediately (next step would anyway)."""
        self.simulation.apply_pending()

    def RICSA_PushDataToVizNode(self, variable: str | None = None) -> StructuredGrid:
        """Hand the current monitored field to the visualization loop."""
        var = variable or self.monitored_variable or self.simulation.variables()[0]
        grid = self.simulation.get_field(var)
        if self.data_consumer is not None:
            self.data_consumer(grid, self.simulation.cycle)
        return grid

    def RICSA_ShutdownSimulationServer(self) -> None:
        """Terminate the session."""
        if not self.machine.terminal:
            self.machine.transition(SessionState.DONE)


def RICSA_StartupSimulationServer(
    simulation: SteerableSimulation,
    bus: MessageBus,
    node_name: str = "simulator",
    data_consumer: Callable[[StructuredGrid, int], None] | None = None,
) -> SteeringServer:
    """Create the steering server (first call of Fig. 7)."""
    return SteeringServer(simulation, bus, node_name, data_consumer)


def steered_cycle_slices(
    server: SteeringServer,
    n_cycles: int,
    push_every: int = 1,
):
    """The Fig. 7 loop as cooperative step-slices (a generator).

    Each ``next()`` runs exactly one ``step -> push -> handle-message``
    unit and yields the cycles-run count, so a shared
    :class:`~repro.steering.executor.SimulationExecutor` can interleave
    many sessions' slices on a bounded worker pool.  The generator
    returns (``StopIteration``) on the same ``next()`` that runs the
    final cycle — whether ``n_cycles`` completed or a SHUTDOWN message
    stopped the run early — so a finished session never costs an extra
    empty slice (executor step counts equal simulation cycles run).
    """
    if server.machine.state is not SessionState.RUNNING:
        raise SteeringError("call RICSA_WaitAcceptConnection before running")
    ran = 0
    for _ in range(n_cycles):
        server.simulation.step()  # sweepx; sweepy; sweepz
        ran += 1
        if server.simulation.cycle % push_every == 0:
            server.RICSA_PushDataToVizNode()
        msg = server.RICSA_ReceiveHandleMessage()
        if msg is not None and msg.kind is MessageKind.SIMULATION_PARAMS:
            server.RICSA_UpdateSimulationParameters()
        if server.shutdown_requested or ran == n_cycles:
            break
        yield ran
    return ran


def run_steered_cycles(
    server: SteeringServer,
    n_cycles: int,
    push_every: int = 1,
) -> int:
    """The Fig. 7 main computational loop, verbatim in structure.

    Returns the number of cycles actually run (a SHUTDOWN message stops
    the loop early, saving the "runaway computation").  Built on
    :func:`steered_cycle_slices` so the synchronous path and the shared
    executor run the identical loop body.
    """
    slices = steered_cycle_slices(server, n_cycles, push_every=push_every)
    ran = 0
    while True:
        try:
            ran = next(slices)
        except StopIteration as stop:
            return stop.value if stop.value is not None else ran
