"""End-to-end steering session: executor step-slices + visualization loop.

Ties every RICSA component together in one process, the way Fig. 1's
deployment ties them together across sites: the client sends a
SIMULATION_REQUEST; the CM configures the loop (DP -> VRT); the steering
server runs the simulation's instrumented main loop as cooperative
step-slices on the shared
:class:`~repro.steering.executor.SimulationExecutor`; each data push
travels the VRT (live viz modules + modelled transport) and lands in the
session's event-sequence store, where Ajax clients long-poll
``/api/v1/<sid>/poll``.  Sessions are owned by a
:class:`~repro.steering.manager.SessionManager`; many run concurrently
on a thread budget that does not grow with session count.
"""

from __future__ import annotations

import threading

from repro.costmodel.base import compute_dataset_stats
from repro.errors import ProtocolError, SteeringError
from repro.steering.bus import MessageBus
from repro.steering.central_manager import CentralManager, VizRequest
from repro.steering.events import EventSequenceStore
from repro.steering.executor import SimulationExecutor
from repro.steering.loop import VisualizationLoopRunner
from repro.steering.messages import Message, MessageKind
from repro.viz.camera import OrthoCamera

__all__ = ["SteeringSession"]

#: Grace period for the backpressure probe's poll-recency fallback.  The
#: primary stall signal is the *live-demand* registry (parked long-poll
#: waiter counts the web tier attaches to the event store): a parked
#: poll is demand right now, regardless of when a poll last completed.
#: The recency window only covers the short gap between a client
#: receiving a delta and parking its next poll, so it can be tight —
#: the old 5-second decay window kept unwatched sessions hot for
#: seconds after their last consumer vanished.
STALLED_POLL_GRACE = 1.0


class SteeringSession:
    """One client's monitored-and-steered simulation run."""

    def __init__(
        self,
        cm: CentralManager | None,
        events: EventSequenceStore | None = None,
        bus: MessageBus | None = None,
        session_id: str = "session0",
        simulator: str = "heat",
        variable: str | None = None,
        technique: str = "isosurface",
        isovalue_fraction: float = 0.5,
        push_every: int = 1,
        sim_kwargs: dict | None = None,
        executor: SimulationExecutor | None = None,
    ) -> None:
        self._init_state(
            cm,
            events if events is not None else EventSequenceStore(),
            bus if bus is not None else MessageBus(),
            session_id, simulator, technique,
            variable=variable, isovalue_fraction=isovalue_fraction,
            push_every=push_every, executor=executor,
        )
        if cm is not None:
            from repro.sims.registry import create_simulation
            from repro.steering.api import RICSA_StartupSimulationServer

            self.simulation = create_simulation(simulator, **(sim_kwargs or {}))
            self.variable = variable or self.simulation.variables()[0]
            self.server = RICSA_StartupSimulationServer(
                self.simulation,
                self.bus,
                node_name=f"simulator/{session_id}",
                data_consumer=self._on_data_push,
            )
        self.meta["variable"] = self.variable
        self.events.publish_status("session", **self.meta)

    def _init_state(
        self, cm, events, bus, session_id, simulator, technique, *,
        variable=None, isovalue_fraction=0.5, push_every=1, executor=None,
    ) -> None:
        """Every instance attribute, assigned here for both constructors."""
        self.cm = cm
        self.events = events
        self.bus = bus
        self.session_id = session_id
        self.simulator_name = simulator
        self.technique = technique
        self.isovalue_fraction = isovalue_fraction
        self.push_every = push_every
        self.meta: dict = {"simulator": simulator, "technique": technique}
        self.simulation = None
        self.server = None
        self.variable = variable
        self.decision = None
        self.runner: VisualizationLoopRunner | None = None
        self._camera = OrthoCamera(width=192, height=192)
        self._executor = executor
        self._task = None  # SessionTask while (and after) a background run
        self._done = threading.Event()
        self._run_error: BaseException | None = None

    @classmethod
    def monitor_only(
        cls,
        session_id: str,
        events: EventSequenceStore,
        meta: dict | None = None,
        announce: bool = True,
    ) -> "SteeringSession":
        """A session that serves externally published events (no simulation).

        ``announce=False`` skips the initial status publish — the replay
        path adopts stores whose event sequence was rehydrated verbatim
        and must not grow by an extra announcement event.
        """
        session = cls.__new__(cls)
        session._init_state(None, events, None, session_id, "external", "external")
        session.meta.update(variable=None, **(meta or {}))
        if announce:
            events.publish_status("session", **session.meta)
        return session

    def _require_simulation(self) -> None:
        if self.server is None or self.cm is None:
            raise SteeringError(
                f"session {self.session_id!r} is monitor-only (no simulation)"
            )

    # -- configuration -----------------------------------------------------------

    def configure(self, initial_params: dict | None = None) -> None:
        """Client request -> CM decision -> VRT; simulator accepts."""
        self._require_simulation()
        request = Message.simulation_request(
            self.simulator_name,
            self.variable,
            params=initial_params,
            session=self.session_id,
            sender="client",
        )
        self.bus.send(self.server.node_name, request)
        self.server.RICSA_WaitAcceptConnection(timeout=5.0)

        grid = self.simulation.get_field(self.variable)
        iso = self._isovalue(grid)
        stats = compute_dataset_stats(grid, iso, block_cells=8)
        viz_request = VizRequest(
            technique=self.technique,
            variable=self.variable,
            isovalue=iso,
        )
        self.decision = self.cm.configure(viz_request, stats)
        self.runner = VisualizationLoopRunner(
            self.cm.topology, bandwidths=self.cm.bandwidths
        )
        lo, hi = grid.bounds()
        self._camera = OrthoCamera.framing(lo, hi, width=192, height=192)
        self.update_meta(
            loop=self.decision.vrt.loop_description(),
            expected_delay=self.decision.vrt.expected_delay,
        )

    def update_meta(self, **meta) -> None:
        """Merge session metadata and publish it as a status event."""
        self.meta.update(meta)
        self.events.publish_status("session", **meta)

    def _isovalue(self, grid) -> float:
        lo, hi = grid.vmin, grid.vmax
        if hi <= lo:
            return lo
        return lo + self.isovalue_fraction * (hi - lo)

    # -- data path ----------------------------------------------------------------

    def _on_data_push(self, grid, cycle: int) -> None:
        if self.runner is None or self.decision is None:
            raise SteeringError("session not configured")
        iso = self._isovalue(grid)
        result = self.runner.run_cycle(
            self.decision.vrt,
            grid,
            params={"isovalue": iso, "camera": self._camera, "max_triangles": 60_000},
            cycle=cycle,
        )
        self.events.publish_image(
            result.image,
            cycle=cycle,
            meta={
                "total_delay": result.total_seconds,
                "compute": result.compute_seconds,
                "transport": result.transport_seconds,
                "isovalue": iso,
            },
        )

    # -- running ------------------------------------------------------------------

    def start_background(self, n_cycles: int):
        """Run the simulation loop without blocking the caller.

        The run is submitted as cooperative step-slices to the shared
        :class:`SimulationExecutor` (session count decoupled from thread
        count).  Returns the executor task.
        """
        self._require_simulation()
        if self.is_running():
            raise SteeringError(f"session {self.session_id!r} is already running")
        executor = self._executor
        if executor is None:
            raise SteeringError(
                f"session {self.session_id!r} was given no executor to run on")
        from repro.steering.api import steered_cycle_slices

        if self.decision is None:
            self.configure()
        slices = steered_cycle_slices(
            self.server, n_cycles, push_every=self.push_every
        )

        def step() -> bool:
            try:
                next(slices)
                return True
            except StopIteration:
                return False

        self._run_error = None
        self._done.clear()
        self._task = executor.submit(
            self.session_id,
            step,
            on_done=self._on_executor_done,
            backpressure=self._pollers_stalled,
        )
        return self._task

    def _pollers_stalled(self) -> bool:
        """Backpressure probe: nobody is consuming this session's events —
        no poll completed within the grace for clients between polls, and
        no watcher (a parked long poll or push stream on the web tier's
        scheduler counts even when nothing has *completed* recently)."""
        return not self.events.in_demand(STALLED_POLL_GRACE)

    def _on_executor_done(self, task) -> None:
        self._run_error = task.error
        self._done.set()

    def is_running(self) -> bool:
        """True while a background run is live on the executor."""
        return self._task is not None and not self._done.is_set()

    def join_background(self, timeout: float | None = None) -> None:
        if self._task is None:
            return
        self._done.wait(timeout=timeout)
        if self._run_error is not None:
            raise SteeringError(
                f"steering session failed: {self._run_error!r}"
            ) from self._run_error

    # -- client-facing ops ----------------------------------------------------------

    def steer(self, params: dict) -> dict:
        """Judge a steering update, then send it over the bus (client ->
        simulator); returns the coerced values sent and published.

        A rejected update raises :class:`~repro.errors.SimulationError`
        before anything reaches the bus or the event store, so a bad
        request never ends the run.  A session whose run has finished
        raises :class:`~repro.errors.ProtocolError` instead: nothing polls
        its mailbox any more, so the update could never apply.  A steer
        before the run starts is staged as usual.
        """
        self._require_simulation()
        if self._task is not None and self._done.is_set():
            raise ProtocolError(
                f"session {self.session_id!r} has finished its run; nothing can apply a steer")
        staged = self.simulation.validate_steering(params)
        self.bus.send(
            self.server.node_name,
            Message.steering_update(staged, session=self.session_id),
        )
        self.events.publish_steering(staged)
        return staged

    def set_camera(self, azimuth: float | None = None, elevation: float | None = None,
                   zoom: float | None = None) -> None:
        """Interactive viewing operations (rotate / zoom)."""
        cam = self._camera
        if azimuth is not None or elevation is not None:
            cam = cam.rotated(
                (azimuth - cam.azimuth) if azimuth is not None else 0.0,
                (elevation - cam.elevation) if elevation is not None else 0.0,
            )
        if zoom is not None and zoom > 0:
            cam = cam.zoomed(zoom / cam.zoom)
        self._camera = cam

    def request_shutdown(self) -> None:
        self._require_simulation()
        self.bus.send(
            self.server.node_name,
            Message(MessageKind.SHUTDOWN, session=self.session_id),
        )
