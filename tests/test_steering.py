"""Tests for messages, bus, protocol, RICSA API and the loop runner."""

from __future__ import annotations

import pytest

from repro.costmodel.base import compute_dataset_stats
from repro.costmodel.calibration import default_calibration
from repro.errors import ProtocolError, SteeringError
from repro.net import build_paper_testbed
from repro.sims import HeatDiffusionSimulation, SodShockTube
from repro.steering import (
    CentralManager,
    Message,
    MessageBus,
    MessageKind,
    SessionState,
    SessionStateMachine,
    VisualizationLoopRunner,
    VizRequest,
    run_steered_cycles,
)
from repro.steering.api import RICSA_StartupSimulationServer
from repro.viz.camera import OrthoCamera

from tests.test_data_grid import sphere_grid


class TestMessages:
    def test_constructors(self):
        req = Message.simulation_request("sod", "density", {"cfl": 0.3}, session="s")
        assert req.kind is MessageKind.SIMULATION_REQUEST
        upd = Message.steering_update({"gamma": 1.5})
        assert upd.payload["params"] == {"gamma": 1.5}


class TestBus:
    def test_send_and_receive(self):
        bus = MessageBus()
        box = bus.register("sim")
        bus.send("sim", Message(MessageKind.SHUTDOWN))
        assert box.recv(timeout=1.0).kind is MessageKind.SHUTDOWN

    def test_unknown_endpoint(self):
        with pytest.raises(SteeringError):
            MessageBus().send("nobody", Message(MessageKind.SHUTDOWN))

    def test_poll_empty(self):
        bus = MessageBus()
        assert bus.register("x").poll() is None

    def test_recv_timeout(self):
        bus = MessageBus()
        with pytest.raises(SteeringError, match="timed out"):
            bus.register("x").recv(timeout=0.01)


class TestStateMachine:
    def test_normal_lifecycle(self):
        m = SessionStateMachine()
        for s in (SessionState.REQUESTED, SessionState.CONFIGURED,
                  SessionState.RUNNING, SessionState.DONE):
            m.transition(s)
        assert m.terminal

    def test_illegal_transition(self):
        m = SessionStateMachine()
        with pytest.raises(ProtocolError, match="illegal"):
            m.transition(SessionState.RUNNING)

    def test_message_acceptance_by_state(self):
        m = SessionStateMachine()
        m.check_accepts(MessageKind.SIMULATION_REQUEST)
        with pytest.raises(ProtocolError):
            m.check_accepts(MessageKind.SIMULATION_PARAMS)  # not in IDLE
        m.transition(SessionState.REQUESTED)
        m.transition(SessionState.CONFIGURED)
        m.transition(SessionState.RUNNING)
        m.check_accepts(MessageKind.SIMULATION_PARAMS)


class TestRicsaApi:
    def _server(self, sim=None):
        bus = MessageBus()
        pushes = []
        server = RICSA_StartupSimulationServer(
            sim or HeatDiffusionSimulation(shape=(8, 8, 8)),
            bus,
            data_consumer=lambda g, c: pushes.append((c, g)),
        )
        return bus, server, pushes

    def test_wait_accept_configures(self):
        bus, server, _ = self._server()
        bus.send("simulator", Message.simulation_request(
            "heat", "temperature", {"alpha": 0.12}))
        msg = server.RICSA_WaitAcceptConnection(timeout=1.0)
        assert msg.kind is MessageKind.SIMULATION_REQUEST
        assert server.machine.state is SessionState.RUNNING
        assert server.simulation._pending["alpha"] == pytest.approx(0.12)

    def test_fig7_loop_runs_and_steers(self):
        bus, server, pushes = self._server()
        bus.send("simulator", Message.simulation_request("heat", "temperature"))
        server.RICSA_WaitAcceptConnection(timeout=1.0)
        bus.send("simulator", Message.steering_update({"source_x": 0.2}))
        ran = run_steered_cycles(server, 5)
        assert ran == 5
        assert len(pushes) == 5
        assert server.simulation.params["source_x"] == pytest.approx(0.2)

    def test_shutdown_stops_loop_early(self):
        bus, server, pushes = self._server()
        bus.send("simulator", Message.simulation_request("heat", "temperature"))
        server.RICSA_WaitAcceptConnection(timeout=1.0)
        bus.send("simulator", Message(MessageKind.SHUTDOWN))
        ran = run_steered_cycles(server, 50)
        assert ran == 1  # stopped at the first message check
        assert server.machine.state is SessionState.DONE

    def test_run_before_accept_rejected(self):
        _, server, _ = self._server()
        with pytest.raises(SteeringError):
            run_steered_cycles(server, 3)

    def test_push_returns_monitored_field(self):
        bus, server, _ = self._server(SodShockTube(n_cells=32))
        bus.send("simulator", Message.simulation_request("sod", "pressure"))
        server.RICSA_WaitAcceptConnection(timeout=1.0)
        grid = server.RICSA_PushDataToVizNode()
        assert grid.name == "pressure"


class TestCentralManagerAndLoop:
    @pytest.fixture(scope="class")
    def cm(self):
        topo, roles = build_paper_testbed(with_cross_traffic=False)
        return CentralManager(topo, roles, calibration=default_calibration())

    def test_configure_produces_vrt(self, cm):
        grid = sphere_grid(24)
        stats = compute_dataset_stats(grid, 0.6, full_nbytes=16 * 2**20)
        decision = cm.configure(VizRequest(source_node="GaTech"), stats)
        vrt = decision.vrt
        assert vrt.data_path[0] == "GaTech"
        assert vrt.data_path[-1] == "ORNL"
        assert vrt.expected_delay > 0
        assert vrt.loop_description().startswith("ORNL-LSU-GaTech")

    def test_vrt_serialization_roundtrip(self, cm):
        from repro.mapping.vrt import VisualizationRoutingTable

        grid = sphere_grid(16)
        stats = compute_dataset_stats(grid, 0.6)
        vrt = cm.configure(VizRequest(source_node="OSU"), stats).vrt
        back = VisualizationRoutingTable.from_dict(vrt.to_dict())
        assert back.data_path == vrt.data_path
        assert back.entries[0].module_names == vrt.entries[0].module_names

    def test_loop_runner_executes_vrt(self, cm):
        grid = sphere_grid(24)
        stats = compute_dataset_stats(grid, 0.6)
        decision = cm.configure(VizRequest(source_node="GaTech"), stats)
        runner = VisualizationLoopRunner(cm.topology)
        cam = OrthoCamera.framing(*grid.bounds(), width=64, height=64)
        result = runner.run_cycle(
            decision.vrt, grid, params={"isovalue": 0.6, "camera": cam}
        )
        assert result.image.width == 64
        assert result.total_seconds > 0
        assert result.transport_seconds > 0
        assert len(result.stages) == decision.vrt.entries.__len__()

    def test_unknown_source_rejected(self, cm):
        grid = sphere_grid(12)
        stats = compute_dataset_stats(grid, 0.6)
        with pytest.raises(SteeringError):
            cm.configure(VizRequest(source_node="Mars"), stats)

    def test_cm_keeps_nothing_per_session(self, cm):
        from repro.steering import SessionManager

        # only the global knowledge the CM is built from, nothing grown per request
        assert sorted(vars(cm)) == ["bandwidths", "calibration", "roles", "topology"]
        before = {name: id(value) for name, value in vars(cm).items()}
        manager = SessionManager(cm, executor_workers=1)
        for i in range(3):
            session = manager.create(f"cm{i}", simulator="heat",
                                     sim_kwargs={"shape": (8, 8, 8)})
            assert session.decision is not None  # the session keeps its own
            manager.close(f"cm{i}")
        manager.close_all()
        assert {name: id(value) for name, value in vars(cm).items()} == before
