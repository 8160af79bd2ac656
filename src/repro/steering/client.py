"""The steering/monitoring client (programmatic Ajax-client equivalent).

Drives sessions owned by a :class:`~repro.steering.manager.SessionManager`
with the calls a GUI exposes: pick a simulation, watch images arrive,
steer parameters, stop.  The web tier's ``POST /api/v1/sessions`` starts
sessions through exactly this object, so browser actions and test
actions share one code path.  Unlike the seed's single-session client, one
client can start and address many named sessions; ``session_id=None``
on the per-session calls means "the session started most recently".
"""

from __future__ import annotations

from repro.errors import SteeringError
from repro.steering.central_manager import CentralManager
from repro.steering.manager import SessionManager
from repro.steering.session import SteeringSession

__all__ = ["SteeringClient"]


class SteeringClient:
    """High-level driver for one or more steering sessions."""

    def __init__(self, cm: CentralManager, manager: SessionManager | None = None) -> None:
        self.cm = cm
        self.manager = manager if manager is not None else SessionManager(cm)
        self.session: SteeringSession | None = None  # most recently started

    # -- lifecycle -----------------------------------------------------------------

    def start(
        self,
        simulator: str = "heat",
        technique: str = "isosurface",
        variable: str | None = None,
        n_cycles: int = 20,
        session_id: str | None = None,
        initial_params: dict | None = None,
        sim_kwargs: dict | None = None,
        push_every: int = 1,
    ) -> SteeringSession:
        """Begin a monitored run of ``simulator`` in a new named session,
        stepping on the manager's executor without blocking the caller."""
        session = self.manager.create(
            session_id,
            initial_params=initial_params,
            n_cycles=n_cycles,
            simulator=simulator,
            technique=technique,
            variable=variable,
            sim_kwargs=sim_kwargs,
            push_every=push_every,
        )
        self.session = session
        return session

    def _resolve(self, session_id: str | None = None) -> SteeringSession:
        if session_id is not None:
            return self.manager.get(session_id)
        if self.session is None:
            raise SteeringError("no active session; call start() first")
        return self.session

    # -- monitoring ------------------------------------------------------------------

    def wait_for_image(self, since: int = 0, timeout: float = 10.0,
                       session_id: str | None = None):
        """Block until an image event newer than seq ``since`` arrives."""
        s = self._resolve(session_id)
        record = s.events.wait_image(since, timeout=timeout)
        if record is None:
            raise SteeringError(f"no image newer than v{since} within {timeout}s")
        return record

    # -- steering --------------------------------------------------------------------

    def steer(self, session_id: str | None = None, **params) -> None:
        """Adjust simulation parameters mid-run."""
        self._resolve(session_id).steer(params)

    def stop(self, session_id: str | None = None) -> None:
        s = self._resolve(session_id)
        s.request_shutdown()
        s.join_background(timeout=30.0)

    def stop_all(self) -> None:
        """Stop every session the manager still owns."""
        self.manager.close_all()
        self.session = None
