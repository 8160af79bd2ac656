"""The steerable-simulation interface.

A steerable simulation exposes typed parameters that a remote client may
change *while the computation runs* — the essence of computational
steering.  ``validate_steering`` judges updates against the parameter
specs; ``apply_steering`` stages them, and :meth:`apply_pending` (called
by the next :meth:`step`, or by the ``RICSA_UpdateSimulationParameters``
hook of Fig. 7) makes them take effect.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Any

from repro.data.grid import StructuredGrid
from repro.errors import SimulationError

__all__ = ["ParamSpec", "SteerableSimulation"]


@dataclass(frozen=True, slots=True)
class ParamSpec:
    """A steerable parameter: bounds, kind and documentation."""

    name: str
    kind: str = "float"  # float | int | choice
    default: Any = 0.0
    lo: float | None = None
    hi: float | None = None
    choices: tuple = ()
    description: str = ""

    def validate(self, value: Any) -> Any:
        """Coerce and range-check a proposed value; raises on violation."""
        if self.kind == "float":
            try:
                v = float(value)
            except (TypeError, ValueError):
                raise SimulationError(f"{self.name}: expected float, got {value!r}")
            if not math.isfinite(v):
                # NaN fails both bound checks below, so it must be refused here.
                raise SimulationError(f"{self.name}: expected a finite float, got {value!r}")
        elif self.kind == "int":
            try:
                v = int(value)
            except (TypeError, ValueError):
                raise SimulationError(f"{self.name}: expected int, got {value!r}")
        elif self.kind == "choice":
            if value not in self.choices:
                raise SimulationError(
                    f"{self.name}: {value!r} not in {self.choices}"
                )
            return value
        else:  # pragma: no cover - spec author error
            raise SimulationError(f"{self.name}: unknown kind {self.kind!r}")
        if self.lo is not None and v < self.lo:
            raise SimulationError(f"{self.name}: {v} below minimum {self.lo}")
        if self.hi is not None and v > self.hi:
            raise SimulationError(f"{self.name}: {v} above maximum {self.hi}")
        return v


class SteerableSimulation(abc.ABC):
    """Base class for all steerable simulations."""

    name: str = "simulation"

    def __init__(self) -> None:
        self.cycle = 0
        self.time = 0.0
        self.params: dict[str, Any] = {
            s.name: s.default for s in self.param_specs()
        }
        self._pending: dict[str, Any] = {}
        self.steering_events: list[tuple[int, dict[str, Any]]] = []

    # -- abstract interface ---------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def param_specs(cls) -> list[ParamSpec]:
        """The steerable parameters this code exposes."""

    @abc.abstractmethod
    def variables(self) -> list[str]:
        """Names of the monitorable output fields."""

    @abc.abstractmethod
    def get_field(self, variable: str) -> StructuredGrid:
        """Current state of ``variable`` as a 3-D grid (1-D/2-D codes
        return singleton axes)."""

    @abc.abstractmethod
    def _advance(self) -> None:
        """Advance the numerical state by one cycle."""

    # -- steering machinery ------------------------------------------------------

    @classmethod
    def validate_steering(cls, updates: dict[str, Any]) -> dict[str, Any]:
        """The coerced values of ``updates``; raises
        :class:`SimulationError` on an unknown name or a bad value.

        Pure: it reads only the parameter specs, so a request can be
        judged off the simulation's thread before it is sent.
        """
        specs = {s.name: s for s in cls.param_specs()}
        staged = {}
        for key, value in updates.items():
            if key not in specs:
                raise SimulationError(
                    f"unknown parameter {key!r}; steerable: {sorted(specs)}"
                )
            staged[key] = specs[key].validate(value)
        return staged

    def apply_steering(self, updates: dict[str, Any]) -> None:
        """Validate and stage parameter updates for the next cycle."""
        self._pending.update(self.validate_steering(updates))

    def apply_pending(self) -> None:
        """Make the staged updates take effect, recording when."""
        if self._pending:
            self.params.update(self._pending)
            self.steering_events.append((self.cycle, dict(self._pending)))
            self._pending.clear()
            self.on_params_changed()

    def step(self) -> None:
        """Apply any staged steering, then advance one cycle."""
        self.apply_pending()
        self._advance()
        self.cycle += 1

    def on_params_changed(self) -> None:
        """Hook for subclasses reacting to steering (default no-op)."""

    def run(self, n_cycles: int) -> None:
        """Advance ``n_cycles`` cycles."""
        for _ in range(n_cycles):
            self.step()
