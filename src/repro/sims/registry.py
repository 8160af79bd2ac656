"""Simulation registry: the "list of available simulation codes".

The RICSA GUI lets a user "choose from a list of available simulation
codes to run an appropriate computation"; the steering framework resolves
those names here.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError
from repro.sims.base import SteerableSimulation
from repro.sims.bowshock import BowShockSimulation
from repro.sims.euler1d import SodShockTube
from repro.sims.heat import HeatDiffusionSimulation
from repro.sims.vh1 import VH1Simulation

__all__ = ["available_simulations", "create_simulation"]

_FACTORIES: dict[str, Callable[..., SteerableSimulation]] = {
    "sod": SodShockTube,
    "vh1-sod": lambda **kw: VH1Simulation(setup="sod", **kw),
    "bowshock": BowShockSimulation,
    "heat": HeatDiffusionSimulation,
}


def available_simulations() -> list[str]:
    """Registered simulation code names."""
    return sorted(_FACTORIES)


def create_simulation(name: str, **kwargs) -> SteerableSimulation:
    """Instantiate a registered simulation by name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown simulation {name!r}; available: {available_simulations()}"
        ) from None
    return factory(**kwargs)
