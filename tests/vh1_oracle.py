"""Test-only oracle: the allocating VH1 sweep and time step the solver replaced.

``_flux_x``, ``_hll_x`` and the bodies of ``sweep_copying`` and
``timestep_allocating`` are the text of ``repro.sims.vh1`` as it stood before
the sweep and the CFL step computed in place, kept verbatim (only ``self``
became ``sim`` and the methods functions), so that the tests can require a
byte-identical state ``U`` and step ``dt`` from the in-place code after any
run, setup and steering.  ``_primitive`` is still the solver's own:
``get_field`` uses it.

Use ``oracle_class(cls)`` to get a subclass of a VH1 simulation class that
sweeps and picks its time step with this code.
"""

from __future__ import annotations

import numpy as np

from repro.sims.vh1 import _primitive


def _flux_x(U: np.ndarray, gamma: float) -> np.ndarray:
    """Physical flux along axis 0 of the state block."""
    rho, vx, vy, vz, p = _primitive(U, gamma)
    return np.stack(
        [
            rho * vx,
            rho * vx**2 + p,
            rho * vx * vy,
            rho * vx * vz,
            (U[4] + p) * vx,
        ]
    )


def _hll_x(U_l: np.ndarray, U_r: np.ndarray, gamma: float) -> np.ndarray:
    rho_l, vx_l, _, _, p_l = _primitive(U_l, gamma)
    rho_r, vx_r, _, _, p_r = _primitive(U_r, gamma)
    a_l = np.sqrt(gamma * p_l / rho_l)
    a_r = np.sqrt(gamma * p_r / rho_r)
    s_l = np.minimum(vx_l - a_l, vx_r - a_r)
    s_r = np.maximum(vx_l + a_l, vx_r + a_r)
    F_l = _flux_x(U_l, gamma)
    F_r = _flux_x(U_r, gamma)
    mid = (s_r * F_l - s_l * F_r + s_l * s_r * (U_r - U_l)) / (s_r - s_l + 1e-300)
    return np.where(s_l >= 0, F_l, np.where(s_r <= 0, F_r, mid))


def sweep_copying(sim, axis: int, dt: float) -> None:
    """One 1-D HLL update along ``axis`` (0 = x, 1 = y, 2 = z).

    The state is rolled so the sweep axis is axis 1 of the array;
    velocity components are permuted so the sweep direction plays
    the role of ``vx``.
    """
    gamma = sim.params["gamma"]
    # velocity component order after permutation: sweep axis first
    perm = {0: [0, 1, 2, 3, 4], 1: [0, 2, 1, 3, 4], 2: [0, 3, 2, 1, 4]}[axis]
    U = sim.U[perm]
    U = np.moveaxis(U, 1 + axis, 1)  # sweep axis -> array axis 1

    # Outflow ghost cells.
    Ug = np.concatenate([U[:, :1], U, U[:, -1:]], axis=1)
    U_l = Ug[:, :-1]
    U_r = Ug[:, 1:]
    F = _hll_x(U_l, U_r, gamma)
    U = U - dt / sim.dx * (F[:, 1:] - F[:, :-1])

    U = np.moveaxis(U, 1, 1 + axis)
    sim.U = U[perm]  # the permutation is its own inverse


def timestep_allocating(sim) -> float:
    gamma = sim.params["gamma"]
    rho, vx, vy, vz, p = _primitive(sim.U, gamma)
    a = np.sqrt(gamma * p / rho)
    smax = float(
        np.max(np.abs(vx) + a)
        + np.max(np.abs(vy) + a)
        + np.max(np.abs(vz) + a)
    )
    return sim.params["cfl"] * sim.dx / max(smax, 1e-12)


def oracle_class(cls: type) -> type:
    """``cls`` with its sweep and time step replaced by :func:`sweep_copying`
    and :func:`timestep_allocating`."""
    return type(f"Copying{cls.__name__}", (cls,),
                {"_sweep": sweep_copying, "_timestep": timestep_allocating})
