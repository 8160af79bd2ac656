"""VH1-style 3-D Euler solver with dimensional splitting.

Mirrors the structure of the Virginia Hydrodynamics code the paper
instruments (Fig. 7): the main computational loop is ``sweepx; sweepy;
sweepz`` — three 1-D hydrodynamic updates applied along each axis per
cycle.  Each sweep is a vectorized HLL finite-volume update treating the
orthogonal axes as a batch dimension.

A sweep computes in place, in views of one work pool allocated once per
simulation; each element's arithmetic is the allocating formula's, in the
same order, so the state is bit-identical to it (``tests/vh1_oracle.py``).

Boundary conditions are outflow by default; subclasses (the bow-shock
setup) override :meth:`apply_boundaries` to inject inflow winds and
internal obstacles.
"""

from __future__ import annotations

import numpy as np

from repro.data.grid import StructuredGrid
from repro.errors import SimulationError
from repro.sims.base import ParamSpec, SteerableSimulation

__all__ = ["VH1Simulation"]

# Conserved variables: [rho, rho*vx, rho*vy, rho*vz, E] -> axis 0.
NVAR = 5

# Conserved index of the normal and transverse momenta per sweep axis.
_MOMENTA = ((1, 2, 3), (2, 1, 3), (3, 2, 1))


def _primitive(U: np.ndarray, gamma: float):
    rho = np.maximum(U[0], 1e-12)
    vx = U[1] / rho
    vy = U[2] / rho
    vz = U[3] / rho
    kinetic = 0.5 * rho * (vx**2 + vy**2 + vz**2)
    p = np.maximum((gamma - 1.0) * (U[4] - kinetic), 1e-12)
    return rho, vx, vy, vz, p


class VH1Simulation(SteerableSimulation):
    """3-D compressible Euler on a regular grid, split into sweeps.

    Parameters
    ----------
    shape:
        Grid cells per axis.
    setup:
        ``"sod"`` (planar shock tube along x) or ``"uniform"``.
    """

    name = "vh1"

    def __init__(
        self, shape: tuple[int, int, int] = (48, 24, 24), setup: str = "sod"
    ) -> None:
        if min(shape) < 4:
            raise SimulationError("need at least 4 cells per axis")
        self.shape = tuple(int(s) for s in shape)
        self.setup = setup
        self.dx = 1.0 / self.shape[0]
        # _sweep's work pool: 16 ghosted + 8 interface float rows and one
        # interface row of flags, for the axis that needs the most.
        cells = int(np.prod(self.shape))
        self._pool = np.empty(max((16 * (n + 2) + 8 * (n + 1)) * cells // n for n in self.shape))
        self._flags = np.empty(max((n + 1) * cells // n for n in self.shape), dtype=bool)
        super().__init__()
        self._initialize()

    @classmethod
    def param_specs(cls) -> list[ParamSpec]:
        return [
            ParamSpec("gamma", "float", 1.4, 1.05, 5.0 / 3.0, description="ratio of specific heats"),
            ParamSpec("cfl", "float", 0.35, 0.05, 0.7, description="CFL number"),
            ParamSpec("rho_l", "float", 1.0, 0.01, 10.0, description="driver density"),
            ParamSpec("p_l", "float", 1.0, 0.01, 10.0, description="driver pressure"),
            ParamSpec("rho_r", "float", 0.125, 0.01, 10.0, description="ambient density"),
            ParamSpec("p_r", "float", 0.1, 0.01, 10.0, description="ambient pressure"),
        ]

    def variables(self) -> list[str]:
        return ["density", "pressure", "energy", "vmag"]

    # -- state -------------------------------------------------------------------

    def _initialize(self) -> None:
        nx, ny, nz = self.shape
        p = self.params
        gamma = p["gamma"]
        rho = np.full(self.shape, p["rho_r"])
        prs = np.full(self.shape, p["p_r"])
        if self.setup == "sod":
            half = nx // 2
            rho[:half] = p["rho_l"]
            prs[:half] = p["p_l"]
        elif self.setup != "uniform":
            raise SimulationError(f"unknown setup {self.setup!r}")
        self.U = np.zeros((NVAR, nx, ny, nz))
        self.U[0] = rho
        self.U[4] = prs / (gamma - 1.0)
        self.time = 0.0

    def on_params_changed(self) -> None:
        changed = self.steering_events[-1][1] if self.steering_events else {}
        if {"rho_l", "p_l", "rho_r", "p_r"} & set(changed):
            self._initialize()

    # -- dynamics ------------------------------------------------------------------

    def _timestep(self) -> float:
        """The CFL step: ``cfl·dx / Σ_axis max(|v_axis| + a)``.

        Computed ``out=`` into the work pool with ``_primitive``'s operation
        order, so ``dt`` is bit-identical to the allocating form.
        """
        gamma = self.params["gamma"]
        U = self.U
        rho, vx, vy, vz, p, sq, a = self._pool[: 7 * U[0].size].reshape(7, *self.shape)
        np.maximum(U[0], 1e-12, out=rho)
        np.divide(U[1], rho, out=vx)
        np.divide(U[2], rho, out=vy)
        np.divide(U[3], rho, out=vz)
        np.square(vx, out=p)  # the kinetic energy, then the pressure
        np.square(vy, out=sq)
        p += sq
        np.square(vz, out=sq)
        p += sq
        np.multiply(rho, 0.5, out=sq)
        p *= sq
        np.subtract(U[4], p, out=p)
        p *= gamma - 1.0
        np.maximum(p, 1e-12, out=p)
        np.multiply(p, gamma, out=a)
        a /= rho
        np.sqrt(a, out=a)
        smax = 0.0
        for v in (vx, vy, vz):
            np.abs(v, out=sq)
            sq += a
            smax = smax + np.max(sq)
        return self.params["cfl"] * self.dx / max(float(smax), 1e-12)

    def _sweep(self, axis: int, dt: float) -> None:
        """One 1-D HLL update along ``axis`` (0 = x, 1 = y, 2 = z).

        The state, seen with the sweep axis as array axis 1, is copied with
        one outflow ghost cell per end into ``self._pool``; primitives and
        fluxes are computed once on that block (left and right states are
        its slices ``[:, :-1]`` and ``[:, 1:]``), every intermediate goes
        ``out=`` into a pool view, and the update is subtracted in place.
        Each element keeps the allocating formula's operation order —
        ``(v_n² + v_t1²) + v_t2²``, ``(s_l·s_r)·(U_r − U_l)``, ``F_l`` where
        ``s_l >= 0``, else ``F_r`` where ``s_r <= 0``, else the HLL mean — so
        the state is bit-identical to it.
        """
        gamma = self.params["gamma"]
        mn, mt1, mt2 = _MOMENTA[axis]
        U = np.moveaxis(self.U, 1 + axis, 1)  # a view: sweep axis -> array axis 1
        _, n, b1, b2 = U.shape
        g, i = (n + 2) * b1 * b2, (n + 1) * b1 * b2
        w = self._pool
        Ug = w[: 5 * g].reshape(5, n + 2, b1, b2)
        F = w[5 * g : 10 * g].reshape(5, n + 2, b1, b2)
        rho, vn, vt1, vt2, p, a = w[10 * g : 16 * g].reshape(6, n + 2, b1, b2)
        T = w[10 * g : 10 * g + 5 * i].reshape(5, n + 1, b1, b2)  # over the dead primitives
        s_l, s_r, t = w[16 * g : 16 * g + 3 * i].reshape(3, n + 1, b1, b2)
        H = w[16 * g + 3 * i : 16 * g + 8 * i].reshape(5, n + 1, b1, b2)
        flag = self._flags[:i].reshape(n + 1, b1, b2)

        Ug[:, 1:-1] = U
        Ug[:, :: n + 1] = U[:, :: n - 1]  # outflow ghost cells: copies of the end cells

        # Primitives (the kinetic sum borrows the flux rows 0 and 1).
        kin, sq = F[0], F[1]
        np.maximum(Ug[0], 1e-12, out=rho)
        np.divide(Ug[mn], rho, out=vn)
        np.divide(Ug[mt1], rho, out=vt1)
        np.divide(Ug[mt2], rho, out=vt2)
        np.square(vn, out=kin)
        np.square(vt1, out=sq)
        kin += sq
        np.square(vt2, out=sq)
        kin += sq
        np.multiply(rho, 0.5, out=sq)
        kin *= sq
        np.subtract(Ug[4], kin, out=p)
        p *= gamma - 1.0
        np.maximum(p, 1e-12, out=p)
        np.multiply(p, gamma, out=a)
        a /= rho
        np.sqrt(a, out=a)

        # Physical fluxes, in conserved-variable order.
        np.multiply(rho, vn, out=F[0])
        np.square(vn, out=F[mn])
        F[mn] *= rho
        F[mn] += p
        np.multiply(F[0], vt1, out=F[mt1])
        np.multiply(F[0], vt2, out=F[mt2])
        np.add(Ug[4], p, out=F[4])
        F[4] *= vn

        # HLL wave speeds and interface flux.
        np.subtract(vn[:-1], a[:-1], out=s_l)
        np.subtract(vn[1:], a[1:], out=t)
        np.minimum(s_l, t, out=s_l)
        np.add(vn[:-1], a[:-1], out=s_r)
        np.add(vn[1:], a[1:], out=t)
        np.maximum(s_r, t, out=s_r)
        F_l, F_r = F[:, :-1], F[:, 1:]
        np.multiply(s_r, F_l, out=H)
        np.multiply(s_l, F_r, out=T)
        H -= T
        np.multiply(s_l, s_r, out=t)
        np.subtract(Ug[:, 1:], Ug[:, :-1], out=T)
        T *= t
        H += T
        np.subtract(s_r, s_l, out=t)
        t += 1e-300
        H /= t
        np.less_equal(s_r, 0, out=flag)
        np.copyto(H, F_r, where=flag)
        np.greater_equal(s_l, 0, out=flag)
        np.copyto(H, F_l, where=flag)

        D = T.reshape(-1)[: 5 * n * b1 * b2].reshape(5, n, b1, b2)
        np.subtract(H[:, 1:], H[:, :-1], out=D)
        D *= dt / self.dx
        U -= D

    def apply_boundaries(self) -> None:
        """Hook: enforce problem-specific boundary/internal conditions."""

    def _advance(self) -> None:
        dt = self._timestep()
        # VH1's main loop: sweepx; sweepy; sweepz (Fig. 7).
        self.sweepx(dt)
        self.sweepy(dt)
        self.sweepz(dt)
        self.apply_boundaries()
        self.time += dt

    def sweepx(self, dt: float) -> None:
        self._sweep(0, dt)

    def sweepy(self, dt: float) -> None:
        self._sweep(1, dt)

    def sweepz(self, dt: float) -> None:
        self._sweep(2, dt)

    # -- monitoring -----------------------------------------------------------------

    def get_field(self, variable: str) -> StructuredGrid:
        gamma = self.params["gamma"]
        rho, vx, vy, vz, p = _primitive(self.U, gamma)
        if variable == "density":
            vals = rho
        elif variable == "pressure":
            vals = p
        elif variable == "energy":
            vals = self.U[4]
        elif variable == "vmag":
            vals = np.sqrt(vx**2 + vy**2 + vz**2)
        else:
            raise SimulationError(f"unknown variable {variable!r}")
        return StructuredGrid(
            vals.astype(np.float32), spacing=(self.dx,) * 3, name=variable
        )
