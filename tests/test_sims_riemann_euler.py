"""Tests for the Riemann solver and the Sod shock tube."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sims import SodShockTube, sod_exact_solution
from repro.sims.riemann import SOD_LEFT, SOD_RIGHT, exact_riemann


class TestExactRiemann:
    def test_sod_star_region_values(self):
        """Canonical Sod: p* ~ 0.30313, u* ~ 0.92745 (Toro Table 4.2)."""
        xi = np.array([0.0])  # at the diaphragm: star region at t>0
        rho, u, p = exact_riemann(SOD_LEFT, SOD_RIGHT, xi)
        assert p[0] == pytest.approx(0.30313, rel=1e-3)
        assert u[0] == pytest.approx(0.92745, rel=1e-3)

    def test_far_field_untouched(self):
        xi = np.array([-10.0, 10.0])
        rho, u, p = exact_riemann(SOD_LEFT, SOD_RIGHT, xi)
        assert (rho[0], u[0], p[0]) == SOD_LEFT
        assert (rho[1], u[1], p[1]) == SOD_RIGHT

    def test_solution_is_piecewise_monotone_density(self):
        xi = np.linspace(-2, 2, 2001)
        rho, u, p = exact_riemann(SOD_LEFT, SOD_RIGHT, xi)
        assert rho.max() <= SOD_LEFT[0] + 1e-9
        assert rho.min() >= SOD_RIGHT[0] * 0.2

    def test_symmetric_problem_is_stationary(self):
        state = (1.0, 0.0, 1.0)
        xi = np.linspace(-1, 1, 101)
        rho, u, p = exact_riemann(state, state, xi)
        np.testing.assert_allclose(u, 0.0, atol=1e-12)
        np.testing.assert_allclose(p, 1.0, rtol=1e-12)

    def test_vacuum_detected(self):
        with pytest.raises(SimulationError, match="vacuum"):
            exact_riemann((1.0, -10.0, 0.01), (1.0, 10.0, 0.01), np.array([0.0]))

    def test_sod_exact_requires_positive_time(self):
        with pytest.raises(SimulationError):
            sod_exact_solution(np.array([0.5]), t=0.0)


class TestSodShockTube:
    def test_converges_to_exact_solution(self):
        """Numerical density within ~2% L1 of exact at t=0.2."""
        sim = SodShockTube(n_cells=400)
        while sim.time < 0.2:
            sim.step()
        rho_num, u_num, p_num = sim.primitives()
        rho_ex, u_ex, p_ex = sod_exact_solution(sim.x, sim.time)
        l1 = np.abs(rho_num - rho_ex).mean() / np.abs(rho_ex).mean()
        assert l1 < 0.02

    def test_resolution_improves_accuracy(self):
        errors = []
        for n in (100, 400):
            sim = SodShockTube(n_cells=n)
            while sim.time < 0.15:
                sim.step()
            rho_ex, _, _ = sod_exact_solution(sim.x, sim.time)
            errors.append(np.abs(sim.primitives()[0] - rho_ex).mean())
        assert errors[1] < errors[0] * 0.6

    def test_mass_conserved(self):
        sim = SodShockTube(n_cells=200)
        m0 = sim.U[0].sum() * sim.dx
        sim.run(100)
        # outflow boundaries: nothing leaves before waves reach the walls
        assert sim.U[0].sum() * sim.dx == pytest.approx(m0, rel=1e-10)

    def test_positivity(self):
        sim = SodShockTube(n_cells=150)
        sim.run(300)
        rho, u, p = sim.primitives()
        assert rho.min() > 0 and p.min() > 0

    def test_steering_gamma_takes_effect(self):
        sim = SodShockTube(n_cells=100)
        sim.run(5)
        sim.apply_steering({"gamma": 1.6})
        sim.step()
        assert sim.params["gamma"] == pytest.approx(1.6)
        assert sim.steering_events[-1][1] == {"gamma": 1.6}

    def test_steering_initial_state_restarts(self):
        sim = SodShockTube(n_cells=100)
        sim.run(20)
        t_before = sim.time
        sim.apply_steering({"rho_l": 2.0})
        sim.step()
        assert sim.time < t_before  # restarted
        rho, _, _ = sim.primitives()
        assert rho.max() > 1.5

    def test_invalid_steering_rejected(self):
        sim = SodShockTube(n_cells=64)
        with pytest.raises(SimulationError):
            sim.apply_steering({"gamma": 99.0})
        with pytest.raises(SimulationError):
            sim.apply_steering({"not_a_param": 1.0})
        # NaN passes both bound checks; it must be refused as non-finite
        with pytest.raises(SimulationError, match="finite"):
            sim.apply_steering({"gamma": "nan"})
        with pytest.raises(SimulationError, match="finite"):
            sim.validate_steering({"gamma": float("nan")})
        assert sim._pending == {}  # nothing rejected was staged

    def test_validate_steering_coerces_without_staging(self):
        sim = SodShockTube(n_cells=64)
        assert sim.validate_steering({"gamma": "1.5"}) == {"gamma": 1.5}
        assert sim._pending == {}

    def test_get_field_shapes(self):
        sim = SodShockTube(n_cells=64)
        for var in sim.variables():
            g = sim.get_field(var)
            assert g.shape == (64, 1, 1)
        with pytest.raises(SimulationError):
            sim.get_field("entropy")
