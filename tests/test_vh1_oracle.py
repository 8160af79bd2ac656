"""The in-place VH1 sweep == the allocating sweep it replaced, and allocates nothing per step.

``tests/vh1_oracle.py`` keeps that sweep verbatim.  Equality is of bytes: the
state ``U`` of a simulation sweeping in place and of one sweeping with the
oracle, run side by side, on Hypothesis shapes (every axis >= 4 cells,
non-cubic ones included) and setups, with steering of every parameter in
``param_specs`` at random cycles (the re-initialising ones included), and on
single sweeps of arbitrary states: supersonic either way, vacuum-floored
densities and NaN cells, which fall to the HLL mean as before.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sims.bowshock import BowShockSimulation
from repro.sims.vh1 import VH1Simulation

from tests.vh1_oracle import oracle_class


def _same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


def _pair(cls: type, **kwargs):
    return cls(**kwargs), oracle_class(cls)(**kwargs)


def _run_side_by_side(pair, schedule: dict[int, dict], n_steps: int) -> None:
    """Step both, applying ``schedule[cycle]`` to both first; compare after every step."""
    with np.errstate(all="ignore"):
        for cycle in range(n_steps):
            for sim in pair:
                if cycle in schedule:
                    sim.apply_steering(schedule[cycle])
                sim.step()
            _same(pair[0].U, pair[1].U)
            assert pair[0].time == pair[1].time


_shapes = st.tuples(*[st.integers(4, 9)] * 3)


@st.composite
def _schedule(draw, cls: type, n_steps: int) -> dict[int, dict]:
    """Steering at random cycles: a random subset of params, values within bounds."""
    specs = cls.param_specs()
    cycles = draw(st.lists(st.integers(0, n_steps - 1), max_size=4, unique=True))
    schedule = {}
    for cycle in cycles:
        names = draw(st.lists(st.sampled_from([s.name for s in specs]), min_size=1,
                              max_size=3, unique=True))
        schedule[cycle] = {
            s.name: draw(st.floats(s.lo, s.hi, allow_nan=False)) for s in specs if s.name in names
        }
    return schedule


@settings(max_examples=100, deadline=None)
@given(shape=_shapes, setup=st.sampled_from(["sod", "uniform"]), data=st.data())
def test_vh1_state_equals_the_oracle(shape, setup, data):
    n_steps = data.draw(st.integers(1, 12))
    schedule = data.draw(_schedule(VH1Simulation, n_steps))
    _run_side_by_side(_pair(VH1Simulation, shape=shape, setup=setup), schedule, n_steps)


@settings(max_examples=100, deadline=None)
@given(shape=_shapes, data=st.data())
def test_bowshock_state_equals_the_oracle(shape, data):
    n_steps = data.draw(st.integers(1, 16))
    schedule = data.draw(_schedule(BowShockSimulation, n_steps))
    _run_side_by_side(_pair(BowShockSimulation, shape=shape), schedule, n_steps)


@pytest.mark.parametrize("cls", [VH1Simulation, BowShockSimulation])
def test_every_parameter_steered_mid_run(cls):
    """Each parameter in turn, to its upper then its lower bound, on a non-cubic grid."""
    specs = cls.param_specs()
    schedule = {}
    for k, spec in enumerate(specs):
        schedule[3 + 4 * k] = {spec.name: spec.hi}
        schedule[5 + 4 * k] = {spec.name: spec.lo}
    n_steps = 6 + 4 * len(specs)
    _run_side_by_side(_pair(cls, shape=(12, 6, 9)), schedule, n_steps)


@settings(max_examples=100, deadline=None)
@given(shape=_shapes, setup=st.sampled_from(["sod", "uniform"]), seed=st.integers(0, 2**32 - 1),
       speed=st.sampled_from([0.0, 0.1, 1.0, 10.0]), holes=st.booleans(), data=st.data())
def test_time_step_of_any_state(shape, setup, seed, speed, holes, data):
    """The in-place CFL step returns the allocating one's ``dt``, bit for bit."""
    rng = np.random.default_rng(seed)
    U = np.empty((5, *shape))
    U[0] = rng.uniform(0.05, 3.0, shape)
    U[1:4] = rng.normal(0.0, speed, (3, *shape)) * U[0]
    U[4] = rng.uniform(0.1, 5.0, shape) + 0.5 * (U[1:4] ** 2).sum(axis=0) / U[0]
    if holes:
        U[0].flat[rng.integers(0, U[0].size, 3)] = -1.0  # below the density floor
        U.reshape(5, -1)[rng.integers(0, 5), rng.integers(0, U[0].size)] = np.nan
    got, want = _pair(VH1Simulation, shape=shape, setup=setup)
    steer = data.draw(_schedule(VH1Simulation, 1))
    for sim in (got, want):
        sim.apply_steering(steer.get(0, {}))
        sim.apply_pending()
        sim.U = U.copy()
    with np.errstate(all="ignore"):
        dt_got, dt_want = got._timestep(), want._timestep()
    assert np.float64(dt_got).tobytes() == np.float64(dt_want).tobytes()
    _same(got.U, want.U)


def test_bowshock_at_the_steering_scale():
    """The ``steer_live`` grid, 120 steps, wind and obstacle steered along the way."""
    schedule = {30: {"wind_speed": 4.0}, 60: {"obstacle_radius": 0.2, "gamma": 1.6},
                90: {"rho_r": 0.5, "p_r": 0.3, "cfl": 0.5}}
    _run_side_by_side(_pair(BowShockSimulation, shape=(24, 16, 16)), schedule, 120)


@settings(max_examples=300, deadline=None)
@given(shape=_shapes, axis=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
       speed=st.sampled_from([0.1, 1.0, 10.0]), holes=st.booleans(),
       dt=st.floats(1e-4, 0.05))
def test_one_sweep_of_any_state(shape, axis, seed, speed, holes, dt):
    """Arbitrary momenta (subsonic to hypersonic, either sign), floored densities, NaNs."""
    rng = np.random.default_rng(seed)
    U = np.empty((5, *shape))
    U[0] = rng.uniform(0.05, 3.0, shape)
    U[1:4] = rng.normal(0.0, speed, (3, *shape)) * U[0]
    U[4] = rng.uniform(0.1, 5.0, shape) + 0.5 * (U[1:4] ** 2).sum(axis=0) / U[0]
    if holes:
        U[0].flat[rng.integers(0, U[0].size, 3)] = -1.0  # below the density floor
        U.reshape(5, -1)[rng.integers(0, 5), rng.integers(0, U[0].size)] = np.nan
    got, want = _pair(VH1Simulation, shape=shape, setup="uniform")
    got.U, want.U = U.copy(), U.copy()
    with np.errstate(all="ignore"):
        got._sweep(axis, dt)
        want._sweep(axis, dt)
    _same(got.U, want.U)


@pytest.mark.parametrize("shape", [(24, 16, 16), (16, 24, 20)])
def test_a_step_allocates_at_most_half_the_state(shape):
    """After warm-up one ``step()`` peaks at <= ``U.nbytes / 2`` of new allocations.

    The sweeps and the CFL step write into the simulation's work pool; what a
    step still allocates (about 0.41 x here) is numpy's buffer for subtracting
    the update through the y and z sweeps' strided views of ``U``.  The time
    step's allocating primitive pass peaked at 1.6 x, the copying sweep at
    about 11 x.  The least of three steps is taken so that an allocation by
    another thread of the test process cannot fail the guard.
    """
    sim = BowShockSimulation(shape=shape)
    sim.run(3)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sim.step()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert min(peaks) <= sim.U.nbytes // 2, (peaks, sim.U.nbytes)
