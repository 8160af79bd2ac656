"""The numpy trilinear kernels against ``scipy.ndimage``, bit for bit.

SciPy stays here as the oracle: ``repro`` interpolates with
``repro.data.interp`` so the serving process never loads
``scipy.ndimage``.  Every comparison is on the output bytes: the
datasets, raycast images and streamlines are defined by this arithmetic,
so one ulp anywhere would move every calibration and Fig. 9/10 number.
The digests below were taken on the ``scipy.ndimage`` path.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.costmodel.calibration import make_calibration_grids
from repro.data import make_jet, make_rage, make_viswoman
from repro.data.interp import trilinear, zoom
from repro.errors import ConfigurationError
from repro.viz.camera import OrthoCamera
from repro.viz.raycast import raycast
from repro.viz.streamline import seed_grid, trace_streamlines


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.flatnonzero(got != want)[:8]


def _volumes(dtype):
    """Axes of 1–6 samples (1 and 2 half the time), finite values."""
    lengths = st.one_of(st.integers(1, 2), st.integers(1, 6))
    width = 32 if dtype == np.float32 else 64
    return st.tuples(lengths, lengths, lengths).flatmap(lambda shape: hnp.arrays(
        dtype, shape, elements=st.floats(-1e4, 1e4, width=width)))


def _axis_coordinate(n: int):
    """Every region the edge rules treat differently, for an axis of n samples."""
    last = float(n - 1)
    return st.one_of(
        st.floats(-3.0 * n - 5.0, -1.0, exclude_max=True),               # < -1
        st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),         # (-1, 0)
        st.integers(-2, n + 1).map(float),                                # exact integers
        st.just(float(np.nextafter(last, n))),                            # just past n-1
        st.floats(last, float(n), exclude_min=True, exclude_max=True),    # (n-1, n)
        st.floats(float(n), 3.0 * n + 5.0),                               # >= n
        st.floats(0.0, last),                                             # inside
    )


@st.composite
def _volume_and_coords(draw):
    values = draw(st.sampled_from([np.float32, np.float64]).flatmap(_volumes))
    n_points = draw(st.integers(1, 24))
    coords = np.array([draw(st.lists(_axis_coordinate(n), min_size=n_points,
                                     max_size=n_points)) for n in values.shape])
    return values, coords


@settings(max_examples=400, deadline=None)
@given(_volume_and_coords(), st.sampled_from(["nearest", "constant"]))
def test_trilinear_matches_map_coordinates(case, mode):
    values, coords = case
    want = scipy.ndimage.map_coordinates(values, coords, order=1, mode=mode, cval=np.nan)
    _assert_same_bytes(trilinear(values, coords, mode=mode, cval=np.nan), want)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([np.float32, np.float64]).flatmap(_volumes),
       st.lists(st.one_of(st.integers(1, 14), st.floats(0.2, 6.0)), min_size=3, max_size=3))
def test_zoom_matches_scipy(values, targets):
    # An integer target is an output length (the factor _smooth_noise
    # passes, out/in); a float is a free factor.
    factors = [t / n if isinstance(t, int) else t for t, n in zip(targets, values.shape)]
    assume(all(round(n * f) >= 1 for n, f in zip(values.shape, factors)))
    want = scipy.ndimage.zoom(values, factors, order=1, mode="nearest")
    _assert_same_bytes(zoom(values, factors), want)


def test_zoom_pinned_nearest_edge_case():
    """(2, 7, 8) -> (33, 25, 42): 41 * (7 / 41) is 7.000000000000001, past
    the last sample; clamping that coordinate instead of the two gathered
    indices is one ulp off here."""
    values = np.random.default_rng(0).standard_normal((2, 7, 8)).astype(np.float32)
    factors = [33 / 2, 25 / 7, 42 / 8]
    got = zoom(values, factors)
    assert got.shape == (33, 25, 42)
    _assert_same_bytes(got, scipy.ndimage.zoom(values, factors, order=1, mode="nearest"))


def test_zoom_slabs_match_one_pass(monkeypatch):
    """The slab loop only bounds temporaries: any slab height, same bytes."""
    values = np.random.default_rng(1).standard_normal((5, 6, 7))
    want = zoom(values, (3.0, 2.0, 1.5))
    monkeypatch.setattr("repro.data.interp._SLAB", 1)
    _assert_same_bytes(zoom(values, (3.0, 2.0, 1.5)), want)


def test_trilinear_rejects_unknown_mode():
    with pytest.raises(ConfigurationError):
        trilinear(np.zeros((2, 2, 2)), np.zeros((3, 1)), mode="reflect")


# Taken on the scipy.ndimage path, seed 0.
DATASET_SHA256 = {
    ("jet", 0.14): "0d4105f5abf8d466655f71e19a496ea861736eefc153faad0f89c0979c2d64d3",
    ("rage", 0.12): "6ef14e287f9250668c0aa96a40be225c1bcd53f395cee672fbf25974a8aa1d57",
    ("viswoman", 0.08): "ee6e81e7b1ccce7ea77a77db6c078a0f4516de77ab04fad93b6f43145f8a730f",
    ("jet", 0.25): "8787822d95e901c1ec4b2ff18a20ff5f007dee1465ac0616cf603706457cd457",
    ("rage", 0.25): "5fc858ddd87c89c7071d523376550ed763fdb30f059ae4e78de569d2a1f76b5c",
    ("viswoman", 0.25): "3fc736e4aaa92f38cba60986a19bdb343e9ec1982a8019adaf77cf8aa7d2b47e",
}
RAYCAST = {  # name -> (samples inside the volume, sha256 of the pixels)
    "jet": (22236, "c80d17eae5790eb25b3e5242f13c554940db8d3ffd8942813801ee444637450b"),
    "rage": (39684, "7088c804b8c4effb25811ffca77e8dd3dea445e11fc63e89fe4127518ee42791"),
    "viswoman": (21756, "8a65c3d4f6a879edf8f902cb3a5731ee1c6b410a66aef1656f33d6685cf72ce6"),
}
STREAMLINES = {  # name -> (advections, sha256 of the polylines)
    "jet": (4616, "79aae15088b6b72ae570d742252878119992a8e261f12aa23e905f8f35134d10"),
    "rage": (3832, "bcf79e5aca69e5edd362a006ff3cc91a5786e30f8d54feaad4c0fe26c17f7afa"),
}
SAMPLE_WORLD_SHA256 = "f551765e4c7909025907bf027bb5a9e4fe7605e2651ced98584461dddf101d90"
VECTOR_SAMPLE_WORLD_SHA256 = "5dcdae779907cb23f497396ee382e9af8b8d8953076eb9981d5efed871216520"

_MAKERS = {"jet": make_jet, "rage": make_rage, "viswoman": make_viswoman}


@pytest.fixture(scope="module")
def calibration_grids():
    return make_calibration_grids(0)


@pytest.mark.parametrize(("name", "scale"), list(DATASET_SHA256))
def test_dataset_bytes_unchanged(name, scale):
    """Calibration scales and Fig. 9's scale=0.25."""
    assert _sha(_MAKERS[name](scale=scale, seed=0).values) == DATASET_SHA256[(name, scale)]


def test_raycast_pixels_unchanged(calibration_grids):
    for grid in calibration_grids:
        cam = OrthoCamera.framing(*grid.bounds(), width=64, height=64)
        res = raycast(grid, camera=cam, step=float(min(grid.spacing)), early_termination=1.1)
        assert (res.n_samples_total, _sha(res.image.pixels)) == RAYCAST[grid.name]


def test_streamline_polylines_unchanged(calibration_grids):
    for grid in calibration_grids[:2]:
        field = grid.gradient()
        res = trace_streamlines(field, seed_grid(field, n_per_axis=3), n_steps=50, h=0.25)
        assert (res.advections, _sha(res.paths)) == STREAMLINES[grid.name]


def test_sample_world_unchanged(calibration_grids):
    """Points up to three cells outside the bounds: the nearest-edge rule."""
    jet, rage, _ = calibration_grids
    lo, hi = jet.bounds()
    pts = np.random.default_rng(31).uniform(lo - 3.0, hi + 3.0, size=(200, 3))
    assert _sha(jet.sample_world(pts)) == SAMPLE_WORLD_SHA256
    assert _sha(rage.gradient().sample_world(pts)) == VECTOR_SAMPLE_WORLD_SHA256
