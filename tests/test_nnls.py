"""The in-repo Lawson–Hanson NNLS against ``scipy.optimize.nnls``.

SciPy's solver stays here as the oracle: ``repro`` fits ``T_Case`` with
its own numpy ``nnls`` so the serving process never loads
``scipy.optimize``, and these tests hold the two to the same answer on
arbitrary systems and on the real calibration records.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.costmodel import calibration
from repro.costmodel.calibration import nnls

# Zero, or a magnitude in [1e-6, 100]: eight decades of scale within a
# system (the calibration system is block counts against seconds).
# Entries down at 1e-290 make the minimiser itself overflow a float, and
# there neither solver's answer can be checked.
FLOATS = st.one_of(
    st.just(0.0),
    st.floats(1e-6, 100.0).flatmap(lambda v: st.sampled_from([v, -v])),
)


@st.composite
def systems(draw):
    """``(A, b)`` with 1–24 rows and 1–10 columns; some columns zeroed or
    repeated, so rank-deficient and zero-column systems come up often."""
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 10))
    A = draw(hnp.arrays(np.float64, (m, n), elements=FLOATS))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        A[:, j] = 0.0
    if n > 1 and draw(st.booleans()):
        A[:, n - 1] = draw(st.sampled_from([1.0, -2.0, 0.5])) * A[:, 0]
    b = draw(hnp.arrays(np.float64, (m,), elements=FLOATS))
    return A, b


def _magnitude(A, b, x) -> float:
    """Size of the numbers ``A x - b`` cancels: residuals and gradients are
    only accurate relative to this (a fit through a 1e-6 column needs an
    ``x`` near 1e8, and its products cancel down to ``b``)."""
    return max(float(np.linalg.norm(np.abs(A) @ x)), float(np.linalg.norm(b)), 1.0)


def _kkt_violation(A, b, x) -> float:
    """Largest breach of the NNLS optimality conditions, relative to the
    data: ``w = A^T (b - A x) <= 0`` everywhere and ``w == 0`` where
    ``x > 0``."""
    w = A.T @ (b - A @ x)
    breach = max(w.max(initial=0.0), np.abs(w[x > 0]).max(initial=0.0))
    return float(breach / (max(np.abs(A).max(), 1.0) * _magnitude(A, b, x)))


@settings(max_examples=300, deadline=None)
@given(systems())
# A column ~1e-169 in scale still fits its row: the entry test is per column.
@example(system=(np.array([[1.0, 7.62901e-170], [7.62901e-170, 7.62901e-170]]),
                 np.array([1.0, 1.0])))
# An exact non-negative fit exists (x = (1, 0, 4.6e50)); the oracle stops
# at residual 0.71 here.
@example(system=(np.array([[1.0, -2.18947033e-51, -2.18947033e-51],
                           [-2.18947033e-51, -2.18947033e-51, -2.18947033e-51],
                           [-2.18947033e-51, -1.0, -2.18947033e-51]]),
                 np.array([0.0, -1.0, -1.0])))
def test_nnls_matches_scipy(system):
    A, b = system
    try:
        ref, _ = scipy.optimize.nnls(A, b)
    except RuntimeError:  # the oracle's own iteration cap
        assume(False)
    # The oracle's own rnorm can disagree with its x on degenerate systems.
    ref_rnorm = np.linalg.norm(A @ ref - b)
    x, rnorm = nnls(A, b)
    assert x.shape == (A.shape[1],)
    assert (x >= 0).all()
    assert rnorm == pytest.approx(np.linalg.norm(A @ x - b), rel=1e-12, abs=1e-12)
    # Optimal (the conditions are sufficient: the problem is convex), so
    # the objective ||A x - b||^2 is never worse than the oracle's, and
    # equal wherever the oracle is optimal -- to 1e-12 of the squared
    # magnitudes in play (a float objective is no more exact than that).
    assert _kkt_violation(A, b, x) < 1e-9
    tol = 1e-12 * max(_magnitude(A, b, x), _magnitude(A, b, ref)) ** 2
    assert rnorm**2 <= ref_rnorm**2 + tol
    if _kkt_violation(A, b, ref) < 1e-9:
        assert rnorm**2 == pytest.approx(ref_rnorm**2, abs=tol)
    # A zero column has no gradient and never enters the free set.
    assert (x[~A.any(axis=0)] == 0).all()
    # With full column rank the minimiser is unique: same x, not just
    # the same residual.
    if A.shape[0] >= A.shape[1] and np.linalg.cond(A) < 1e6:
        np.testing.assert_allclose(x, ref, rtol=0, atol=1e-8 * max(1.0, ref.max()))


@pytest.mark.parametrize("A, b, expected", [
    ([[1, 0], [1, 0], [0, 1]], [2, 1, 1], [1.5, 1.0]),
    ([[1, 0], [1, 0], [0, 1]], [-1, -1, -1], [0.0, 0.0]),
    ([[0.0, 0.0]], [3.0], [0.0, 0.0]),
])
def test_nnls_small_cases(A, b, expected):
    x, _ = nnls(np.array(A, float), np.array(b, float))
    np.testing.assert_allclose(x, expected, atol=1e-15)


def test_calibrated_t_case_equals_the_scipy_fit(monkeypatch):
    """Same calibration records, both solvers: ``T_Case`` agrees to
    1e-12 of its largest entry (unseen classes take the same fallback)."""
    grids = calibration.make_calibration_grids(seed=0)
    recorded = []
    real = calibration.extract_blocks

    def record(*args):
        out = real(*args)
        recorded.append(out)
        return out

    monkeypatch.setattr(calibration, "extract_blocks", record)
    ours = calibration.calibrate_isosurface(grids).t_case
    replay = iter(recorded)
    monkeypatch.setattr(calibration, "extract_blocks", lambda *args: next(replay))
    monkeypatch.setattr(calibration, "nnls", scipy.optimize.nnls)
    ref = calibration.calibrate_isosurface(grids).t_case
    assert next(replay, None) is None
    assert sum(len(records) for _, records in recorded) >= 100
    assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()
