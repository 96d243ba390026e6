import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdcam.prox
from sdcam.prox import (
    LpProxParams,
    lp_threshold,
    project_box,
    prox_l1_box,
    prox_lp_box,
    prox_lp_power,
    soft_threshold,
)
from sdcam.verify import grid_prox_scalar, scalar_prox_objective


def test_soft_threshold_basic():
    z = np.array([3.0, -0.5, 0.0, 1.0])
    np.testing.assert_allclose(soft_threshold(z, 1.0), [2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        soft_threshold(z, -0.1)


def test_lp_threshold_half_closed_form():
    # p = 1/2, w = 1: nonzero stationary point u = (2w(1-p))^(1/(2-p)) = 1,
    # threshold = 1 + w*p*1^(p-1) = 1.5
    assert lp_threshold(0.5, 1.0) == pytest.approx(1.5)


def test_prox_lp_power_zero_input():
    assert prox_lp_power(0.0, LpProxParams(p=0.5, alpha=1.0, gamma=1.0)) == 0.0


def test_prox_lp_power_below_threshold_is_zero():
    params = LpProxParams(p=0.5, alpha=1.0, gamma=1.0)
    assert prox_lp_power(1.4, params) == 0.0
    assert prox_lp_power(-1.4, params) == 0.0


def test_prox_lp_power_frozen_grid_value():
    # z=10, gamma=1, alpha=1, p=0.5: minimizer located by exhaustive grid
    # search + golden refinement, recorded as the expectation.
    params = LpProxParams(p=0.5, alpha=1.0, gamma=1.0)
    u = prox_lp_power(10.0, params)
    assert u == pytest.approx(9.840610768298298, abs=1e-9)
    # and it beats/ties the grid oracle in objective value
    u_grid = grid_prox_scalar(10.0, params)
    assert scalar_prox_objective(u, 10.0, params) <= (
        scalar_prox_objective(u_grid, 10.0, params) + 1e-8
    )


def test_prox_lp_power_beats_grid_oracle_sample():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = float(rng.choice([0.5, 0.8]))
        params = LpProxParams(
            p=p,
            alpha=float(10.0 ** rng.uniform(-2, 1)),
            gamma=float(10.0 ** rng.uniform(-3, 3)),
        )
        z = float(rng.uniform(-10, 10))
        u = prox_lp_power(z, params)
        u_grid = grid_prox_scalar(z, params)
        assert scalar_prox_objective(u, z, params) <= (
            scalar_prox_objective(u_grid, z, params) + 1e-8
        )


@settings(max_examples=200, deadline=None)
@given(
    z=st.floats(-100.0, 100.0),
    p=st.sampled_from([0.5, 0.8]),
    w=st.floats(1e-3, 1e2),
)
def test_prox_lp_power_odd_symmetry(z, p, w):
    params = LpProxParams(p=p, alpha=w, gamma=1.0)
    assert prox_lp_power(-z, params) == -prox_lp_power(z, params)


@settings(max_examples=200, deadline=None)
@given(
    z=st.floats(-100.0, 100.0),
    p=st.sampled_from([0.5, 0.8]),
    w=st.floats(1e-3, 1e2),
)
def test_prox_lp_power_never_worse_than_endpoints(z, p, w):
    # the output must not lose to the candidates 0 and z themselves
    params = LpProxParams(p=p, alpha=w, gamma=1.0)
    u = prox_lp_power(z, params)
    q = scalar_prox_objective(u, z, params)
    assert q <= scalar_prox_objective(0.0, z, params) + 1e-10
    assert q <= scalar_prox_objective(z, z, params) + 1e-10
    assert abs(u) <= abs(z)


def test_prox_lp_params_validation():
    with pytest.raises(ValueError):
        LpProxParams(p=1.0, alpha=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        LpProxParams(p=0.5, alpha=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        LpProxParams(p=0.5, alpha=1.0, gamma=-1.0)


def test_prox_lp_box_boundary_optimum():
    # z=100, gamma=1, alpha=0.01, p=0.8, r=1: the box truncates the large
    # interior minimizer; the grid oracle over [-1,1] confirms the boundary.
    params = LpProxParams(p=0.8, alpha=0.01, gamma=1.0)
    out = prox_lp_box(np.array([100.0]), params, 1.0)
    np.testing.assert_allclose(out, [1.0])


def test_prox_lp_box_matches_dense_grid():
    rng = np.random.default_rng(4)
    for _ in range(20):
        params = LpProxParams(
            p=float(rng.choice([0.5, 0.8])),
            alpha=float(10.0 ** rng.uniform(-2, 0)),
            gamma=float(10.0 ** rng.uniform(-1, 1)),
        )
        r = float(rng.uniform(0.5, 3.0))
        z = float(rng.uniform(-5, 5))
        u = prox_lp_box(np.array([z]), params, r)[0]
        grid = np.linspace(-r, r, 200001)
        q = 0.5 / params.gamma * (grid - z) ** 2 + params.alpha * np.abs(grid) ** params.p
        best = q.min()
        q_u = 0.5 / params.gamma * (u - z) ** 2 + params.alpha * abs(u) ** params.p
        assert q_u <= best + 1e-8


def test_prox_lp_box_requires_positive_radius():
    with pytest.raises(ValueError):
        prox_lp_box(np.zeros(1), LpProxParams(p=0.5, alpha=1.0, gamma=1.0), 0.0)


# Newton stalls on this input and the golden-section fallback takes over.
_FALLBACK_Z = -1839.2142694222582
_FALLBACK_PARAMS = LpProxParams(p=0.5, alpha=0.0011809911805141368, gamma=2.8386688908351516e-08)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


_BOX_PARAMS = LpProxParams(p=0.8, alpha=0.01, gamma=1.0)  # threshold 0.0301...


@pytest.mark.parametrize(
    "params, r, special",
    [
        # 0.02 is below the threshold; 100 has the box optimum r = 1
        (_BOX_PARAMS, 1.0, [0.0, -0.0, 0.02, -0.02, 100.0, -100.0]),
        (_FALLBACK_PARAMS, 2000.0, [0.0, -0.0, _FALLBACK_Z, -_FALLBACK_Z, 3000.0]),
    ],
)
def test_array_calls_equal_elementwise_calls_bit_for_bit(monkeypatch, params, r, special):
    golden_calls = []
    golden = sdcam.prox._golden_section
    monkeypatch.setattr(
        sdcam.prox, "_golden_section", lambda *a: golden_calls.append(a) or golden(*a)
    )
    rng = np.random.default_rng(6)
    n = 24 - len(special)
    z = np.concatenate([special, rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 3, n)])
    for shape in (z.shape, (4, 6)):
        zs = z.reshape(shape)
        u = prox_lp_power(zs, params)
        box = prox_lp_box(zs, params, r)
        assert u.shape == box.shape == shape
        u_each = [prox_lp_power(float(zi), params) for zi in zs.ravel()]
        box_each = [prox_lp_box(np.array([zi]), params, r)[0] for zi in zs.ravel()]
        assert all(type(v) is float for v in u_each)
        np.testing.assert_array_equal(_bits(u).ravel(), _bits(u_each))
        np.testing.assert_array_equal(_bits(box).ravel(), _bits(box_each))
    assert bool(golden_calls) == (params is _FALLBACK_PARAMS)


def test_prox_lp_box_signs_of_zero():
    # z = -0.0 gives +0.0; a negative z whose optimum is 0 gives -0.0
    assert prox_lp_power(0.02, _BOX_PARAMS) == 0.0
    out = prox_lp_box(np.array([-0.0, 0.0, -0.02, 0.02, -100.0]), _BOX_PARAMS, 1.0)
    assert _bits(out).tolist() == _bits([0.0, 0.0, -0.0, 0.0, -1.0]).tolist()


def _half_thresholding(z, lam):
    """Closed-form argmin_u (u - z)^2 + lam*|u|^(1/2) (Xu et al., "L1/2
    regularization: a thresholding representation theory and a fast solver",
    IEEE TNNLS 2012); 0 at and below the threshold (54^(1/3)/4)*lam^(2/3)."""
    z = np.asarray(z, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.arccos(lam / 8.0 * (np.abs(z) / 3.0) ** -1.5)
    u = 2.0 / 3.0 * z * (1.0 + np.cos(2.0 * np.pi / 3.0 - 2.0 / 3.0 * phi))
    return np.where(np.abs(z) > 54.0 ** (1.0 / 3.0) / 4.0 * lam ** (2.0 / 3.0), u, 0.0)


def test_prox_lp_power_matches_half_thresholding():
    rng = np.random.default_rng(7)
    for _ in range(200):
        alpha, gamma = 10.0 ** rng.uniform(-2, 1), 10.0 ** rng.uniform(-3, 3)
        params = LpProxParams(p=0.5, alpha=alpha, gamma=gamma)
        thr = lp_threshold(0.5, alpha * gamma)
        # half the draws straddle the threshold, the rest reach 100x past it
        mag = np.concatenate([rng.uniform(0.0, 3.0, 50), 10.0 ** rng.uniform(-1, 2, 50)])
        z = np.concatenate([[thr, -thr], rng.choice([-1.0, 1.0], 100) * mag * thr])
        u = prox_lp_power(z, params)
        ref = _half_thresholding(z, 2.0 * alpha * gamma)
        same = (u == 0.0) == (ref == 0.0)
        np.testing.assert_allclose(u[same], ref[same], rtol=1e-8, atol=0.0)
        # 0 and the nonzero point tie at the threshold and ties break toward
        # 0, so where only one side is 0 the two objective values must agree
        q = lambda v: 0.5 / gamma * (v - z[~same]) ** 2 + alpha * np.abs(v) ** 0.5  # noqa: E731
        np.testing.assert_allclose(q(u[~same]), q(ref[~same]), rtol=1e-8, atol=0.0)


def test_prox_l1_box():
    out = prox_l1_box(np.array([3.0, -3.0, 0.4]), 1.0, 1.5)
    np.testing.assert_allclose(out, [1.5, -1.5, 0.0])
    with pytest.raises(ValueError):
        prox_l1_box(np.zeros(1), 1.0, -1.0)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(-50.0, 50.0),
    b=st.floats(-50.0, 50.0),
    tau=st.floats(0.0, 10.0),
)
def test_soft_threshold_firmly_nonexpansive(a, b, tau):
    pa = soft_threshold(np.array([a]), tau)[0]
    pb = soft_threshold(np.array([b]), tau)[0]
    assert (pa - pb) ** 2 <= (pa - pb) * (a - b) + 1e-12


def test_project_box():
    lo = np.array([0.0, -np.inf])
    hi = np.array([1.0, np.inf])
    np.testing.assert_allclose(project_box(np.array([2.0, -7.0]), lo, hi), [1.0, -7.0])
    with pytest.raises(ValueError):
        project_box(np.zeros(2), np.ones(2), np.zeros(2))
