import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcam.prox import (
    LpProxParams,
    _lp_objective,
    _lp_stationary,
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


def _moderate_draw(rng):
    params = LpProxParams(
        p=float(rng.choice([0.5, 0.8])),
        alpha=float(10.0 ** rng.uniform(-2, 1)),
        gamma=float(10.0 ** rng.uniform(-3, 3)),
    )
    return float(rng.uniform(-10, 10)), params


def _stall_draw(rng):
    # gamma is small next to |z| times the float64 spacing, so Newton stops
    # short of its residual test and its last iterate is the output
    params = LpProxParams(
        p=float(rng.choice([0.5, 0.8, 0.99])),
        alpha=float(10.0 ** rng.uniform(-2, 1)),
        gamma=float(10.0 ** rng.uniform(-10, -4)),
    )
    return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 4)), params


@pytest.mark.parametrize(
    "draw", [pytest.param(_moderate_draw, id="moderate"), pytest.param(_stall_draw, id="stall")]
)
def test_prox_lp_power_beats_grid_oracle_sample(draw):
    rng = np.random.default_rng(3)
    for _ in range(50):
        z, params = draw(rng)
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
    nan, inf = float("nan"), float("inf")
    for alpha, gamma in ((nan, 1.0), (1.0, nan), (inf, 1.0), (1.0, inf), (nan, nan)):
        with pytest.raises(ValueError, match="positive and finite"):
            LpProxParams(p=0.5, alpha=alpha, gamma=gamma)
    with pytest.raises(ValueError):
        LpProxParams(p=nan, alpha=1.0, gamma=1.0)
    # w = alpha*gamma overflows, which prox_lp_power would meet as a
    # divide-by-zero warning
    with pytest.raises(ValueError, match="overflows"):
        LpProxParams(p=0.5, alpha=1e300, gamma=1e300)
    LpProxParams(p=0.5, alpha=1e150, gamma=1e150)  # w = 1e300 is finite


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


# Newton stops short of its residual test on this input, because gamma is
# small next to |z| times the float64 spacing; its last iterate is the output.
_STALL_Z = -1839.2142694222582
_STALL_PARAMS = LpProxParams(p=0.5, alpha=0.0011809911805141368, gamma=2.8386688908351516e-08)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


_BOX_PARAMS = LpProxParams(p=0.8, alpha=0.01, gamma=1.0)  # threshold 0.0301...


@pytest.mark.parametrize(
    "params, r, special",
    [
        # 0.02 is below the threshold; 100 has the box optimum r = 1
        (_BOX_PARAMS, 1.0, [0.0, -0.0, 0.02, -0.02, 100.0, -100.0]),
        (_STALL_PARAMS, 2000.0, [0.0, -0.0, _STALL_Z, -_STALL_Z, 3000.0]),
    ],
)
def test_array_calls_equal_elementwise_calls_bit_for_bit(params, r, special):
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
    # the special inputs, the stalling ones included, against the grid oracle
    for zi in special:
        u = prox_lp_power(zi, params)
        u_grid = grid_prox_scalar(zi, params)
        assert scalar_prox_objective(u, zi, params) <= (
            scalar_prox_objective(u_grid, zi, params) + 1e-8
        )


def _lp_prox_battery():
    """(params, r, z): p in (0,1), gamma from 1e-8 to 1e6, +-0, +-inf, NaN,
    +-1e300, the smallest subnormal, the threshold itself, the Newton-stall
    input, and radii below and above the prox."""
    rng = np.random.default_rng(11)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324]
    for p in (0.1, 0.5, 0.8, 0.9):
        for gamma in (1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
            params = LpProxParams(p=p, alpha=float(10.0 ** rng.uniform(-3, 1)), gamma=gamma)
            thr = lp_threshold(p, params.alpha * gamma)
            z = np.concatenate([
                special,
                [thr, -thr],
                rng.standard_normal(24) * thr * 10.0 ** rng.uniform(-1, 2, 24),
                rng.standard_normal(8) * 10.0 ** rng.uniform(-3, 4, 8),
            ])
            for r in (0.3 * thr, 3.0 * thr, 1e6 * thr):
                yield params, r, z
    z = np.array([_STALL_Z, -_STALL_Z, 0.5 * _STALL_Z, 3000.0])
    for r in (1000.0, 2000.0):
        yield _STALL_PARAMS, r, z


def test_lp_prox_output_bits_are_pinned():
    # sha256 of the little-endian float64 outputs over the battery, recorded
    # when the lp prox became Newton only; the box digest was re-recorded when
    # the box prox of +-inf became +-r and of NaN became NaN (its finite
    # entries kept their bits), and again when the box prox of +-1e300 became
    # +-r instead of 0 (every other entry kept its bits).  A change here
    # changes trace bits: update the digests only with a numerics change that
    # CHANGES.md explains.
    power, box = hashlib.sha256(), hashlib.sha256()
    for params, r, z in _lp_prox_battery():
        power.update(np.asarray(prox_lp_power(z, params), dtype="<f8").tobytes())
        box.update(np.asarray(prox_lp_box(z, params, r), dtype="<f8").tobytes())
    assert power.hexdigest() == "a4fddda1b3a4d1eb38336ea51f19df78f5a85fd1bd67c4b69e0fbc6d3893f3a4"
    assert box.hexdigest() == "b34f7777788f2652d634351fa6848ade1011ba1c1fa63d648fdc6a1245495961"


@pytest.mark.parametrize(
    "params",
    [
        _BOX_PARAMS,
        _STALL_PARAMS,
        LpProxParams(p=0.1, alpha=5.0, gamma=1e6),
        LpProxParams(p=0.99, alpha=1e-3, gamma=1e-8),
        LpProxParams(p=0.5, alpha=1e150, gamma=1e150),
    ],
)
def test_lp_q0_equals_the_objective_at_zero_bit_for_bit(params):
    # _lp_stationary forms q(0) as 0.5*a^2 instead of evaluating the
    # objective at u = 0; the two must agree to the bit, NaN included
    a = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan, 1.5])
    w = params.alpha * params.gamma
    for arg in (a, np.abs(a), *a):
        arg = np.asarray(arg)
        q_0 = _lp_stationary(arg, params)[2]
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _lp_objective(0.0, arg, w, params.p)
        assert np.shape(q_0) == np.shape(ref)
        np.testing.assert_array_equal(_bits(q_0), _bits(ref))


@pytest.mark.parametrize("gamma", [1e-8, 1.0, 1e6])
@pytest.mark.parametrize("z", [1e200, -1e250, 1e300])
def test_lp_prox_of_huge_input_near_p_one_is_the_input(z, gamma):
    # Newton stops at once here, since its step w*p*z^(p-1) rounds to nothing
    # next to z, so its first iterate z is the output.  The suite turns
    # RuntimeWarnings into errors, so this also checks for silence.
    params = LpProxParams(p=0.99, alpha=1.0, gamma=gamma)
    assert prox_lp_power(z, params) == z
    np.testing.assert_array_equal(prox_lp_power(np.array([z, -z]), params), [z, -z])
    assert prox_lp_box(np.array([z]), params, 2.0 * abs(z))[0] == z
    # the non-finite contract: +-inf is its own prox, and NaN stays NaN
    special = np.array([np.inf, -np.inf, np.nan])
    np.testing.assert_array_equal(prox_lp_power(special, params), special)


@pytest.mark.parametrize(
    "params, r",
    [
        (_BOX_PARAMS, 1.0),
        (_STALL_PARAMS, 2000.0),
        (LpProxParams(p=0.99, alpha=1.0, gamma=1e6), 1e300),
        (LpProxParams(p=0.1, alpha=1e-3, gamma=1e-8), 5e-324),
    ],
)
def test_prox_lp_box_of_non_finite_input(params, r):
    # +-inf gives +-r, the minimizer over [-r, r] as z grows without bound,
    # and NaN gives NaN, so an overflowed or NaN input does not come back as
    # a feasible point; finite entries alongside keep their elementwise bits
    out = prox_lp_box(np.array([np.inf, -np.inf, np.nan]), params, r)
    assert out[0] == r and out[1] == -r and np.isnan(out[2])
    z = np.array([np.nan, 3.0 * r, -np.inf, 0.5 * r, np.inf, -0.0, -2.0 * r])
    mixed = prox_lp_box(z, params, r)
    each = [prox_lp_box(np.array([zi]), params, r)[0] for zi in z]
    np.testing.assert_array_equal(_bits(mixed), _bits(each))


@pytest.mark.parametrize("r", [0.5, 2.0, 1e3, 1e12, 1e16, 1e100, 1e180, 1e250])
def test_prox_lp_box_of_huge_finite_input_is_the_clamped_prox(r):
    # q(r) and q(0) round equal from |z| = 3e16 (r = 2) and overflow from
    # about 1.9e154, so only the exact gap q(r) - q(0) tells 0 from r there;
    # for |z| this far above the threshold the minimizer over [-r, r] is
    # sign(z)*min(u, r), with u the unconstrained prox
    params = LpProxParams(p=0.5, alpha=1.0, gamma=1.0)
    z = np.array([1e15, 1e16, 3e16, 1e17, 1e150, 1e200])
    z = np.concatenate([z, -z])
    want = np.copysign(np.minimum(np.abs(prox_lp_power(z, params)), r), z)
    np.testing.assert_array_equal(_bits(prox_lp_box(z, params, r)), _bits(want))


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
