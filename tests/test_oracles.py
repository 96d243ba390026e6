import dataclasses
import math

import numpy as np
import pytest

from sdcam.oracles import (
    CheckReport,
    MapOracle,
    Problem,
    ProxOracle,
    SmoothOracle,
    check_gradient,
    check_vjp,
    default_fd_step,
    objective,
)


def quadratic_oracle(A, b):
    return SmoothOracle(
        value=lambda x: float(0.5 * x @ (A @ x) + b @ x),
        grad=lambda x: A @ x + b,
    )


def test_check_gradient_passes_on_exact_quadratic():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 5))
    A = M + M.T
    b = rng.standard_normal(5)
    rep = check_gradient(quadratic_oracle(A, b), rng.standard_normal(5))
    assert rep.passed
    assert rep.max_rel_error <= 1e-5


def test_check_gradient_fails_on_corrupted_gradient():
    A = np.eye(3)
    b = np.zeros(3)
    broken = SmoothOracle(
        value=lambda x: float(0.5 * x @ x),
        grad=lambda x: x + np.array([0.0, 1.0, 0.0]),  # wrong in coordinate 1
    )
    rep = check_gradient(broken, np.ones(3))
    assert not rep.passed
    assert rep.worst_index == 1


def test_check_gradient_nonfinite_value_reports_message():
    bad = SmoothOracle(value=lambda x: float("nan"), grad=lambda x: np.zeros_like(x))
    rep = check_gradient(bad, np.zeros(2))
    assert not rep.passed
    assert "non-finite" in rep.message


def test_check_gradient_uses_random_directions_in_high_dimension():
    n = 100
    f = SmoothOracle(value=lambda x: float(0.5 * x @ x), grad=lambda x: x)
    rep = check_gradient(f, np.ones(n), rng=np.random.default_rng(1))
    assert rep.passed


def test_check_gradient_rejects_bad_step():
    # check_vjp takes its step through the same check as check_gradient
    f = SmoothOracle(value=lambda x: 0.0, grad=lambda x: np.zeros_like(x))
    c = MapOracle(value=lambda x: x.copy(), vjp=lambda x, w: np.asarray(w, dtype=float))
    for h_step in (1.0, 0.0, -1e-4, math.nan):
        with pytest.raises(ValueError, match=r"outside \[1e-8, 1e-2\]"):
            check_gradient(f, np.zeros(2), h_step=h_step)
        with pytest.raises(ValueError, match=r"outside \[1e-8, 1e-2\]"):
            check_vjp(c, np.zeros(2), h_step=h_step)


def test_check_vjp_passes_on_linear_map():
    rng = np.random.default_rng(2)
    J = rng.standard_normal((4, 6))
    c = MapOracle(value=lambda x: J @ x, vjp=lambda x, w: J.T @ w)
    rep = check_vjp(c, rng.standard_normal(6), rng=rng)
    assert rep.passed


def test_check_vjp_fails_on_wrong_adjoint():
    J = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = MapOracle(value=lambda x: J @ x, vjp=lambda x, w: J @ w)  # J, not J.T
    rep = check_vjp(c, np.ones(2), rng=np.random.default_rng(0))
    assert not rep.passed


def test_check_vjp_checks_the_linearize_pullback():
    rng = np.random.default_rng(3)
    J = rng.standard_normal((4, 6))
    x = rng.standard_normal(6)
    good = MapOracle(
        value=lambda x: J @ x,
        vjp=lambda x, w: J.T @ w,
        linearizer=lambda x: (J @ x, lambda w: J.T @ w),
    )
    assert check_vjp(good, x).passed
    wrong_pullback = dataclasses.replace(good, linearizer=lambda x: (J @ x, lambda w: 2.0 * (J.T @ w)))
    rep = check_vjp(wrong_pullback, x)
    assert not rep.passed and rep.message.startswith("pullback")
    wrong_value = dataclasses.replace(good, linearizer=lambda x: (J @ x + 1e-9, lambda w: J.T @ w))
    rep = check_vjp(wrong_value, x)
    assert not rep.passed and "linearize(x)[0] differs from value(x)" in rep.message


def test_default_linearize_is_value_and_vjp():
    J = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    c = MapOracle(value=lambda x: J @ x, vjp=lambda x, w: J.T @ w)
    x, w = np.array([1.0, -2.0]), np.array([0.5, 1.0, -1.0])
    c_x, pullback = c.linearize(x)
    np.testing.assert_array_equal(c_x, J @ x)
    np.testing.assert_array_equal(pullback(w), J.T @ w)


def test_map_given_by_a_linearizer_derives_value_and_vjp():
    J = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    c = MapOracle(linearizer=lambda x: (J @ x, lambda w: J.T @ w))
    x, w = np.array([1.0, -2.0]), np.array([0.5, 1.0, -1.0])
    np.testing.assert_array_equal(c.value(x), J @ x)
    np.testing.assert_array_equal(c.vjp(x, w), J.T @ w)
    for kwargs in ({}, {"value": lambda x: J @ x}, {"vjp": lambda x, w: J.T @ w}):
        with pytest.raises(ValueError, match="needs both value and vjp"):
            MapOracle(**kwargs)


def test_default_fd_step_scales_with_point():
    assert default_fd_step(np.zeros(3)) == pytest.approx(1e-6)
    assert default_fd_step(np.array([9.0])) == pytest.approx(1e-5)


def _tiny_problem():
    f = SmoothOracle(value=lambda x: float(0.5 * x @ x), grad=lambda x: x)
    g = ProxOracle(
        value=lambda x: 0.0 if np.all(np.abs(x) <= 1.0) else math.inf,
        prox=lambda z, gamma: np.clip(z, -1.0, 1.0),
    )
    h = ProxOracle(
        value=lambda y: 0.0 if np.all(y <= 0.0) else math.inf,
        prox=lambda z, gamma: np.minimum(z, 0.0),
    )
    c = MapOracle(value=lambda x: x.copy(), vjp=lambda x, w: w.copy())
    return Problem(f=f, g=g, h=h, c=c, n=2, m=2)


def test_objective_propagates_infinities():
    p = _tiny_problem()
    assert objective(p, np.array([0.5, -0.5])) == math.inf  # h(c(x)) = inf
    assert objective(p, np.array([-0.5, -0.5])) == pytest.approx(0.25)
    assert objective(p, np.array([2.0, 0.0])) == math.inf  # g = inf


def test_problem_rejects_bad_dimensions():
    p = _tiny_problem()
    with pytest.raises(ValueError):
        Problem(f=p.f, g=p.g, h=p.h, c=p.c, n=0, m=2)
    with pytest.raises(ValueError):
        Problem(f=p.f, g=p.g, h=p.h, c=p.c, n=2, m=0)
