import dataclasses
import math
import re

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
    objective,
)


def quadratic_oracle(A, b):
    return SmoothOracle(
        value=lambda x: float(0.5 * x @ (A @ x) + b @ x),
        grad=lambda x: A @ x + b,
    )


def linear_map(J):
    """The map x -> J x, with pullback w -> J^T w."""
    return MapOracle(lambda x: (J @ x, lambda w: J.T @ w))


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
    assert rep.message == "grad along direction 1 disagrees with central differences by 0.5 relative"


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
    # The step 1e-6*(1 + max|x|) exceeds 1e-2 beyond max|x| = 9999, and is NaN
    # at a NaN point; check_vjp takes its step through the same check.
    f = SmoothOracle(value=lambda x: 0.0, grad=lambda x: np.zeros_like(x))
    c = linear_map(np.eye(2))
    assert check_gradient(f, np.array([0.0, -9999.0])).passed
    assert check_vjp(c, np.array([0.0, -9999.0])).passed
    for x, shown in (([0.0, -1e4], "10000"), ([1e5, 0.0], "100000"), ([math.nan, 0.0], "nan")):
        message = f"finite-difference checks need max|x| <= 9999, got {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            check_gradient(f, np.array(x))
        with pytest.raises(ValueError, match=re.escape(message)):
            check_vjp(c, np.array(x))


def test_check_vjp_passes_on_linear_map():
    rng = np.random.default_rng(2)
    J = rng.standard_normal((4, 6))
    rep = check_vjp(linear_map(J), rng.standard_normal(6), rng=rng)
    assert rep.passed


def test_check_vjp_fails_on_wrong_adjoint():
    J = np.array([[1.0, 2.0], [3.0, 4.0]])
    c = MapOracle(lambda x: (J @ x, lambda w: J @ w))  # J, not J.T
    rep = check_vjp(c, np.ones(2), rng=np.random.default_rng(0))
    assert not rep.passed


def test_check_vjp_checks_the_linearize_pullback():
    rng = np.random.default_rng(3)
    J = rng.standard_normal((4, 6))
    x = rng.standard_normal(6)
    good = linear_map(J)
    assert check_vjp(good, x).passed
    wrong_pullback = MapOracle(lambda x: (J @ x, lambda w: 2.0 * (J.T @ w)))
    rep = check_vjp(wrong_pullback, x)
    assert not rep.passed and rep.message.startswith("pullback at pair")
    # a replaced value, such as a benchmark's call recorder, must stay linearize(x)[0]
    wrong_value = dataclasses.replace(good, value=lambda x: J @ x + 1e-9)
    rep = check_vjp(wrong_value, x)
    assert not rep.passed and "linearize(x)[0] differs from value(x)" in rep.message


def test_map_given_by_a_linearizer_derives_value_and_vjp():
    J = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    c = linear_map(J)
    x, w = np.array([1.0, -2.0]), np.array([0.5, 1.0, -1.0])
    np.testing.assert_array_equal(c.value(x), J @ x)
    np.testing.assert_array_equal(c.vjp(x, w), J.T @ w)
    # linearize is the map: value and vjp do not make one
    for kwargs in ({}, {"value": lambda x: J @ x, "vjp": lambda x, w: J.T @ w}):
        with pytest.raises(TypeError, match="linearize"):
            MapOracle(**kwargs)


def test_fd_step_scales_with_point():
    # the checkers evaluate f at x +- h*e_i with h = 1e-6*(1 + max|x|)
    for x, h in ((np.zeros(3), 1e-6), (np.array([9.0]), 1e-5), (np.array([-3.0, 1.0]), 4e-6)):
        seen = []
        f = SmoothOracle(value=lambda y: seen.append(y - x) or 0.0, grad=np.zeros_like)
        check_gradient(f, x)
        assert np.max(np.abs(seen)) == pytest.approx(h)


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
    return Problem(f=f, g=g, h=h, c=linear_map(np.eye(2)), n=2, m=2)


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
