import collections
import dataclasses
import math

import numpy as np
import pytest

import sdcam.solver
from sdcam.diagnostics import stationarity_residual
from sdcam.oracles import MapOracle, Problem, ProxOracle, SmoothOracle
from sdcam.schedule import ScheduleSpec, beta_at
from sdcam.solver import (
    SolverConfig,
    SolverError,
    condition_check,
    initial_state,
    solve,
    trial_step,
)
from sdcam.problems import FAMILIES, qcqp_generate, qcqp_problem, qcqp_initial_point

ORACLES = ("f.value", "f.grad", "g.value", "g.prox", "h.value", "h.prox", "c.value", "c.vjp")


def _identity_problem(curvature=1.0):
    """f = (curvature/2)||x||^2, g = 0, h = 0, c = identity."""
    f = SmoothOracle(
        value=lambda x: float(0.5 * curvature * x @ x),
        grad=lambda x: curvature * x,
        lipschitz_bound=curvature,
    )
    free = ProxOracle(value=lambda x: 0.0, prox=lambda z, gamma: np.asarray(z, dtype=float))
    c = MapOracle(value=lambda x: x.copy(), vjp=lambda x, w: np.asarray(w, dtype=float))
    return Problem(f=f, g=free, h=free, c=c, n=2, m=2, inf_fg_lower_bound=0.0)


def _config(**kw):
    defaults = dict(
        mu_max=1e7,
        mu_init=1.0,
        rho=0.5,
        eta=2.0,
        schedule=ScheduleSpec(family="power", beta0=1.0, delta=0.5),
        max_successful_iters=50,
        max_total_trials=5000,
    )
    defaults.update(kw)
    return SolverConfig(**defaults)


def _state(p, x0, y0, mu):
    return initial_state(p, x0, y0, mu)


def _family_run(family, seed, **kw):
    """(problem, x0, y0, rel_feas, config) for the family's ``check`` instance,
    with its solver defaults and a power schedule with delta = 0.3."""
    fam = FAMILIES[family]
    prob, x0, y0, rel_feas, _ = fam.setup(fam.generate(seed, **fam.check_kwargs))
    schedule = ScheduleSpec(family="power", beta0=1.0, delta=0.3)
    return prob, x0, y0, rel_feas, _config(**{**fam.solver_defaults, "schedule": schedule, **kw})


def _replace_oracle(p, name, fn):
    """p with the oracle method ``name`` (say "c.value") replaced by fn."""
    term, method = name.split(".")
    return dataclasses.replace(p, **{term: dataclasses.replace(getattr(p, term), **{method: fn})})


def _constant_oracle(name, value):
    """An oracle method for the 2-d identity problem that always returns value."""
    if name == "f.value":
        return lambda *args: value
    return lambda *args: np.full(2, value)


def test_trial_step_free_g_is_half_mu_gradient_step():
    # with g = 0 the prox is the identity, so x~ = x - (mu/2) v with
    # v = grad f(x) + beta * J^T (c(x) - y)
    p = _identity_problem()
    x0 = np.array([2.0, -1.0])
    y0 = np.array([0.5, 0.5])
    st = _state(p, x0, y0, mu=0.1)
    for beta in (1.0, 3.0):  # v is kept per beta_t: a new beta_t recomputes it
        v = x0 + beta * (x0 - y0)
        np.testing.assert_allclose(trial_step(p, st, beta, 0.1), x0 - 0.05 * v)


def test_trial_step_rejects_nonpositive_mu():
    p = _identity_problem()
    st = _state(p, np.ones(2), np.zeros(2), mu=1.0)
    with pytest.raises(ValueError):
        trial_step(p, st, 1.0, 0.0)


def test_trial_step_raises_on_non_finite_v():
    p = _identity_problem()
    st = _state(p, np.full(2, 1e10), np.zeros(2), mu=1.0)
    with pytest.raises(SolverError, match=r"not finite at beta_t=1e\+305"):
        trial_step(p, st, 1e305, 1.0)


def test_condition_check_accepts_at_fixed_point():
    p = _identity_problem()
    x0 = np.zeros(2)
    rep = condition_check(p, x0, x0, np.zeros(2), 1.0, 0.5, 0.0, np.zeros(2))
    assert rep.passed
    assert rep.margin_i == pytest.approx(0.0, abs=1e-12)


def test_rejection_shrinks_mu_and_preserves_state():
    # stiff curvature with a large initial mu forces at least one rejection
    p = _identity_problem(curvature=100.0)
    cfg = _config(mu_init=1.0, rho=0.5, max_successful_iters=5)
    res = solve(p, cfg, np.array([1.0, 1.0]), np.zeros(2))
    assert res.total_unsuccessful > 0
    assert res.total_trials == len(res.trace) + res.total_unsuccessful
    # first accepted row records how many rejections preceded it and uses the
    # unshrunk schedule value beta_0
    first = res.trace[0]
    assert first.unsuccessful_this_iter > 0
    assert first.beta_t == pytest.approx(1.0)
    assert first.mu_t == pytest.approx(0.5**first.unsuccessful_this_iter)


def test_mu_grows_by_eta_capped_at_mu_max():
    p = _identity_problem(curvature=1.0)
    cfg = _config(mu_init=0.1, eta=2.0, mu_max=0.5, max_successful_iters=10)
    res = solve(p, cfg, np.array([1.0, 0.0]), np.zeros(2))
    mus = [r.mu_t for r in res.trace]
    assert mus[0] == pytest.approx(0.1)
    assert mus[1] == pytest.approx(0.2)
    assert mus[2] == pytest.approx(0.4)
    # afterwards the cap binds (modulo backtracking shrinks)
    assert max(mus) <= 0.5 + 1e-15
    assert mus[3] == pytest.approx(0.5)


def test_trace_row_certifies_reads_the_three_distances():
    res = solve(_identity_problem(), _config(max_successful_iters=1), np.ones(2), np.zeros(2))
    row = dataclasses.replace(
        res.trace[0], residual=1.0, prev_gap=2.0, step_norm=3.0, gap=9.0, scaled_step=9.0
    )
    assert row.certifies(1.0, 2.0, 3.0)
    for eps in ((0.9, 2.0, 3.0), (1.0, 1.9, 3.0), (1.0, 2.0, 2.9)):
        assert not row.certifies(*eps)


def test_converged_status_with_stop_thresholds():
    # MIMO's check instance at delta 1/3 first certifies a (0.1, 0.1, 0.1)-
    # stationary point after about 175 accepted steps (seed 0).
    schedule = ScheduleSpec(family="power", beta0=1.0, delta=1.0 / 3.0)
    prob, x0, y0, _, cfg = _family_run(
        "mimo", 0, schedule=schedule, max_successful_iters=1000, stop_eps=0.1
    )
    res = solve(prob, cfg, x0, y0)
    assert res.status == "converged"
    assert 1 < len(res.trace) < 1000
    assert res.trace[-1].certifies(0.1, 0.1, 0.1)
    assert not any(row.certifies(0.1, 0.1, 0.1) for row in res.trace[:-1])


def test_iteration_and_trial_budget_statuses():
    p = _identity_problem()
    res = solve(p, _config(max_successful_iters=3), np.ones(2), np.zeros(2))
    assert res.status == "iteration budget"
    assert len(res.trace) == 3
    res = solve(
        p,
        _config(max_successful_iters=1000, max_total_trials=4),
        np.ones(2),
        np.zeros(2),
    )
    assert res.status == "trial budget"
    assert res.total_trials == 4


def test_infeasible_starts_rejected():
    p = _identity_problem()
    box = ProxOracle(
        value=lambda x: 0.0 if np.all(np.abs(x) <= 1.0) else math.inf,
        prox=lambda z, gamma: np.clip(z, -1.0, 1.0),
    )
    p2 = Problem(f=p.f, g=box, h=p.h, c=p.c, n=2, m=2, inf_fg_lower_bound=0.0)
    with pytest.raises(ValueError, match="x0 is infeasible"):
        solve(p2, _config(), np.array([2.0, 0.0]), np.zeros(2))
    p3 = Problem(f=p.f, g=p.g, h=box, c=p.c, n=2, m=2, inf_fg_lower_bound=0.0)
    with pytest.raises(ValueError, match="y0 is infeasible"):
        solve(p3, _config(), np.zeros(2), np.array([2.0, 0.0]))
    with pytest.raises(ValueError, match="dimensions"):
        solve(p, _config(), np.zeros(3), np.zeros(2))


def test_config_validation():
    with pytest.raises(ValueError):
        _config(mu_init=2e7)  # mu_init >= mu_max
    with pytest.raises(ValueError):
        _config(rho=1.0)
    with pytest.raises(ValueError):
        _config(eta=0.5)
    with pytest.raises(ValueError):
        _config(max_successful_iters=0)
    for level in ("loud", "cheap"):
        with pytest.raises(ValueError, match="assert_level"):
            _config(assert_level=level)
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="stop_eps"):
            _config(stop_eps=eps)


def test_full_asserts_require_objective_lower_bound():
    p = _identity_problem()
    p_nobound = Problem(f=p.f, g=p.g, h=p.h, c=p.c, n=2, m=2)
    with pytest.raises(ValueError, match="inf_fg_lower_bound"):
        solve(p_nobound, _config(assert_level="full"), np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_full_asserts_pass(family):
    prob, x0, y0, _, cfg = _family_run(family, 3, max_successful_iters=100, assert_level="full")
    res = solve(prob, cfg, x0, y0)
    assert len(res.trace) == 100
    # merit-row consistency: Theta = (H - inf_fg)/beta
    for row in res.trace:
        assert row.Theta_value == pytest.approx(
            (row.H_value - prob.inf_fg_lower_bound) / row.beta_t, rel=1e-12
        )


def test_anchors_record_first_accepted_step():
    inst = qcqp_generate(3, n=8, m=2)
    prob = qcqp_problem(inst)
    x0, y0 = qcqp_initial_point(inst)
    cfg = _config(rho=0.8, eta=1.2, max_successful_iters=5)
    res = solve(prob, cfg, x0, y0)
    a = res.anchors
    assert a.beta0 == pytest.approx(1.0)
    c0 = np.asarray(prob.c.value(x0), dtype=float)
    assert a.gap_x0_y0 == pytest.approx(float(np.linalg.norm(c0 - y0)))
    assert a.h_y0 == 0.0
    assert a.fg_x1 == pytest.approx(res.trace[0].fg_value)
    assert a.gap_x1_y0 == pytest.approx(res.trace[0].prev_gap)


def test_beta_frozen_during_rejections():
    # the row for accepted step t must carry beta_t of the accepted counter,
    # regardless of how many rejected trials happened in between
    p = _identity_problem(curvature=50.0)
    cfg = _config(mu_init=1.0, max_successful_iters=10)
    res = solve(p, cfg, np.ones(2), np.zeros(2))
    for row in res.trace:
        assert row.beta_t == pytest.approx(1.0 * (row.t + 1) ** 0.5)


def test_solver_error_on_prox_leaving_domain():
    p = _identity_problem()
    bad_g = ProxOracle(value=lambda x: math.inf, prox=lambda z, gamma: np.asarray(z))
    p_bad = Problem(f=p.f, g=bad_g, h=p.h, c=p.c, n=2, m=2)
    st = _state(p, np.zeros(2), np.zeros(2), mu=1.0)
    with pytest.raises(SolverError):
        condition_check(p_bad, st.x, st.x, st.y, 1.0, 1.0, 0.0, st.c_x)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_oracle_calls_per_run(family):
    # Each oracle value at an iterate is computed once: T trials, A accepted steps.
    # A family with a one-pass linearizer sweeps its map once per trial and
    # never calls c.value or c.vjp; without one, linearize is built from them.
    prob, x0, y0, rel_feas, cfg = _family_run(family, 0, max_successful_iters=30)
    fused = family in ("qcqp", "mlp")
    assert (prob.c.linearizer is not None) == fused
    counts = collections.Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in ORACLES:
        term, method = name.split(".")
        prob = _replace_oracle(prob, name, counted(name, getattr(getattr(prob, term), method)))
    if fused:
        linearizer = prob.c.linearizer

        def linearize(x):
            c_x, pullback = linearizer(x)
            return c_x, counted("c.pullback", pullback)

        prob = _replace_oracle(prob, "c.linearizer", counted("c.linearize", linearize))
    res = solve(prob, cfg, x0, y0, rel_feas=rel_feas)
    T, A = res.total_trials, len(res.trace)
    assert A == 30 and T > A
    map_counts = (
        {"c.linearize": T + 1, "c.pullback": A + 1}
        if fused
        else {"c.value": T + 1, "c.vjp": A + 1}
    )
    assert dict(counts) == {
        "f.value": T + 1,
        "f.grad": A + 1,
        "g.value": T + 1,
        "g.prox": T,
        "h.value": A + 1,
        "h.prox": A,
        **map_counts,
    }


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_step_residual_matches_from_scratch_reference(family):
    # The three distances TraceRow.certifies tests, each recomputed from the
    # oracles at the witnesses (x^{t+1}, y^t, z = x^t).
    prob, x0, y0, _, cfg = _family_run(family, 0)
    st = initial_state(prob, x0, y0, cfg.mu_init)
    accepted = 0
    while accepted < 30:
        x_t, y_t, t = st.x, st.y, st.t
        row, _ = sdcam.solver.step(prob, st, cfg)
        if row is None:
            continue
        accepted += 1
        beta_prev = beta_at(cfg.schedule, t - 1) if t >= 1 else cfg.schedule.beta0
        ref = stationarity_residual(prob, x_t, st.x, y_t, row.mu_t, row.beta_t, beta_prev)
        assert row.residual == pytest.approx(ref, rel=1e-10)
        c_next = np.asarray(prob.c.value(st.x), dtype=float)
        assert row.prev_gap == pytest.approx(float(np.linalg.norm(c_next - y_t)), rel=1e-10)
        assert row.step_norm == pytest.approx(float(np.linalg.norm(st.x - x_t)), rel=1e-10)


@pytest.mark.parametrize("rho", [0.8, 0.5])
@pytest.mark.parametrize("oracle", ["f.value", "f.grad", "c.value", "c.vjp"])
def test_non_finite_oracle_at_start_raises(oracle, rho):
    # A NaN at the start must raise, not run to the trial budget as a string of
    # rejections (rho = 0.8) or until mu underflows to 0 (rho = 0.5).
    p = _replace_oracle(_identity_problem(), oracle, _constant_oracle(oracle, math.nan))
    with pytest.raises(SolverError, match="not finite"):
        solve(p, _config(rho=rho), np.ones(2), np.zeros(2))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("oracle", ["f.value", "c.value"])
def test_non_finite_trial_values_raise(oracle, value):
    p = _identity_problem()
    st = _state(p, np.ones(2), np.zeros(2), mu=1.0)
    p_bad = _replace_oracle(p, oracle, _constant_oracle(oracle, value))
    with pytest.raises(SolverError, match="not finite"):
        condition_check(p_bad, st.x, np.zeros(2), st.y, 1.0, 1.0, st.fg_x, st.c_x)
