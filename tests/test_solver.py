import collections
import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies
from hypothesis.extra import numpy as hnp

import sdcam.solver
from sdcam.diagnostics import rate_bound_check, rate_constants, stationarity_residual
from sdcam.oracles import MapOracle, Problem, ProxOracle, SmoothOracle
from sdcam.prox import soft_threshold
from sdcam.schedule import ScheduleSpec, beta_at
from sdcam.solver import (
    RunAnchors, SolverConfig, SolverError, TraceRow, initial_state, solve, step,
)
from sdcam.problems import FAMILIES, qcqp_generate, qcqp_problem, qcqp_initial_point
from reference_solver import ReferenceState, reference_trial

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


def _family_run(family, seed, size=None, bi_scale=0.0, **kw):
    """(problem, x0, y0, rel_feas, config) for the family's ``check`` instance or
    one of the given size, with QCQP's bi drawn as bi_scale*N(0, I) if nonzero, the
    family's solver defaults and a power schedule with delta = 0.3."""
    fam = FAMILIES[family]
    inst = fam.generate(seed, **(size or fam.check_kwargs))
    if bi_scale:
        rng = np.random.default_rng(seed)
        inst = dataclasses.replace(inst, bi=bi_scale * rng.standard_normal(inst.bi.shape))
    prob, x0, y0, rel_feas, _ = fam.setup(inst)
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


def _beta0_config(beta0):
    """_config whose schedule starts at beta_0 = beta0."""
    return _config(schedule=ScheduleSpec(family="power", beta0=beta0, delta=0.5))


def _recording_prox(p, points):
    """p with g.prox appending each trial point x~ to points."""

    def prox(z, gamma):
        points.append(np.asarray(g_prox(z, gamma), dtype=float))
        return points[-1]

    g_prox = p.g.prox
    return _replace_oracle(p, "g.prox", prox)


def test_trial_step_free_g_is_half_mu_gradient_step():
    # with g = 0 the prox is the identity, so x~ = x - (mu/2) v with
    # v = grad f(x) + beta * J^T (c(x) - y); mu = 10 makes every trial fail
    # condition (i) (mu*beta > 1 throughout), so all run at the same iterate
    points = []
    p = _recording_prox(_identity_problem(), points)
    x0 = np.array([2.0, -1.0])
    y0 = np.array([0.5, 0.5])
    st = _state(p, x0, y0, mu=10.0)
    # v is kept per beta_t: a new beta_t at the same iterate recomputes it,
    # margin_i matches the one formed from scratch, and (ii) is not evaluated
    fg_x = float(p.f.value(x0))
    for beta in (1.0, 3.0, 3.0, 1.0):
        mu = st.mu
        row, (margin_i, margin_ii) = step(p, st, _beta0_config(beta))
        assert row is None
        v = x0 + beta * (x0 - y0)
        np.testing.assert_allclose(points[-1], x0 - 0.5 * mu * v)
        x_t = points[-1]
        dx = float(np.linalg.norm(x_t - x0))
        assert st.v_beta == beta
        assert margin_i == pytest.approx(math.sqrt(1.0 / (mu * beta)) * dx - dx, rel=1e-14)
        assert math.isnan(margin_ii)
        assert margin_i < -1e-12 * (1.0 + abs(fg_x))


def test_trial_step_rejects_nonpositive_mu():
    p = _identity_problem()
    st = _state(p, np.ones(2), np.zeros(2), mu=0.0)
    with pytest.raises(ValueError, match="mu must be positive"):
        step(p, st, _config())


def test_trial_step_raises_on_non_finite_v():
    p = _identity_problem()
    st = _state(p, np.full(2, 1e10), np.zeros(2), mu=1.0)
    with pytest.raises(SolverError, match=r"not finite at beta_t=1e\+305"):
        step(p, st, _beta0_config(1e305))


def test_condition_check_accepts_at_fixed_point():
    # v = 0 at x = y = 0, so x~ = x^t and both sides of each condition agree
    p = _identity_problem()
    st = _state(p, np.zeros(2), np.zeros(2), mu=0.5)
    row, (margin_i, margin_ii) = step(p, st, _config())
    assert row is not None
    assert margin_i == pytest.approx(0.0, abs=1e-12)
    assert margin_ii == pytest.approx(0.0, abs=1e-12)


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
    for eta in (0.5, math.nan):
        with pytest.raises(ValueError, match="eta must be >= 1"):
            _config(eta=eta)
    with pytest.raises(ValueError):
        _config(max_successful_iters=0)
    for eps in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="stop_eps"):
            _config(stop_eps=eps)
    # a budget is an int and not a bool; no field is a bool
    for name, value in (("max_successful_iters", 2.5), ("max_total_trials", 7.5),
                        ("max_total_trials", "7")):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            _config(**{name: value})
    for name in ("mu_max", "mu_init", "rho", "eta", "stop_eps", "max_successful_iters",
                 "max_total_trials"):
        with pytest.raises(ValueError, match=f"{name} must not be a boolean"):
            _config(**{name: True})


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_full_asserts_pass(family):
    prob, x0, y0, _, cfg = _family_run(family, 3, max_successful_iters=100)
    res = solve(prob, cfg, x0, y0)
    assert len(res.trace) == 100
    # merit-row consistency: Theta = (H - inf_fg)/beta
    for row in res.trace:
        assert row.Theta_value == pytest.approx(
            (row.H_value - prob.inf_fg_lower_bound) / row.beta_t, rel=1e-12
        )


def test_full_asserts_catch_a_non_optimal_h_prox():
    # An h.prox that moves away from its minimizer breaks the merit decrease,
    # which no acceptance margin sees; a default solve raises.  Without
    # inf_fg_lower_bound there is no Theta, and the run goes through.
    h = ProxOracle(
        value=lambda u: float(np.abs(u).sum()),
        prox=lambda z, gamma: np.asarray(z, dtype=float) + 1.0,
    )
    p = dataclasses.replace(_identity_problem(), h=h)
    with pytest.raises(SolverError, match="merit nonincrease violated at t=1"):
        solve(p, _config(max_successful_iters=10), np.ones(2), np.zeros(2))
    p_nobound = dataclasses.replace(p, inf_fg_lower_bound=None)
    res = solve(p_nobound, _config(max_successful_iters=10), np.ones(2), np.zeros(2))
    assert len(res.trace) == 10 and all(row.Theta_value is None for row in res.trace)


@pytest.mark.parametrize("broken, match", [
    ({"inf_fg_lower_bound": 0.5}, r"t=0: f\+g = 0.0625 is below inf_fg_lower_bound = 0.5"),
    ({"h": ProxOracle(value=lambda u: -1.0, prox=lambda z, gamma: np.asarray(z, dtype=float))},
     r"t=0: h\(y\) = -1.0 is negative"),
], ids=["bound-too-high", "h-negative"])
def test_solve_raises_on_a_broken_premise_of_the_merit_check(broken, match):
    # inf f+g is 0: with beta constant, Theta is H shifted and scaled, so a
    # bound that is too high, or an h that is negative, leaves Theta
    # nonincreasing and only the premise check sees it
    p = dataclasses.replace(_identity_problem(), **broken)
    cfg = _config(schedule=ScheduleSpec(family="blocked", beta0=1.0, delta=0.5, K=1000))
    with pytest.raises(SolverError, match="premise of the merit check broken at " + match):
        solve(p, cfg, np.array([2.0, -1.0]), np.array([0.5, 0.5]))


def test_step_raises_on_non_finite_gap():
    # h.prox lands 1e200 away, so ||c(x~) - y|| overflows: step must not
    # return a row with gap = inf.
    h = ProxOracle(value=lambda u: 0.0, prox=lambda z, gamma: np.full(2, 1e200))
    p = dataclasses.replace(_identity_problem(), h=h)
    st = _state(p, np.zeros(2), np.zeros(2), mu=0.5)
    with np.errstate(over="ignore"), pytest.raises(SolverError, match="gap = inf is not finite"):
        step(p, st, _config())


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
    with pytest.raises(SolverError, match="outside dom g"):
        step(p_bad, st, _config())


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_oracle_calls_per_run(family, monkeypatch):
    # Each oracle value at an iterate is computed once: T trials, A accepted steps,
    # P trials that pass condition (i), the only ones that evaluate f, and K trials
    # that the jvp certificate rejects, the only ones that do not sweep the map.
    # Every family has a one-pass linearizer: it sweeps its map once per other
    # trial, applies the pullback once per accepted step, and never calls c.value
    # or c.vjp.  QCQP's pullback also offers a jvp, applied once per trial.
    prob, x0, y0, rel_feas, cfg = _family_run(family, 0, max_successful_iters=30)
    passed_i = collections.Counter()
    counts = collections.Counter()

    def counted_step(p, st, cfg, rel_feas=None, _step=sdcam.solver.step):
        tol = 1e-12 * (1.0 + abs(st.fg_x))
        linearized = counts["c.linearize"]
        row, (margin_i, margin_ii) = _step(p, st, cfg, rel_feas)
        passed_i[margin_i >= -tol] += 1
        passed_i["certified"] += counts["c.linearize"] == linearized
        return row, (margin_i, margin_ii)

    monkeypatch.setattr(sdcam.solver, "step", counted_step)
    assert prob.c.linearizer is not None

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in ORACLES:
        term, method = name.split(".")
        prob = _replace_oracle(prob, name, counted(name, getattr(getattr(prob, term), method)))
    linearizer = prob.c.linearizer

    def linearize(x):
        c_x, pullback = linearizer(x)
        counted_pullback = counted("c.pullback", pullback)
        if hasattr(pullback, "jvp"):
            counted_pullback.jvp = counted("c.jvp", pullback.jvp)
        return c_x, counted_pullback

    prob = _replace_oracle(prob, "c.linearizer", counted("c.linearize", linearize))
    res = solve(prob, cfg, x0, y0, rel_feas=rel_feas)
    T, A, P, K = res.total_trials, len(res.trace), passed_i[True], passed_i["certified"]
    assert A == 30 and T > A
    assert A <= P <= T == P + passed_i[False]
    assert (K > 0) == (family == "qcqp")
    expected = {
        "f.value": P + 1,
        "f.grad": A + 1,
        "g.value": T + 1,
        "g.prox": T,
        "h.value": A + 1,
        "h.prox": A,
        "c.linearize": T + 1 - K,
        "c.pullback": A + 1,
    }
    if family == "qcqp":
        expected["c.jvp"] = T
    assert dict(counts) == expected


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
        step(p_bad, st, _config())


def test_qcqp_step_raises_on_nan_prox_input():
    # a NaN that reaches QCQP's g.prox comes back NaN, not as the feasible
    # point 0, so g.value is NaN and step raises on the non-finite margins
    inst = qcqp_generate(3, n=8, m=2)
    p = qcqp_problem(inst)
    x0, y0 = qcqp_initial_point(inst)
    prox = p.g.prox
    p_nan = _replace_oracle(p, "g.prox", lambda z, gamma: prox(np.r_[np.nan, z[1:]], gamma))
    x_trial = p_nan.g.prox(x0, 0.5)
    assert np.isnan(x_trial[0]) and np.isnan(p.g.value(x_trial))
    st = _state(p, x0, y0, mu=1.0)
    with pytest.raises(SolverError, match="acceptance margins .* are not finite"):
        step(p_nan, st, _config())


@pytest.mark.parametrize("value", [math.nan, -math.inf])
def test_non_finite_g_at_a_trial_that_condition_i_rejects_raises(value):
    # c is finite at x~ and (i) rejects the trial (mu*beta > 1), so no margin
    # carries g(x~); a NaN or -inf g is a broken oracle, not a rejection.
    p = _identity_problem()
    x0, y0 = np.array([2.0, -1.0]), np.array([0.5, 0.5])
    row, (margin_i, _) = step(p, _state(p, x0, y0, mu=10.0), _config())
    assert row is None and margin_i < -1e-12 * (1.0 + abs(float(p.f.value(x0))))
    p_bad = _replace_oracle(p, "g.value", lambda x: value)
    with pytest.raises(SolverError, match="not finite"):
        step(p_bad, _state(p, x0, y0, mu=10.0), _config())


def test_f_is_not_evaluated_where_condition_i_rejects():
    # An f that is NaN exactly at the trial points (i) rejects leaves the run
    # unchanged: f is never called there.
    prob, x0, y0, _, cfg = _family_run("mimo", 0, max_successful_iters=30)
    trial_points = []
    recording = _recording_prox(prob, trial_points)
    st = initial_state(recording, x0, y0, cfg.mu_init)
    rejected_by_i = set()
    while st.t < 30:
        tol = 1e-12 * (1.0 + abs(st.fg_x))
        _, (margin_i, _) = step(recording, st, cfg)
        if margin_i < -tol:
            rejected_by_i.add(trial_points[-1].tobytes())
    assert rejected_by_i
    f_value, hits = prob.f.value, []

    def nan_where_i_rejects(x):
        if x.tobytes() in rejected_by_i:
            hits.append(x)
            return math.nan
        return f_value(x)

    res = solve(prob, cfg, x0, y0)
    res_nan = solve(_replace_oracle(prob, "f.value", nan_where_i_rejects), cfg, x0, y0)
    assert hits == []
    assert res_nan.trace == res.trace and res_nan.total_trials == res.total_trials


def test_trial_that_passes_i_and_fails_ii_returns_its_margin_ii():
    # Stiff curvature at mu = 1: (i) holds with margin 0 (c is the identity,
    # beta_0 = 1) and (ii) fails; both margins are the reference's, bit for bit.
    p = _identity_problem(curvature=100.0)
    x0, y0 = np.array([1.0, 1.0]), np.zeros(2)
    st = _state(p, x0, y0, mu=1.0)
    tol = 1e-12 * (1.0 + abs(st.fg_x))
    row, (margin_i, margin_ii) = step(p, st, _config())
    assert row is None and st.mu == 0.5
    assert margin_i >= -tol and -math.inf < margin_ii < -tol
    assert (margin_i, margin_ii) == reference_trial(p, ReferenceState(x0, y0, 1.0), _config())[1]


def _counting_linearizer(p, counts):
    """p with each ``c.linearize`` call counted in counts["c.linearize"]; the
    pullbacks pass through unchanged, jvp included."""
    linearizer = p.c.linearizer

    def linearize(x):
        counts["c.linearize"] += 1
        return linearizer(x)

    return _replace_oracle(p, "c.linearizer", linearize)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_taylor_anchor_resets_on_acceptance_and_moves_to_swept_trials(family):
    # After initial_state and every accepted step the anchor is x^t with
    # r = 0 and the map's own jvp_slack; a rejection that evaluated c(x~)
    # moves it to x~ with r = c(x~) - c(x^t) as computed; a certified
    # rejection leaves it.  Only QCQP's pullbacks offer a jvp.
    prob, x0, y0, _, cfg = _family_run(family, 0)
    trial_points = []
    calls = collections.Counter()
    prob = _counting_linearizer(_recording_prox(prob, trial_points), calls)
    st = initial_state(prob, x0, y0, cfg.mu_init)
    if family != "qcqp":
        while st.t < 30:
            step(prob, st, cfg)
            assert st.anchor is None
        return

    def assert_anchor_at_iterate():
        np.testing.assert_array_equal(st.anchor.a, st.x)
        assert st.anchor.r.shape == (prob.m,) and not st.anchor.r.any()
        assert st.anchor.slack == prob.c.jvp_slack

    assert_anchor_at_iterate()
    outcomes = collections.Counter()
    while st.t < 30:
        anchor, c_x, linearized = st.anchor, st.c_x, calls["c.linearize"]
        row, _ = step(prob, st, cfg)
        if row is not None:
            outcomes["accepted"] += 1
            assert_anchor_at_iterate()
        elif calls["c.linearize"] > linearized:
            outcomes["swept"] += 1
            x_trial = trial_points[-1]
            np.testing.assert_array_equal(st.anchor.a, x_trial)
            r = np.asarray(prob.c.value(x_trial)) - c_x
            np.testing.assert_array_equal(st.anchor.r, r)
            slack = prob.c.jvp_slack + (prob.m + 4) * 2.0**-53 * np.linalg.norm(r)
            assert st.anchor.slack == slack
        else:
            outcomes["certified"] += 1
            assert st.anchor is anchor
    assert min(outcomes.values()) > 0 and len(outcomes) == 3


Trial = collections.namedtuple(
    "Trial", "row margins ref_row ref_margins tol certified after_swept_rejection"
)


@functools.lru_cache(maxsize=None)
def _beside_reference(family, seed, size, steps, bi_scale):
    """Run step and the literal reference trial side by side until step has
    taken ``steps`` accepted steps, asserting the same accept/reject decision
    at every trial.  Returns (trials, state, reference state); a trial is
    certified where step rejected it without evaluating c there."""
    prob, x0, y0, rel_feas, cfg = _family_run(family, seed, dict(size), bi_scale)
    calls = collections.Counter()
    counted = _counting_linearizer(prob, calls)
    st, ref = initial_state(counted, x0, y0, cfg.mu_init), ReferenceState(x0, y0, cfg.mu_init)
    trials, swept_rejection = [], False  # at the current iterate
    while st.t < steps:
        tol, linearized = 1e-12 * (1.0 + abs(st.fg_x)), calls["c.linearize"]
        row, margins = step(counted, st, cfg, rel_feas)
        ref_row, ref_margins = reference_trial(prob, ref, cfg, rel_feas)
        assert (row is None) == (ref_row is None)
        certified = calls["c.linearize"] == linearized
        trials.append(Trial(row, margins, ref_row, ref_margins, tol, certified, swept_rejection))
        swept_rejection = row is None and (swept_rejection or not certified)
    return trials, st, ref


def _assert_matches_reference(family, seed, size=None, steps=50, bi_scale=0.0):
    """step beside the reference on the family's check instance (or one of the
    given size): every TraceRow field bit for bit but the residual, which agrees
    to rounding; the margins bit for bit where step swept c (margin_ii is NaN
    where (i) rejects, as (ii) is then not evaluated); where step certified a
    rejection, a bound above the reference's margin_i that fails (i); the trial
    count and the final iterate bit for bit.  Returns the trials."""
    size = tuple((size or FAMILIES[family].check_kwargs).items())
    trials, st, ref = _beside_reference(family, seed, size, steps, bi_scale)
    for tr in trials:
        (margin_i, margin_ii), (ref_i, ref_ii) = tr.margins, tr.ref_margins
        if tr.certified:
            assert tr.row is None and math.isnan(margin_ii) and ref_i <= margin_i < -tr.tol
        elif margin_i >= -tr.tol:
            assert (margin_i, margin_ii) == (ref_i, ref_ii)
        else:
            assert margin_i == ref_i and math.isnan(margin_ii) and tr.row is None
        if tr.row is not None:
            assert tr.row.residual == pytest.approx(tr.ref_row.residual, rel=1e-10)
            assert repr(dataclasses.replace(tr.row, residual=0.0)) == repr(
                dataclasses.replace(tr.ref_row, residual=0.0))
    assert st.trial_count == ref.trials == len(trials) > st.t  # some trials were rejected
    assert (st.x.tobytes(), st.y.tobytes()) == (ref.x.tobytes(), ref.y.tobytes())
    return trials


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_step_matches_the_literal_reference_trial_by_trial(family, seed):
    # step's caches and QCQP's Taylor-bound rejection leave every decision,
    # row and final bit of the literal trial.
    _assert_matches_reference(family, seed)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_step_margins_match_from_scratch_bit_for_bit(family):
    # Some trial is a swept rejection.  Only on qcqp is some trial certified, and
    # some certified trial follows a swept rejection at the same iterate, so that
    # its bound is taken at that trial point, not at x^t.
    trials = _assert_matches_reference(family, 0)
    assert any(tr.row is None and not tr.certified for tr in trials)
    certified = [tr for tr in trials if tr.certified]
    after_swept = any(tr.after_swept_rejection for tr in certified)
    assert bool(certified) == after_swept == (family == "qcqp")


@pytest.mark.parametrize(
    "seed, size, steps, bi_scale",
    [(seed, FAMILIES["qcqp"].check_kwargs, 50, 0.0) for seed in range(4)]
    + [(1, {"n": 20, "m": 5}, 200, 0.0)]  # the pinned QCQP run of test_cli
    + [(seed, FAMILIES["qcqp"].check_kwargs, 50, 10.0) for seed in range(2)],
)
def test_qcqp_jvp_certificate_leaves_every_output_bit(seed, size, steps, bi_scale):
    # The certificate only skips c(x~) on trials that (i) rejects anyway: the
    # outputs are those of the reference, which evaluates c at every trial,
    # also for an instance with a nonzero bi, as an instance file may hold.
    trials = _assert_matches_reference("qcqp", seed, size, steps, bi_scale)
    assert any(tr.certified for tr in trials)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        strategies.integers(0, 300),
        elements=strategies.one_of(
            strategies.floats(-1e150, 1e150, allow_subnormal=True),
            strategies.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e150]),
        ),
    )
)
def test_norm_is_numpy_norm_bit_for_bit(d):
    assert sdcam.solver._norm(d) == float(np.linalg.norm(d))


def test_solve_calls_step_and_beta_at_through_module_attributes(monkeypatch):
    # The benchmark times trials by replacing these two module attributes;
    # solve must look both up at call time, once per trial for step, and it
    # tells a rejection from an acceptance by step(...)[0] being None.
    counts = collections.Counter()
    for name in ("step", "beta_at"):
        fn = getattr(sdcam.solver, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            out = _fn(*args, **kwargs)
            if _name == "step":
                counts["step", type(out[0])] += 1
            return out

        monkeypatch.setattr(sdcam.solver, name, counted)
    prob, x0, y0, rel_feas, cfg = _family_run("mimo", 0, max_successful_iters=20)
    res = solve(prob, cfg, x0, y0, rel_feas=rel_feas)
    assert res.total_trials > len(res.trace) == 20
    assert counts["step"] == res.total_trials
    assert counts["step", type(None)] == res.total_unsuccessful
    assert counts["step", TraceRow] == len(res.trace)
    assert counts["beta_at"] >= res.total_trials


def _random_problem(rng, n, m, h_kind, c_kind):
    """A small problem with every constant rate_bound_check reads.

    f = (1/2) x^T P x + q^T x with P = I + A^T A, so L = ||P|| and
    inf f >= -||q||^2/2; g the indicator of the box [-R, R]^n; c linear,
    Bx + d, or quadratic with rows (1/2) x^T Q_i x + b_i^T x + d_i, whose
    Jacobian is Lipschitz with L_c = sqrt(sum ||Q_i||^2) and bounded on the box
    by sqrt(sum (||Q_i|| R sqrt(n) + ||b_i||)^2); h = lam*||.||_1
    (Lipschitz) or the indicator of the nonpositive orthant."""
    A = rng.standard_normal((n, n))
    P = np.eye(n) + A.T @ A
    q = rng.standard_normal(n)
    f = SmoothOracle(
        value=lambda x: float(0.5 * x @ P @ x + q @ x),
        grad=lambda x: P @ x + q,
        lipschitz_bound=float(np.linalg.norm(P, 2)),
    )
    R = float(rng.uniform(0.5, 2.0))
    g = ProxOracle(
        value=lambda x: 0.0 if np.all(np.abs(x) <= R) else math.inf,
        prox=lambda z, gamma: np.clip(z, -R, R),
    )
    B, d = rng.standard_normal((m, n)), rng.standard_normal(m)
    if c_kind == "linear":
        c = MapOracle(lambda x: B @ x + d, lambda x, w: w @ B,
                      jac_lipschitz_bound=0.0, jac_norm_bound=float(np.linalg.norm(B, 2)))
    else:
        G = rng.standard_normal((m, n, n))
        Q = 0.5 * (G + G.transpose(0, 2, 1))
        q_norms = np.linalg.norm(Q, 2, axis=(1, 2))
        c = MapOracle(
            lambda x: 0.5 * (Q @ x) @ x + B @ x + d,
            lambda x, w: w @ (Q @ x) + w @ B,
            jac_lipschitz_bound=float(np.sqrt(np.sum(q_norms**2))),
            jac_norm_bound=float(np.sqrt(np.sum(
                (q_norms * R * math.sqrt(n) + np.linalg.norm(B, axis=1)) ** 2))),
        )
    if h_kind == "l1":
        lam = float(rng.uniform(0.1, 1.0))
        h = ProxOracle(lambda u: float(lam * np.abs(u).sum()),
                       lambda z, gamma: soft_threshold(z, lam * gamma))
        h_lip = lam * math.sqrt(m)
    else:
        h = ProxOracle(lambda u: 0.0 if np.all(u <= 0.0) else math.inf,
                       lambda z, gamma: np.minimum(z, 0.0))
        h_lip = None
    x0 = np.clip(rng.standard_normal(n), -R, R)
    return Problem(f=f, g=g, h=h, c=c, n=n, m=m, inf_fg_lower_bound=-0.5 * float(q @ q),
                   h_lipschitz_bound=h_lip), x0


@settings(max_examples=25, deadline=None)
@given(
    seed=strategies.integers(0, 2**32 - 1),
    n=strategies.integers(2, 4),
    m=strategies.integers(1, 3),
    h_kind=strategies.sampled_from(["l1", "nonpositive"]),
    c_kind=strategies.sampled_from(["linear", "quadratic"]),
    beta0=strategies.floats(0.5, 2.0),
    delta=strategies.floats(0.1, 0.45),
    rho=strategies.sampled_from([0.5, 0.8]),
)
def test_accepted_steps_keep_the_papers_guarantees(seed, n, m, h_kind, c_kind, beta0, delta,
                                                   rho):
    # Per accepted row: both margins pass, H_value meets the pseudo-descent
    # bound built from the previous row with the slack -margin_ii (condition
    # (ii) and that inequality are one), Theta does not increase, and the
    # cached residual is the from-scratch one; then the regime's rate bounds.
    prob, x0 = _random_problem(np.random.default_rng(seed), n, m, h_kind, c_kind)
    schedule = ScheduleSpec(family="power", beta0=beta0, delta=delta)
    cfg = _config(mu_max=1e3, rho=rho, eta=1.0 / rho, schedule=schedule)
    st = initial_state(prob, x0, np.zeros(m), cfg.mu_init)
    anchors = RunAnchors(beta0=beta0, gap_x0_y0=st.gap_x, h_y0=st.h_y)
    trace = []
    while len(trace) < 30:
        x_t, y_t, t, fg_x = st.x, st.y, st.t, st.fg_x
        row, (margin_i, margin_ii) = step(prob, st, cfg)
        if row is None:
            continue
        tol = 1e-12 * (1.0 + abs(fg_x))
        assert margin_i >= -tol and margin_ii >= -tol
        if trace:
            prev = trace[-1]
            h_prev = prev.fg_value + 0.5 * prev.beta_t * prev.gap**2 + prev.h_at_y
            bound = (h_prev - row.step_norm**2 / (2.0 * row.mu_t)
                     + 0.5 * (row.beta_t - prev.beta_t) * prev.gap**2)
            assert abs(row.H_value - bound + margin_ii) <= 1e-12 * (1.0 + abs(h_prev))
            assert row.Theta_value <= prev.Theta_value + 1e-12 * (1.0 + abs(prev.Theta_value))
        else:
            anchors.fg_x1, anchors.gap_x1_y0 = row.fg_value, row.prev_gap
        beta_prev = beta_at(schedule, t - 1) if t >= 1 else beta0
        ref = stationarity_residual(prob, x_t, st.x, y_t, row.mu_t, row.beta_t, beta_prev)
        assert abs(row.residual - ref) <= 1e-10 * (1.0 + ref)
        trace.append(row)
    regime = "lipschitz_h" if h_kind == "l1" else "bounded_domains"
    consts = rate_constants(prob, schedule, anchors, rho=cfg.rho, mu_max=cfg.mu_max)
    report = rate_bound_check(trace, consts, regime)
    assert report.passed and not report.skipped, report
