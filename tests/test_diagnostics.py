import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcam.diagnostics import (
    RateConstants,
    rate_bound_check,
    rate_constants,
    select_subsequence,
    stationarity_residual,
    suggest_delta,
)
from sdcam.oracles import MapOracle, Problem, ProxOracle, SmoothOracle
from sdcam.schedule import ScheduleSpec
from sdcam.solver import SolverConfig, SolverError, solve
from sdcam.problems import (
    FAMILIES,
    mlp_generate,
    mlp_problem,
    mlp_initial_point,
    mlp_sup_abs_fg,
    qcqp_generate,
    qcqp_initial_point,
    qcqp_problem,
)


# --- subsequence selection ---------------------------------------------------


def test_select_subsequence_enumerated_example():
    # running averages of (4,2,3,1): 4, 3, 3, 2.5 -> dips at T = 2, 3, 4
    assert select_subsequence([4.0, 2.0, 3.0, 1.0]) == [2, 3, 4]


def test_select_subsequence_monotone_increasing_is_empty():
    assert select_subsequence([1.0, 2.0, 3.0]) == []


def test_select_subsequence_constant_selects_everything():
    assert select_subsequence([5.0] * 6) == [2, 3, 4, 5, 6]


def test_select_subsequence_empty_raises():
    with pytest.raises(ValueError):
        select_subsequence([])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60))
def test_select_subsequence_certifies_dip(a):
    arr = np.asarray(a)
    b = np.cumsum(arr) / np.arange(1, arr.size + 1)
    for T in select_subsequence(a):
        # b_T <= b_{T-1} is equivalent to a_T <= b_{T-1}
        assert arr[T - 1] <= b[T - 2] + 1e-9 * (1.0 + abs(b[T - 2]))


# --- suggest_delta -----------------------------------------------------------


def test_suggest_delta_equal_tolerances_is_exactly_one_third():
    assert suggest_delta(1e-3, 1e-3) == 1.0 / 3.0
    assert suggest_delta(0.123, 0.123) == 1.0 / 3.0


def test_suggest_delta_formula():
    eps1, eps2 = 1e-2, 1e-4
    expected = math.log(1e4) / (2 * math.log(1e2) + math.log(1e4))
    assert suggest_delta(eps1, eps2) == pytest.approx(expected)


def test_suggest_delta_domain():
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            suggest_delta(bad, 0.5)
        with pytest.raises(ValueError):
            suggest_delta(0.5, bad)


def test_suggest_delta_in_open_interval():
    rng = np.random.default_rng(0)
    for _ in range(100):
        e1, e2 = 10.0 ** rng.uniform(-8, -0.01, 2)
        assert 0.0 < suggest_delta(float(e1), float(e2)) < 1.0


# --- residual and merit values ----------------------------------------------


def _linear_problem():
    f = SmoothOracle(value=lambda x: float(0.5 * x @ x), grad=lambda x: x)
    free = ProxOracle(value=lambda x: 0.0, prox=lambda z, g: np.asarray(z, dtype=float))
    c = MapOracle(value=lambda x: x.copy(), vjp=lambda x, w: np.asarray(w, dtype=float))
    return Problem(f=f, g=free, h=free, c=c, n=2, m=2, inf_fg_lower_bound=0.0)


def test_stationarity_residual_zero_at_consistent_fixed_point():
    # at x_t = x_next = y_t = 0 all witness terms vanish
    p = _linear_problem()
    r = stationarity_residual(p, np.zeros(2), np.zeros(2), np.zeros(2), 1.0, 2.0, 1.0)
    assert r == pytest.approx(0.0, abs=1e-15)


def test_stationarity_residual_matches_independent_assembly():
    # recompute psi and xi with explicit dense algebra on a QCQP step
    inst = qcqp_generate(5, n=4, m=2)
    p = qcqp_problem(inst)
    rng = np.random.default_rng(1)
    x_t = np.clip(rng.standard_normal(4) * 0.1, -inst.r, inst.r)
    x_next = np.clip(x_t + 0.01 * rng.standard_normal(4), -inst.r, inst.r)
    y_t = -np.abs(rng.standard_normal(2))
    mu_t, beta_t, beta_prev = 0.3, 2.0, 1.5

    def grad_f(x):
        return inst.Q0 @ x + inst.b0

    def c_val(x):
        return 0.5 * np.einsum("ijk,j,k->i", inst.Q, x, x) + inst.ri

    def jac_T(x, w):
        return np.einsum("i,ijk,k->j", w, inst.Q, x)

    d = c_val(x_t) - y_t
    psi = -grad_f(x_t) - beta_t * jac_T(x_t, d) - (2.0 / mu_t) * (x_next - x_t)
    xi = beta_prev * d
    expected = np.linalg.norm(grad_f(x_next) + psi + jac_T(x_t, xi))
    got = stationarity_residual(p, x_t, x_next, y_t, mu_t, beta_t, beta_prev)
    assert got == pytest.approx(float(expected), rel=1e-12)


# --- rate constants and bound checks ------------------------------------------


def _qcqp_run(iters=200, delta=0.3):
    inst = qcqp_generate(1, n=10, m=3)
    prob = qcqp_problem(inst)
    x0, y0 = qcqp_initial_point(inst)
    cfg = SolverConfig(
        mu_max=1e7, mu_init=1.0, rho=0.8, eta=1.2,
        schedule=ScheduleSpec(family="power", beta0=1.0, delta=delta),
        max_successful_iters=iters, max_total_trials=100 * iters,
    )
    res = solve(prob, cfg, x0, y0)
    return prob, cfg, res


def test_rate_constants_provenance_qcqp():
    prob, cfg, res = _qcqp_run()
    rc = rate_constants(prob, cfg.schedule, res.anchors, rho=cfg.rho, mu_max=cfg.mu_max)
    for name in ("M0", "M1", "L", "L_c", "M_c", "lambda5", "lambda6", "lambda7", "lambda8"):
        assert getattr(rc, name) is not None, name
    assert rc.provenance["M0"] == "computed"
    assert rc.provenance["L"] == "user_supplied"
    # no h-Lipschitz constant and no sup bounds for this family
    assert rc.K0 is None
    assert rc.M3 is None
    assert rc.provenance["M3"] == "unavailable"


def test_rate_bound_check_bounded_domains_passes():
    prob, cfg, res = _qcqp_run()
    rc = rate_constants(prob, cfg.schedule, res.anchors, rho=cfg.rho, mu_max=cfg.mu_max)
    rep = rate_bound_check(res.trace, rc, "bounded_domains")
    assert rep.checkable
    assert rep.passed
    assert rep.violations == []
    assert rep.skipped == []


def test_rate_bound_check_floors_mu_at_mu_init_below_the_papers_floor():
    # mu_init is below rho/(L + curv*beta_t), so the first steps grow from it
    # by eta with no rejection and sit below the paper's floor at t = 1-5
    fam = FAMILIES["mimo"]
    prob, x0, y0, _, sup = fam.setup(fam.generate(63, **fam.check_kwargs))
    cfg = SolverConfig(
        **{**fam.solver_defaults, "mu_init": 0.00212, "rho": 0.458, "eta": 1.376},
        schedule=ScheduleSpec(family="blocked", beta0=0.0063, delta=0.331, K=2),
        max_successful_iters=60, max_total_trials=6000,
    )
    res = solve(prob, cfg, x0, y0)
    rc = rate_constants(
        prob, cfg.schedule, res.anchors, rho=cfg.rho, mu_max=cfg.mu_max, sup_abs_fg_bound=sup
    )
    row = res.trace[1]
    assert row.mu_t < rc.rho / (rc.L + (rc.L_c * rc.M0 + rc.M_c**2) * row.beta_t)
    rep = rate_bound_check(res.trace, rc, fam.regime)
    assert rep.passed and rep.violations == [] and rep.checked == 413


def test_rate_bound_check_passes_on_random_configurations():
    # schedules, step parameters and instances that the fixed seeds never
    # reach: each run passes the check in its family's regime, or raises a
    # SolverError that names its cause
    rng = np.random.default_rng(28)
    draws = [
        (
            list(FAMILIES)[k % len(FAMILIES)],
            int(rng.integers(64)),
            ScheduleSpec(
                family=str(rng.choice(["power", "blocked"])),
                beta0=float(10.0 ** rng.uniform(-3.0, 7.0)),
                delta=float(rng.uniform(0.05, 0.95)),
                K=int(rng.choice([1, 2, 5])),
            ),
            {
                "rho": float(rng.uniform(0.1, 0.95)),
                "eta": float(rng.uniform(1.0, 3.0)),
                "mu_init": float(10.0 ** rng.uniform(-3.0, 0.0)),
            },
        )
        for k in range(60)
    ]
    for draw in draws:
        name, seed, schedule, params = draw
        fam = FAMILIES[name]
        prob, x0, y0, _, sup = fam.setup(fam.generate(seed, **fam.check_kwargs))
        cfg = SolverConfig(
            **{**fam.solver_defaults, **params}, schedule=schedule,
            max_successful_iters=60, max_total_trials=6000,
        )
        try:
            res = solve(prob, cfg, x0, y0)
        except SolverError as exc:
            assert str(exc), draw
            continue
        rc = rate_constants(
            prob, schedule, res.anchors, rho=cfg.rho, mu_max=cfg.mu_max, sup_abs_fg_bound=sup
        )
        rep = rate_bound_check(res.trace, rc, fam.regime)
        assert rep.passed and rep.violations == [] and rep.checked > 0, draw


def test_rate_bound_check_detects_wrong_constant():
    prob, cfg, res = _qcqp_run()
    rc = rate_constants(prob, cfg.schedule, res.anchors, rho=cfg.rho, mu_max=cfg.mu_max)
    rc.M1 = rc.M1 * 1e-9  # deliberately wrong: bound must now be violated
    rc.M0 = rc.M0 * 1e-9
    rc.lambda5 = rc.lambda5 * 1e-9
    rep = rate_bound_check(res.trace, rc, "bounded_domains")
    assert not rep.passed
    assert rep.violations


def test_rate_bound_check_unknown_regime():
    prob, cfg, res = _qcqp_run(iters=5)
    rc = rate_constants(prob, cfg.schedule, res.anchors)
    with pytest.raises(ValueError):
        rate_bound_check(res.trace, rc, "exotic")


def test_rate_bound_check_skips_without_guessing():
    # the MLP family has no Jacobian constants; curvature-dependent
    # inequalities must be skipped and reported, not guessed
    inst = mlp_generate(0, layer_dims=(6, 4, 1), n_samples=20)
    prob = mlp_problem(inst)
    x0, y0 = mlp_initial_point(inst)
    cfg = SolverConfig(
        mu_max=1e7, mu_init=0.01, rho=0.5, eta=2.0,
        schedule=ScheduleSpec(family="power", beta0=1.0, delta=0.5),
        max_successful_iters=100, max_total_trials=10_000,
    )
    res = solve(prob, cfg, x0, y0)
    rc = rate_constants(
        prob, cfg.schedule, res.anchors, rho=cfg.rho, mu_max=cfg.mu_max,
        sup_abs_fg_bound=mlp_sup_abs_fg(inst),
    )
    rep = rate_bound_check(res.trace, rc, "full_domain_h")
    assert rep.checkable
    assert rep.passed
    assert "mu_floor" in rep.skipped
    assert rc.provenance["L_c"] == "unavailable"
    assert "min_residual_step_gap" in rep.skipped
    # the inequalities that only need M1/M2/M3 must have been checked
    assert rep.checked > 0


def test_rate_bound_check_skips_non_finite_bound():
    prob, cfg, res = _qcqp_run()
    rc = rate_constants(prob, cfg.schedule, res.anchors, rho=cfg.rho, mu_max=cfg.mu_max)
    base = rate_bound_check(res.trace, rc, "bounded_domains")
    rc.M0 = 1e200  # M0**2 overflows, so three bounds are inf
    rep = rate_bound_check(res.trace, rc, "bounded_domains")
    assert rep.skipped == ["avg_scaled2_sq", "avg_scaled2", "avg_step2"]
    rows = sum(1 for r in res.trace if r.t >= 1)
    assert rep.checked == base.checked - 3 * rows
    assert rep.passed and rep.violations == []


def test_rate_constants_without_a_finite_schedule_constant():
    prob, cfg, res = _qcqp_run(iters=20)
    # eta0 = beta0*delta*K^(2-delta) overflows to inf
    sched = ScheduleSpec(family="blocked", beta0=1e300, delta=0.5, K=10**6)
    rc = rate_constants(prob, sched, res.anchors, rho=cfg.rho, mu_max=cfg.mu_max)
    assert rc.eta0 is None and rc.provenance["eta0"] == "unavailable"
    assert rc.M0 is not None and rc.alpha0 is not None
    # lambda4 and lambda5 do not read eta0; lambda6-8 need delta < 1/2
    for name in ("lambda4", "lambda5"):
        assert getattr(rc, name) is not None and rc.provenance[name] == "computed"
    for name in ("lambda6", "lambda7", "lambda8"):
        assert getattr(rc, name) is None and rc.provenance[name] == "unavailable"
    for regime in ("lipschitz_h", "full_domain_h", "bounded_domains"):
        rep = rate_bound_check(res.trace, rc, regime)
        assert "mu_floor" not in rep.skipped and rep.checked > 0
        assert rep.passed


def _without(p, name):
    """``p`` with the user-supplied constant ``name`` removed."""
    if name == "L":
        return dataclasses.replace(p, f=dataclasses.replace(p.f, lipschitz_bound=None))
    if name == "L_c":
        return dataclasses.replace(p, c=dataclasses.replace(p.c, jac_lipschitz_bound=None))
    if name == "M_c":
        return dataclasses.replace(p, c=dataclasses.replace(p.c, jac_norm_bound=None))
    if name == "M_h":
        return dataclasses.replace(p, h_lipschitz_bound=None)
    if name == "inf_fg_lower_bound":
        return dataclasses.replace(p, inf_fg_lower_bound=None)
    return p


@pytest.mark.parametrize(
    "dropped, unavailable",
    [
        ("L", {"L", "lambda1", "lambda2", "lambda3", "lambda5", "lambda6", "lambda7", "lambda8"}),
        ("L_c", {"L_c", "lambda1", "lambda4", "lambda5", "lambda7", "lambda8"}),
        ("M_c", {"M_c", "lambda2", "lambda4", "lambda5", "lambda6", "lambda7", "lambda8"}),
        ("M_h", {"M_h", "K0", "lambda1"}),
        ("rho", {"rho", "lambda2", "lambda3", "lambda4", "lambda5", "lambda7", "lambda8"}),
        ("mu_max", {"mu_max", "lambda2", "lambda3", "lambda6", "lambda7"}),
        ("sup_abs_fg_bound", {"M2", "M3", "lambda2", "lambda3"}),
        (
            "inf_fg_lower_bound",
            {"M0", "M1", "K0", "lambda2", "lambda4", "lambda5", "lambda6", "lambda7", "lambda8"},
        ),
    ],
)
def test_rate_constant_filled_exactly_when_its_inputs_are(dropped, unavailable):
    fam = FAMILIES["mimo"]
    prob, x0, y0, _, sup = fam.setup(fam.generate(3, **fam.check_kwargs))
    cfg = SolverConfig(
        schedule=ScheduleSpec(family="power", beta0=1.0, delta=1.0 / 3.0),
        max_successful_iters=50, max_total_trials=5000, **fam.solver_defaults,
    )
    res = solve(prob, cfg, x0, y0)
    inputs = {"rho": cfg.rho, "mu_max": cfg.mu_max, "sup_abs_fg_bound": sup}
    if dropped in inputs:
        inputs[dropped] = None
    rc = rate_constants(_without(prob, dropped), cfg.schedule, res.anchors, **inputs)
    got = {name for name, tag in rc.provenance.items() if tag == "unavailable"}
    assert got == unavailable
    for name, tag in rc.provenance.items():
        assert (getattr(rc, name) is None) == (tag == "unavailable"), name


@pytest.mark.parametrize(
    "regime, inequalities",
    [
        (
            "lipschitz_h",
            ["mu_floor", "avg_scaled2_sq", "avg_scaled2", "avg_step2", "avg_prev_gap",
             "avg_residual_sq", "min_residual_gap"],
        ),
        (
            "full_domain_h",
            ["mu_floor", "avg_scaled2_sq", "avg_scaled2", "avg_step2", "prev_gap_sq",
             "gap_sq_vs_beta", "avg_residual_sq", "min_residual_step_gap"],
        ),
        (
            "bounded_domains",
            ["mu_floor", "avg_scaled2_sq", "avg_scaled2", "avg_step2", "min_residual_step"],
        ),
    ],
)
def test_rate_bound_check_skipped_lists_every_unchecked_inequality(regime, inequalities):
    _, _, res = _qcqp_run(iters=20)
    rep = rate_bound_check(res.trace, RateConstants(), regime)
    assert rep.checked == 0
    assert not rep.checkable
    assert rep.skipped == inequalities
