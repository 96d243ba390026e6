"""Acceptance suite: end-to-end guarantees the library must uphold.

Shared long runs (1000 accepted steps per family) are session-scoped fixtures
reused by several criteria.
"""

import time

import numpy as np
import pytest

from sdcam.diagnostics import (
    rate_constants,
    select_subsequence,
    suggest_delta,
)
from sdcam.oracles import check_gradient, check_vjp
from sdcam.prox import prox_lp_power
from sdcam.schedule import ScheduleSpec, beta_at
from sdcam.solver import SolverConfig, solve
from sdcam.verify import verify_prox_family, verify_schedule_sandwich
from sdcam.problems import (
    FAMILIES,
    mlp_generate,
    mlp_initial_point,
    mlp_problem,
    qcqp_generate,
    qcqp_initial_point,
    qcqp_problem,
    relative_feasibility,
)


# Each family's acceptance run: instance seed, generator kwargs, schedule delta.
_RUNS = {
    "qcqp": (1, {"n": 20, "m": 5}, 0.3),
    "mimo": (0, {"n": 8, "m": 16}, 1.0 / 3.0),
    "mlp": (0, {}, 0.5),  # dims (20,8,4,1), 100 samples
}


def _solve_family(family, iters):
    fam = FAMILIES[family]
    seed, kwargs, delta = _RUNS[family]
    inst = fam.generate(seed, **kwargs)
    prob, x0, y0, rel_feas, sup = fam.setup(inst)
    cfg = SolverConfig(
        schedule=ScheduleSpec("power", 1.0, delta),
        max_successful_iters=iters, max_total_trials=100 * iters, **fam.solver_defaults,
    )
    res = solve(prob, cfg, x0, y0, rel_feas=rel_feas)
    consts = rate_constants(
        prob, cfg.schedule, res.anchors, rho=cfg.rho, mu_max=cfg.mu_max,
        sup_abs_fg_bound=sup,
    )
    fg_x0 = float(prob.f.value(np.asarray(x0, dtype=float))) + float(prob.g.value(x0))
    return prob, cfg, res, consts, fg_x0


@pytest.fixture(scope="session")
def run_mimo():
    t0 = time.time()
    out = _solve_family("mimo", 1000)
    return out + (time.time() - t0,)


@pytest.fixture(scope="session")
def run_mlp():
    t0 = time.time()
    out = _solve_family("mlp", 1000)
    return out + (time.time() - t0,)


@pytest.fixture(scope="session")
def run_qcqp():
    t0 = time.time()
    out = _solve_family("qcqp", 1000)
    return out + (time.time() - t0,)


@pytest.fixture(scope="session")
def all_runs(run_mimo, run_mlp, run_qcqp):
    return {"mimo": run_mimo, "mlp": run_mlp, "qcqp": run_qcqp}


# 1. Oracle soundness on all three families at >= 10 random points, < 10 s.
def test_criterion_1_oracle_soundness():
    t0 = time.time()
    rng = np.random.default_rng(0)
    samplers = {
        "qcqp": lambda inst: rng.uniform(-inst.r, inst.r, 20),
        "mimo": lambda inst: np.concatenate([rng.uniform(0.5, 1.0, 8), rng.uniform(-3, 3, 8)]),
        "mlp": lambda inst: rng.uniform(-0.5, 0.5, inst.param_count),
    }
    for family, sample in samplers.items():
        seed, kwargs, _ = _RUNS[family]
        inst = FAMILIES[family].generate(seed, **kwargs)
        prob = FAMILIES[family].setup(inst)[0]
        for _ in range(10):
            x = sample(inst)
            assert check_gradient(prob.f, x, rng=rng).max_rel_error <= 1e-5
            assert check_vjp(prob.c, x, rng=rng).max_rel_error <= 1e-5
    assert time.time() - t0 < 10.0


# 2. Prox beats/ties the grid brute-force oracle within 1e-8 on 1000 random
#    scalar instances, p in {0.5, 0.8}, gamma in [1e-3, 1e3]; < 30 s.
def test_criterion_2_prox_vs_grid_oracle():
    t0 = time.time()
    report = verify_prox_family(prox_lp_power, n_instances=1000, seed=0)
    assert report.passed, f"worst excess {report.max_excess} at {report.worst_case}"
    assert time.time() - t0 < 30.0


# 3. Every accepted row of every acceptance run re-verifies both acceptance
#    margins >= -tol; zero violations.
def test_criterion_3_condition_margins(all_runs):
    for family, (prob, cfg, res, consts, fg_x0, _) in all_runs.items():
        assert len(res.condition_margins) == len(res.trace)
        for row, (m_i, m_ii) in zip(res.trace, res.condition_margins):
            # tol is anchored at f(x^t)+g(x^t): the previous row's objective
            # value, or the initial objective for the first accepted step
            fg_xt = res.trace[row.t - 1].fg_value if row.t >= 1 else fg_x0
            tol = 1e-12 * (1.0 + abs(fg_xt))
            assert m_i >= -tol, (family, row.t, m_i)
            assert m_ii >= -tol, (family, row.t, m_ii)


# 4. Merit monotonicity over full 1000-iteration runs, 1e-7 relative; < 60 s.
def test_criterion_4_merit_monotonicity(all_runs):
    for family, (prob, cfg, res, consts, fg_x0, elapsed) in all_runs.items():
        assert elapsed < 60.0, f"{family} run took {elapsed:.1f}s"
        thetas = [r.Theta_value for r in res.trace]
        assert all(th is not None for th in thetas)
        for prev, cur in zip(thetas, thetas[1:]):
            assert cur <= prev + 1e-7 * (1.0 + abs(prev))


# 5. Lipschitz-h running-average guarantee on the MIMO run with delta = 1/3:
#    (1/T) sum (1/mu_t)||x^{t+1}-x^t||^2 <= 2*K0/T for every T <= 1000.
def test_criterion_5_lipschitz_h_average_bound(run_mimo):
    prob, cfg, res, consts, fg_x0, _ = run_mimo
    assert consts.K0 is not None
    rows = [r for r in res.trace if r.t >= 1]
    vals = np.array([r.step_norm**2 / r.mu_t for r in rows])
    sums = np.cumsum(vals)
    for T in range(1, len(rows) + 1):
        lhs = sums[T - 1] / T
        rhs = 2.0 * consts.K0 / T
        assert lhs <= rhs + 1e-9 * (1.0 + rhs), T


# 6. Full-domain-h gap guarantee on the MLP run:
#    ||c(x^t) - y^t||^2 <= 2*M3/beta_{t-1} for all t >= 1.
def test_criterion_6_full_domain_gap_bound(run_mlp):
    prob, cfg, res, consts, fg_x0, _ = run_mlp
    assert consts.M3 is not None
    for row in res.trace:
        # row t's gap column is ||c(x^{t+1}) - y^{t+1}|| and its beta_t column
        # is the schedule value beta_t = beta_{(t+1)-1}
        rhs = 2.0 * consts.M3 / row.beta_t
        assert row.gap**2 <= rhs + 1e-9 * (1.0 + rhs), row.t


# 7. Stepsize floor on the QCQP run with analytic L, L_c, M_c:
#    mu_t >= rho / (L + (L_c*M0 + M_c^2)*beta_t) for all t.
def test_criterion_7_mu_lower_bound(run_qcqp):
    prob, cfg, res, consts, fg_x0, _ = run_qcqp
    for name in ("L", "L_c", "M_c", "M0"):
        assert getattr(consts, name) is not None
    curv = consts.L_c * consts.M0 + consts.M_c**2
    for row in res.trace:
        floor = cfg.rho / (consts.L + curv * row.beta_t)
        assert row.mu_t >= floor * (1.0 - 1e-9), row.t


# 8. Subsequence selection certifies a_T <= b_{T-1} on 1000 random sequences
#    and on every run trace.
def test_criterion_8_subsequence_certification(all_runs):
    rng = np.random.default_rng(0)

    def check(seq):
        arr = np.asarray(seq, dtype=float)
        b = np.cumsum(arr) / np.arange(1, arr.size + 1)
        for T in select_subsequence(arr):
            assert arr[T - 1] <= b[T - 2] + 1e-12 * (1.0 + abs(b[T - 2]))

    for _ in range(1000):
        n = int(rng.integers(1, 50))
        check(rng.uniform(0.0, 10.0, n))
    for family, (prob, cfg, res, consts, fg_x0, _) in all_runs.items():
        check([r.step_norm**2 for r in res.trace])
        check([r.scaled_step**2 for r in res.trace])


# 9. QCQP comparative finding (n=200, m=20, seeds 1-3, 3000 iterations):
#    beta0=1 ends with smaller relative infeasibility than beta0=1e-4, and
#    beta0=1e-4 ends with the smaller scaled step; >= 2 of 3 seeds; < 10 min.
@pytest.mark.slow
def test_criterion_9_qcqp_beta0_comparison():
    t0 = time.time()
    feas_wins = 0
    step_wins = 0
    for seed in (1, 2, 3):
        inst = qcqp_generate(seed, n=200, m=20)
        prob = qcqp_problem(inst)
        x0, y0 = qcqp_initial_point(inst)
        finals = {}
        for beta0 in (1.0, 1e-4):
            cfg = SolverConfig(
                mu_max=1e7, mu_init=1.0, rho=0.8, eta=1.2,
                schedule=ScheduleSpec("power", beta0, 0.3),
                max_successful_iters=3000, max_total_trials=300_000,
            )
            res = solve(prob, cfg, x0, y0,
                        rel_feas=lambda x: relative_feasibility(inst, x))
            last = res.trace[-1]
            finals[beta0] = (last.rel_feas, last.scaled_step)
        if finals[1.0][0] < finals[1e-4][0]:
            feas_wins += 1
        if finals[1e-4][1] < finals[1.0][1]:
            step_wins += 1
    assert feas_wins >= 2, f"feasibility comparison held on {feas_wins}/3 seeds"
    assert step_wins >= 2, f"scaled-step comparison held on {step_wins}/3 seeds"
    assert time.time() - t0 < 600.0


# 10. MLP comparative finding: beta0 sweep {0.5x, 1x, 1.5x} around the tuned
#     base 1.0, 3000 iterations: smallest beta0 gives the smallest final
#     scaled step; >= 2 of 3 seeds.
@pytest.mark.slow
def test_criterion_10_mlp_beta0_sweep():
    base = 1.0
    wins = 0
    for seed in (0, 1, 2):
        inst = mlp_generate(seed)
        prob = mlp_problem(inst)
        x0, y0 = mlp_initial_point(inst)
        finals = {}
        for ratio in (0.5, 1.0, 1.5):
            cfg = SolverConfig(
                mu_max=1e7, mu_init=0.01, rho=0.5, eta=2.0,
                schedule=ScheduleSpec("power", base * ratio, 0.5),
                max_successful_iters=3000, max_total_trials=300_000,
            )
            res = solve(prob, cfg, x0, y0)
            finals[ratio] = res.trace[-1].scaled_step
        if finals[0.5] == min(finals.values()):
            wins += 1
    assert wins >= 2, f"sweep ordering held on {wins}/3 seeds"


# 11. suggest_delta at equal tolerances is exactly one third.
def test_criterion_11_suggest_delta_exact():
    for eps in (1e-1, 1e-3, 1e-6, 0.5):
        assert suggest_delta(eps, eps) == 1.0 / 3.0


# 12. Blocked schedule sandwich for K in {1, 3, 10}, all t <= 1e5.
def test_criterion_12_blocked_schedule_sandwich():
    for K in (1, 3, 10):
        spec = ScheduleSpec(family="blocked", beta0=2.0, delta=0.4, K=K)
        assert verify_schedule_sandwich(spec, t_max=100_000)
        # spot-check the envelope constants directly
        assert spec.alpha0 == pytest.approx(2.0 * K ** (-0.4))
        assert spec.gamma0 == pytest.approx(2.0)
        t = 12345
        b = beta_at(spec, t)
        assert spec.alpha0 * (t + 1) ** 0.4 <= b <= spec.gamma0 * (t + 1) ** 0.4
