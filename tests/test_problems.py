import dataclasses
import hashlib
import math
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdcam
import sdcam.solver
from sdcam.oracles import MapOracle, Problem, ProxOracle, SmoothOracle, check_gradient, check_vjp
from sdcam.problems import (
    FAMILIES,
    load_instance,
    mimo_generate,
    mimo_initial_point,
    mimo_problem,
    mlp_generate,
    mlp_initial_point,
    mlp_problem,
    mlp_sup_abs_fg,
    qcqp_generate,
    qcqp_initial_point,
    qcqp_problem,
    relative_feasibility,
    save_instance,
)
from sdcam.problems import qcqp
from sdcam.prox import LpProxParams, project_box, prox_lp_power
from sdcam.verify import verify_problem_oracles
from sdcam.problems.mimo import phi, mimo_sup_abs_fg
from sdcam.problems.mlp import _backward, _forward


# --- QCQP ---------------------------------------------------------------------


def test_qcqp_structure_seed7():
    inst = qcqp_generate(7, n=4, m=2)
    for Qi in inst.Q:
        assert np.linalg.eigvalsh(Qi).min() >= -1e-10
    assert np.all(inst.ri < 0.0)
    assert inst.r > 0.0
    np.testing.assert_allclose(inst.Q0, np.eye(4))
    np.testing.assert_allclose(inst.bi, 0.0)


def test_qcqp_zero_strictly_feasible():
    inst = qcqp_generate(7, n=4, m=2)
    prob = qcqp_problem(inst)
    c0 = np.asarray(prob.c.value(np.zeros(4)))
    assert np.all(c0 < 0.0)


def test_qcqp_bit_reproducible():
    a = qcqp_generate(11, n=6, m=3)
    b = qcqp_generate(11, n=6, m=3)
    np.testing.assert_array_equal(a.b0, b.b0)
    np.testing.assert_array_equal(a.Q, b.Q)
    np.testing.assert_array_equal(a.ri, b.ri)
    c = qcqp_generate(12, n=6, m=3)
    assert not np.array_equal(a.b0, c.b0)


def test_qcqp_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        qcqp_generate(1, n=1, m=1)
    with pytest.raises(ValueError, match="m >= 1"):
        qcqp_generate(1, n=4, m=0)


def _qcqp_generate_serial(seed, n, m, alpha=0.05, p=0.8, scale0=5.0):
    """An independent reference for ``qcqp_generate``: the same streams,
    the QR and product of each block in block order, and the symmetrized
    block formed as 0.5 * (Qi + Qi.T) rather than in place."""
    params = LpProxParams(p=p, alpha=alpha, gamma=1.0)
    for attempt in range(10):
        b0 = scale0 * qcqp._stream(seed, 0, attempt).standard_normal(n)
        xbar = prox_lp_power(-b0, params)
        if np.any(xbar != 0.0):
            break
    Q = np.empty((m, n, n))
    for i in range(m):
        G = qcqp._stream(seed, 1, i).standard_normal((n, n))
        U, _ = np.linalg.qr(G)
        D = qcqp._stream(seed, 2, i).uniform(0.0, 5.0, n)
        Qi = (U * D) @ U.T
        Q[i] = 0.5 * (Qi + Qi.T)
    ri = -0.25 * np.einsum("ijk,j,k->i", Q, xbar, xbar)
    return qcqp.QcqpInstance(
        n=n, m=m, Q0=np.eye(n), b0=b0, Q=Q, bi=np.zeros((m, n)), ri=ri, alpha=alpha, p=p,
        r=float(np.max(np.abs(xbar))), scale0=scale0, seed=seed, xbar=xbar,
    )


def _assert_equals_the_serial_loop(seed, n, m):
    inst, ref = qcqp_generate(seed, n, m), _qcqp_generate_serial(seed, n, m)
    for field in dataclasses.fields(qcqp.QcqpInstance):
        got, want = getattr(inst, field.name), getattr(ref, field.name)
        assert type(got) is type(want), field.name
        assert np.array_equal(got, want), field.name


@pytest.mark.parametrize("seed, n, m", [(0, 2, 1), (1, 20, 5), (3, 17, 2), (2, 50, 7)])
def test_qcqp_generate_equals_the_serial_loop_bit_for_bit(seed, n, m):
    _assert_equals_the_serial_loop(seed, n, m)


def test_qcqp_generate_200x20_bits_are_pinned():
    # sha256 of the little-endian float64 arrays.  b0 is bit-portable; Q and
    # ri pass through QR and matrix products whose order of summation
    # OpenBLAS's kernel set picks, and these were recorded on SkylakeX
    inst = qcqp_generate(1, 200, 20)
    digests = {
        name: hashlib.sha256(np.asarray(getattr(inst, name), dtype="<f8").tobytes()).hexdigest()
        for name in ("Q", "b0", "ri")
    }
    assert digests == {
        "Q": "5ad0e82c240abbed84107e95e4f4677b1094762f2c0354a53de869cc775e89d4",
        "b0": "822f91b114c9962f06f8411b9b4eeea4d227d07fb831f9e07b7add28489af22b",
        "ri": "567c4af3b49892035e1347fcdb561e4ff4e32166d97661003f1a874ee75a9bcc",
    }


def test_qcqp_generate_from_concurrent_threads_gives_the_same_bits():
    ref = qcqp_generate(1, 20, 5)
    out = [None] * 3

    def gen(k):
        out[k] = qcqp_generate(1, 20, 5)

    threads = [threading.Thread(target=gen, args=(k,)) for k in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for inst in out:
        assert np.array_equal(inst.Q, ref.Q) and np.array_equal(inst.ri, ref.ri)


def test_generation_and_solves_of_every_family_start_no_thread_and_load_no_pool():
    # in a fresh interpreter, so that no other test's imports or threads count
    code = """
import sys, threading
start, started = threading.Thread.start, []
threading.Thread.start = lambda self: started.append(self.name) or start(self)
import sdcam
from sdcam.problems import FAMILIES
for name, kwargs in (("mlp", {}), ("mimo", {}), ("qcqp", {"n": 20, "m": 5})):
    fam = FAMILIES[name]
    prob, x0, y0, rel_feas, _ = fam.setup(fam.generate(0, **(kwargs or fam.check_kwargs)))
    cfg = sdcam.SolverConfig(
        **fam.solver_defaults, schedule=sdcam.ScheduleSpec(family="power", beta0=1.0, delta=0.3),
        max_successful_iters=20, max_total_trials=2000,
    )
    assert len(sdcam.solve(prob, cfg, x0, y0, rel_feas).trace) == 20
print(started, "concurrent.futures" in sys.modules, "glob" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdcam.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "False", "False"]


def test_concurrent_qcqp_solves_of_one_instance_give_the_serial_bytes():
    fam = FAMILIES["qcqp"]
    prob, x0, y0, rel_feas, _ = fam.setup(fam.generate(1, n=200, m=20))
    cfg = sdcam.SolverConfig(
        **fam.solver_defaults, schedule=sdcam.ScheduleSpec(family="power", beta0=1.0, delta=0.3),
        max_successful_iters=30, max_total_trials=3000,
    )

    def run():
        res = sdcam.solve(prob, cfg, x0, y0, rel_feas)
        return [repr(row) for row in res.trace], res.x.tobytes(), res.total_trials

    ref, out = run(), [None] * 3

    def worker(k):
        out[k] = run()

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert out == [ref] * 3


def test_qcqp_oracles_pass_fd_checks():
    inst = qcqp_generate(1, n=8, m=3)
    prob = qcqp_problem(inst)
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = rng.uniform(-inst.r, inst.r, 8)
        assert check_gradient(prob.f, x).passed
        assert check_vjp(prob.c, x, rng=rng).passed


def test_qcqp_f_equals_the_q0_expressions_bit_for_bit():
    # Q0 = I, so f and grad f drop the identity product; the bits must be
    # those of the Q0 expressions, signed zeros included
    inst = qcqp_generate(1, n=20, m=5)
    prob = qcqp_problem(inst)
    Q0, b0 = inst.Q0, inst.b0
    rng = np.random.default_rng(14)
    points = [rng.uniform(-inst.r, inst.r, 20) for _ in range(20)]
    points += [np.zeros(20), np.full(20, -0.0), np.where(rng.random(20) < 0.5, -0.0, 1.5)]
    for x in points:
        ref = float(0.5 * x @ (Q0 @ x) + b0 @ x)
        assert struct.pack("<d", prob.f.value(x)) == struct.pack("<d", ref)
        assert prob.f.grad(x).tobytes() == (Q0 @ x + b0).tobytes()
    assert prob.f.lipschitz_bound == float(np.linalg.norm(Q0, 2)) == 1.0


def test_qcqp_instance_rejects_a_q0_other_than_the_identity():
    # f, its Lipschitz constant and inf_fg_lower_bound all rely on Q0 = I
    inst = qcqp_generate(1, n=20, m=5)
    for Q0 in (0.25 * inst.Q0, np.eye(21), np.eye(20)[:, ::-1], np.full((20, 20), np.nan)):
        with pytest.raises(ValueError, match="Q0"):
            dataclasses.replace(inst, Q0=Q0)


def test_qcqp_instance_rejects_asymmetric_q_blocks():
    # _linearize's pullback w @ Qx is J_c(x)^T w only for symmetric blocks
    inst = qcqp_generate(1, n=20, m=5)
    Q = inst.Q.copy()
    Q[2, 0, 1] += 1e-12
    with pytest.raises(ValueError, match="symmetric"):
        dataclasses.replace(inst, Q=Q)


def test_instances_reject_bad_parameters_of_g():
    # g.prox would reject these mid-run, where the solver reports a numerical
    # failure; the instance rejects them when it is built instead
    qcqp = qcqp_generate(1, n=8, m=3)
    for field, value in (("alpha", -1.0), ("alpha", math.nan), ("alpha", math.inf),
                         ("p", 1.0), ("r", 0.0), ("r", math.nan), ("r", math.inf)):
        with pytest.raises(ValueError):
            dataclasses.replace(qcqp, **{field: value})
    mlp = mlp_generate(0, layer_dims=(4, 3, 1), n_samples=10)
    for value in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="C_radius"):
            dataclasses.replace(mlp, C_radius=value)


def test_qcqp_initial_point_feasible():
    inst = qcqp_generate(1, n=8, m=3)
    prob = qcqp_problem(inst)
    x0, y0 = qcqp_initial_point(inst)
    assert math.isfinite(prob.g.value(x0))
    assert prob.h.value(y0) == 0.0


def test_qcqp_lipschitz_constants_dominate_samples():
    inst = qcqp_generate(2, n=6, m=3)
    prob = qcqp_problem(inst)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-inst.r, inst.r, 6)
        # Jacobian rows are Qi x; Frobenius bound must dominate spectral norm
        J = np.einsum("ijk,k->ij", inst.Q, x)
        assert np.linalg.norm(J, 2) <= prob.c.jac_norm_bound + 1e-9


def _qcqp_jacobian(inst, x):
    # rows (Qi x + bi)^T, from the einsum formula rather than a pullback
    return np.einsum("ijk,k->ij", inst.Q, x) + inst.bi


@pytest.mark.parametrize("seed, n, m", [(0, 2, 1), (3, 9, 1), (5, 12, 4), (9, 30, 6)])
def test_qcqp_jac_lipschitz_bound_matches_independent_references(seed, n, m):
    inst = qcqp_generate(seed, n=n, m=m)
    L_c = qcqp_problem(inst).c.jac_lipschitz_bound
    assert L_c == pytest.approx(np.linalg.norm(inst.Q.reshape(-1, n), 2), rel=1e-12, abs=0.0)
    # the earlier constant sqrt(sum ||Qi||_2^2) is valid but never tighter
    assert L_c <= math.sqrt(sum(np.linalg.norm(Qi, 2) ** 2 for Qi in inst.Q)) * (1.0 + 1e-12)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        x, x2 = rng.uniform(-inst.r, inst.r, (2, n))
        gap = np.linalg.norm(_qcqp_jacobian(inst, x) - _qcqp_jacobian(inst, x2), 2)
        assert gap <= L_c * np.linalg.norm(x - x2) * (1.0 + 1e-12)


def test_qcqp_jac_norm_bound_holds_with_nonzero_bi():
    # generated instances have bi = 0; an instance file may not, and J_c(0) = bi
    # ||bi||_2 is three times r*sqrt(n) times the earlier, larger L_c, so a
    # bound that leaves bi out fails at x = 0
    inst = qcqp_generate(2, n=6, m=3)
    L_old = math.sqrt(sum(np.linalg.norm(Qi, 2) ** 2 for Qi in inst.Q))
    rng = np.random.default_rng(7)
    bi = np.outer(rng.standard_normal(3), rng.standard_normal(6))
    inst = dataclasses.replace(
        inst, bi=3.0 * inst.r * math.sqrt(inst.n) * L_old * bi / np.linalg.norm(bi, 2))
    M_c = qcqp_problem(inst).c.jac_norm_bound
    for x in [np.zeros(6)] + list(rng.uniform(-inst.r, inst.r, (20, 6))):
        assert np.linalg.norm(_qcqp_jacobian(inst, x), 2) <= M_c


@pytest.mark.parametrize("field", ["jac_lipschitz_bound", "jac_norm_bound"])
def test_verify_problem_oracles_catches_a_map_constant_cut_to_a_tenth(field):
    fam = FAMILIES["qcqp"]
    problem, x0, _, _, _ = fam.setup(fam.generate(1, **fam.check_kwargs))
    rng = np.random.default_rng(3)
    points = [x0] + [x0 + 0.1 * rng.standard_normal(x0.size) for _ in range(4)]
    assert verify_problem_oracles(problem, points) == []
    c = dataclasses.replace(problem.c, **{field: 0.1 * getattr(problem.c, field)})
    failures = verify_problem_oracles(dataclasses.replace(problem, c=c), points)
    assert failures and all(msg.startswith(field) for msg in failures)


def test_verify_problem_oracles_catches_a_jvp_scaled_by_two():
    fam = FAMILIES["qcqp"]
    problem, x0, _, _, _ = fam.setup(fam.generate(1, **fam.check_kwargs))
    rng = np.random.default_rng(3)
    points = [x0] + [x0 + 0.1 * rng.standard_normal(x0.size) for _ in range(4)]
    assert verify_problem_oracles(problem, points) == []
    linearizer = problem.c.linearizer

    def linearize(x):
        c_x, pullback = linearizer(x)

        def doubled(w):
            return pullback(w)

        doubled.jvp = lambda d: 2.0 * pullback.jvp(d)
        return c_x, doubled

    c = dataclasses.replace(problem.c, linearizer=linearize)
    failures = verify_problem_oracles(dataclasses.replace(problem, c=c), points)
    assert len(failures) == len(points)
    assert all(msg.startswith("jvp is not the adjoint") for msg in failures)


def _check_points_in_dom_g(problem, x0):
    """x0 and four nearby points mapped into dom g, as ``sdcam check`` maps its own."""
    rng = np.random.default_rng(3)
    return [x0] + [problem.g.prox(x0 + 0.1 * rng.standard_normal(x0.size), 1e-6)
                   for _ in range(4)]


@pytest.mark.parametrize("slack", [-1.0, math.nan])
def test_verify_problem_oracles_catches_a_negative_or_nan_jvp_slack(slack):
    # a negative or NaN slack would certify trials that pass condition (i);
    # it is a constant of the map, so it is reported once, not per point
    fam = FAMILIES["qcqp"]
    problem, x0, _, _, _ = fam.setup(fam.generate(1, **fam.check_kwargs))
    points = _check_points_in_dom_g(problem, x0)
    assert verify_problem_oracles(problem, points) == []
    c = dataclasses.replace(problem.c, jvp_slack=slack)
    failures = verify_problem_oracles(dataclasses.replace(problem, c=c), points)
    assert failures == [f"jvp_slack {slack!r} is not a finite number >= 0"]


def test_verify_problem_oracles_catches_a_taylor_bound_that_c_breaks():
    # c = 0, while the pullback and its jvp are those of the identity: the two
    # are adjoint and J_c is constant, so only the finite differences and the
    # Taylor bound ||jvp(d)|| - (L_c/2)||d||^2 - jvp_slack > 0 = ||c(x') - c(x)||
    # see it.
    def linearize(x):
        def pullback(w):
            return np.array(w, dtype=float)

        pullback.jvp = lambda d: np.array(d, dtype=float)
        return np.zeros(3), pullback

    free = ProxOracle(value=lambda x: 0.0, prox=lambda z, gamma: np.asarray(z, dtype=float))
    c = MapOracle(linearizer=linearize, jac_lipschitz_bound=1.0, jvp_slack=0.0)
    problem = Problem(
        f=SmoothOracle(value=lambda x: float(0.5 * x @ x), grad=lambda x: x),
        g=free, h=free, c=c, n=3, m=3,
    )
    points = _check_points_in_dom_g(problem, np.zeros(3))
    failures = verify_problem_oracles(problem, points)
    taylor = [msg for msg in failures if msg.startswith("jvp_slack 0 does not cover")]
    assert [msg.rsplit(" ", 1)[1] for msg in taylor] == ["1", "2", "3", "4"]
    others = [msg for msg in failures if msg not in taylor]
    assert others and all(msg.startswith("adjoint-product check failed") for msg in others)


def test_qcqp_linearize_matches_einsum_reference():
    # The einsum formulas of c and J_c^T w are the independent reference; bi is
    # made nonzero so that its terms are checked too.
    inst = qcqp_generate(4, n=7, m=3)
    rng = np.random.default_rng(6)
    inst = dataclasses.replace(inst, bi=rng.standard_normal((3, 7)))
    prob = qcqp_problem(inst)
    for _ in range(10):
        x = rng.uniform(-inst.r, inst.r, 7)
        w = rng.standard_normal(3)
        c_ref = 0.5 * np.einsum("ijk,j,k->i", inst.Q, x, x) + inst.bi @ x + inst.ri
        jtw_ref = np.einsum("i,ijk,k->j", w, inst.Q, x) + w @ inst.bi
        # rounding scale of the sums: |Q| |x|^2 + |bi| |x| + |ri|
        scale = np.abs(inst.Q).sum() * np.abs(x).max() ** 2 + np.abs(inst.bi).sum() + 1.0
        c_x, pullback = prob.c.linearize(x)
        np.testing.assert_allclose(c_x, c_ref, rtol=0.0, atol=1e-14 * scale)
        np.testing.assert_allclose(pullback(w), jtw_ref, rtol=0.0, atol=1e-14 * scale)
        np.testing.assert_array_equal(prob.c.value(x), c_x)
        np.testing.assert_array_equal(prob.c.vjp(x, w), pullback(w))
        rel_ref = np.linalg.norm(np.maximum(c_ref, 0.0) / np.maximum(np.abs(inst.ri), 1.0))
        assert relative_feasibility(inst, x) == pytest.approx(rel_ref, rel=1e-12, abs=1e-14 * scale)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    m=st.integers(1, 4),
    nonzero_bi=st.booleans(),
    data=st.data(),
)
def test_qcqp_jvp_is_the_adjoint_and_gives_a_taylor_lower_bound(seed, n, m, nonzero_bi, data):
    # For x, x' in the box and d = x' - x:
    #   ||c(x') - c(x)|| >= ||J_c(x) d|| - (L_c/2)||d||^2,
    # the bound the solver's certificate rests on, and <w, J_c(x) d> equals
    # <J_c(x)^T w, d>; J_c(x) d also matches the einsum Jacobian.
    inst = qcqp_generate(seed, n=n, m=m)
    rng = np.random.default_rng(seed)
    if nonzero_bi:
        inst = dataclasses.replace(inst, bi=rng.standard_normal((m, n)))
    prob = qcqp_problem(inst)
    unit = st.floats(-1.0, 1.0)
    x, x2 = (inst.r * np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
             for _ in range(2))
    d, w = x2 - x, rng.standard_normal(m)
    c_x, pullback = prob.c.linearize(x)
    c_x2 = prob.c.value(x2)
    jd = pullback.jvp(d)
    L_c = prob.c.jac_lipschitz_bound
    scale = 1.0 + np.linalg.norm(c_x) + np.linalg.norm(c_x2) + np.linalg.norm(jd) + L_c * d @ d
    lb = np.linalg.norm(jd) - 0.5 * L_c * (d @ d)
    assert np.linalg.norm(c_x2 - c_x) >= lb - 1e-12 * scale
    # rounding scale of the two dot products; the floor covers subnormal steps
    adjoint_scale = np.abs(w) @ np.abs(jd) + np.abs(pullback(w)) @ np.abs(d)
    assert abs(w @ jd - pullback(w) @ d) <= 1e-12 * max(adjoint_scale, 1e-300)
    jd_ref = _qcqp_jacobian(inst, x) @ d
    # rounding scale of the sums: (|Q| |x| + |bi|) |d|
    ref_scale = (np.abs(inst.Q).sum() * inst.r + np.abs(inst.bi).sum()) * np.abs(d).max() + 1.0
    np.testing.assert_allclose(jd, jd_ref, rtol=0.0, atol=1e-14 * ref_scale)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    m=st.integers(1, 4),
    q_scale=st.sampled_from([1e-3, 1.0, 1e4]),
    bi_scale=st.sampled_from([0.0, 1.0, 1e4]),
    ri_scale=st.sampled_from([1.0, 1e8]),
    step_exp=st.integers(-17, 0),
    corner=st.booleans(),
    data=st.data(),
)
def test_qcqp_jvp_slack_covers_the_rounding_of_the_taylor_test(
    seed, n, m, q_scale, bi_scale, ri_scale, step_exp, corner, data
):
    # The solver rejects a trial without evaluating c(x') when
    #   thr - (||jvp(d)|| - (L_c/2)||d||^2 - jvp_slack) < -tol,
    # and would reject it from c(x') when thr - ||c(x') - c(x)|| < -tol, all
    # in floating point.  The first implies the second because the computed
    # ||c(x') - c(x)|| is at least the computed bound.  Steps down to a few
    # ulps of x make rounding, not curvature, decide the comparison.  At a
    # box corner ||x|| = sqrt(n)*r, the norm the box-wide slack is taken at.
    inst = qcqp_generate(seed, n=n, m=m)
    rng = np.random.default_rng(seed)
    inst = dataclasses.replace(
        inst, Q=q_scale * inst.Q, bi=bi_scale * rng.standard_normal((m, n)), ri=ri_scale * inst.ri
    )
    prob = qcqp_problem(inst)
    unit = st.floats(-1.0, 1.0)
    x, u = (np.array(data.draw(st.lists(unit, min_size=n, max_size=n))) for _ in range(2))
    x = inst.r * (np.where(x < 0.0, -1.0, 1.0) if corner else x)
    x2 = np.clip(x + inst.r * 10.0**step_exp * u, -inst.r, inst.r)
    c_x, pullback = prob.c.linearize(x)
    c_x2 = prob.c.linearize(x2)[0]
    d = x2 - x
    step_norm = math.sqrt(d @ d)
    jd = pullback.jvp(d)
    lb = math.sqrt(jd @ jd) - 0.5 * prob.c.jac_lipschitz_bound * step_norm * step_norm
    gap = c_x2 - c_x
    assert math.sqrt(gap @ gap) >= lb - prob.c.jvp_slack


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, 8),
    m=st.integers(1, 4),
    q_scale=st.sampled_from([1e-3, 1.0, 1e4]),
    bi_scale=st.sampled_from([0.0, 1.0, 1e4]),
    ri_scale=st.sampled_from([1.0, 1e8]),
    anchor_exp=st.integers(-17, 0),
    step_exp=st.integers(-17, 0),
    data=st.data(),
)
def test_qcqp_anchored_taylor_bound_covers_the_rounding_of_r_a(
    seed, n, m, q_scale, bi_scale, ri_scale, anchor_exp, step_exp, data
):
    # After a swept rejection the solver takes the Taylor bound at that trial
    # point a, with r_a the computed c(a) - c(x^t):
    #   ||c(x') - c(x^t)|| >= ||r_a + J_c(a)(x' - a)|| - (L_c/2)||x' - a||^2 - slack_a,
    # slack_a being the map's jvp_slack plus the solver's own term.  The
    # computed left side must be at least the bound as the solver computes
    # it.  a lies near x^t and x' near a, down to a few ulps, as while mu
    # walks down, so that rounding, not curvature, decides.
    inst = qcqp_generate(seed, n=n, m=m)
    rng = np.random.default_rng(seed)
    inst = dataclasses.replace(
        inst, Q=q_scale * inst.Q, bi=bi_scale * rng.standard_normal((m, n)), ri=ri_scale * inst.ri
    )
    prob = qcqp_problem(inst)
    unit = st.floats(-1.0, 1.0)
    x_t, u_a, u = (np.array(data.draw(st.lists(unit, min_size=n, max_size=n))) for _ in range(3))
    x_t = inst.r * x_t
    a = np.clip(x_t + inst.r * 10.0**anchor_exp * u_a, -inst.r, inst.r)
    x2 = np.clip(a + inst.r * 10.0**step_exp * u, -inst.r, inst.r)
    c_t = prob.c.linearize(x_t)[0]
    c_a, pullback = prob.c.linearize(a)
    r_a = c_a - c_t
    anchor = sdcam.solver._anchor(prob, a, pullback, r_a, math.sqrt(r_a @ r_a))
    gap = prob.c.linearize(x2)[0] - c_t
    bound = sdcam.solver._taylor_bound(anchor, x2, prob.c.jac_lipschitz_bound)
    assert math.sqrt(gap @ gap) >= bound


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_linearize_pullback_survives_mutating_x(family):
    # The pullback is applied only after x has been overwritten in place; it
    # must still give J_c^T w at the point linearize saw.
    fam = FAMILIES[family]
    prob, x0, *_ = fam.setup(fam.generate(5, **fam.check_kwargs))
    rng = np.random.default_rng(3)
    x = x0 + 0.1 * rng.standard_normal(x0.size)
    x_saved = x.copy()
    w = rng.standard_normal(prob.m)
    c_x, pullback = prob.c.linearize(x)
    c_saved = c_x.copy()
    x[:] = rng.standard_normal(x.size)
    np.testing.assert_array_equal(pullback(w), prob.c.vjp(x_saved, w))
    np.testing.assert_array_equal(c_x, c_saved)
    np.testing.assert_array_equal(c_x, prob.c.value(x_saved))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_map_value_and_vjp_are_the_linearizer_outputs_bit_for_bit(family):
    fam = FAMILIES[family]
    prob, x0, *_ = fam.setup(fam.generate(5, **fam.check_kwargs))
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = x0 + 0.1 * rng.standard_normal(x0.size)
        w = rng.standard_normal(prob.m)
        c_x, pullback = prob.c.linearize(x)
        assert prob.c.value(x).tobytes() == c_x.tobytes()
        assert prob.c.vjp(x, w).tobytes() == pullback(w).tobytes()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_map_keeps_its_linearizer_under_replace_and_needs_one_or_both(family):
    fam = FAMILIES[family]
    prob, x0, *_ = fam.setup(fam.generate(5, **fam.check_kwargs))
    c = prob.c
    # a map without a linearizer must give both value and vjp
    for missing in ("value", "vjp"):
        with pytest.raises(ValueError, match="needs both value and vjp"):
            dataclasses.replace(c, linearizer=None, **{missing: None})
    # wrapping value and vjp, as the benchmark's call recorder does, keeps the
    # linearizer and the constants, and the wrappers see every call
    calls = []

    def value(x):
        calls.append("value")
        return c.value(x)

    def vjp(x, w):
        calls.append("vjp")
        return c.vjp(x, w)

    wrapped = dataclasses.replace(c, value=value, vjp=vjp)
    assert wrapped.linearizer is c.linearizer
    assert wrapped.jac_lipschitz_bound == c.jac_lipschitz_bound
    assert wrapped.jac_norm_bound == c.jac_norm_bound
    w = np.random.default_rng(5).standard_normal(prob.m)
    c_x, pullback = c.linearize(x0)
    assert wrapped.value(x0).tobytes() == c_x.tobytes()
    assert wrapped.vjp(x0, w).tobytes() == pullback(w).tobytes()
    assert wrapped.linearize(x0)[0].tobytes() == c_x.tobytes()
    assert calls == ["value", "vjp"]


def test_relative_feasibility_examples():
    inst = qcqp_generate(7, n=4, m=2)
    # direct formula checks with synthetic constraint values
    cx = np.array([-1.0, 2.0])
    rref = np.array([0.5, 3.0])
    val = float(np.linalg.norm(np.maximum(cx, 0.0) / np.maximum(rref, 1.0)))
    assert val == pytest.approx(2.0 / 3.0)
    # feasible points give zero
    assert relative_feasibility(inst, np.zeros(4)) == pytest.approx(0.0)


def test_relative_feasibility_reuses_c_only_at_the_same_bits(monkeypatch):
    # relative_feasibility takes c(x) from the last linearize when it saw the
    # same bytes of x; every other case recomputes.  The reference is a fresh
    # copy of the instance, whose slot is empty.
    import sdcam.problems.qcqp as qcqp

    inst = qcqp_generate(2, n=9, m=4)
    prob = qcqp_problem(inst)
    rng = np.random.default_rng(8)
    x, x2 = (rng.uniform(-3.0 * inst.r, 3.0 * inst.r, 9) for _ in range(2))

    def from_scratch(v):
        return relative_feasibility(dataclasses.replace(inst), v.copy())

    # both points are infeasible, with different values, so a stale c shows
    assert 0.0 < from_scratch(x) and 0.0 < from_scratch(x2) != from_scratch(x)
    calls = []
    real = qcqp._linearize
    monkeypatch.setattr(qcqp, "_linearize", lambda *a: calls.append(1) or real(*a))

    c_x, _ = prob.c.linearize(x)  # same x: no second Q product
    c_x[:] = 1e3  # the caller owns the returned array
    n = len(calls)
    assert struct.pack("<d", relative_feasibility(inst, x)) == struct.pack("<d", from_scratch(x))
    assert len(calls) == n + 1  # only from_scratch's

    prob.c.linearize(x)  # another x
    n = len(calls)
    assert struct.pack("<d", relative_feasibility(inst, x2)) == struct.pack("<d", from_scratch(x2))
    assert len(calls) == n + 2

    prob.c.linearize(x)  # x overwritten in place in between
    x[:] = x2
    n = len(calls)
    assert struct.pack("<d", relative_feasibility(inst, x)) == struct.pack("<d", from_scratch(x2))
    assert len(calls) == n + 2


def test_qcqp_instance_fields_and_repr_leave_out_the_c_slot():
    inst = qcqp_generate(1, n=4, m=2)
    qcqp_problem(inst).c.linearize(np.ones(4))
    assert [f.name for f in dataclasses.fields(inst)] == [
        "n", "m", "Q0", "b0", "Q", "bi", "ri", "alpha", "p", "r", "scale0", "seed", "xbar",
    ]
    assert "_c_at" not in repr(inst)


# --- MIMO ---------------------------------------------------------------------


def test_phi_at_zero_phase():
    np.testing.assert_allclose(phi(np.ones(1), np.zeros(1)), [1.0, 0.0])


def test_mimo_c_zero_at_zero_phase():
    inst = mimo_generate(0, n=4, m=8)
    prob = mimo_problem(inst)
    x0, _ = mimo_initial_point(inst)
    np.testing.assert_allclose(prob.c.value(x0), 0.0, atol=1e-15)
    assert prob.h.value(np.asarray(prob.c.value(x0))) == pytest.approx(0.0)


def test_mimo_barrier_is_c1_at_knee():
    from sdcam.problems.mimo import _gamma, _gamma_prime

    r_lo = 0.5
    t = np.array([r_lo])
    eps = 1e-9
    below = _gamma(t - eps, r_lo)[0]
    above = _gamma(t + eps, r_lo)[0]
    assert below == pytest.approx(1.0 / r_lo, abs=1e-6)
    assert above == pytest.approx(1.0 / r_lo, abs=1e-6)
    assert _gamma_prime(t - eps, r_lo)[0] == pytest.approx(-1.0 / r_lo**2, abs=1e-6)
    assert _gamma_prime(t + eps, r_lo)[0] == pytest.approx(-1.0 / r_lo**2, abs=1e-6)


def _gamma_two_branch(t, r_lo):
    # the earlier form of the barrier, which evaluated both branches
    return np.where(t >= r_lo, 1.0 / np.maximum(t, r_lo), -(t - r_lo) / r_lo**2 + 1.0 / r_lo)


@pytest.mark.parametrize("r_lo", [0.5, 0.1, 0.3, 1.0])
def test_mimo_gamma_equals_two_branch_form_bit_for_bit(r_lo):
    # on the box and off it, where check_gradient evaluates f too
    from sdcam.problems.mimo import _gamma

    rng = np.random.default_rng(9)
    t = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, r_lo],
        [np.nextafter(r_lo, 0.0), np.nextafter(r_lo, 2.0)],
        r_lo + 1e-9 * rng.standard_normal(100),
        rng.uniform(-2.0, 2.0, 400),
        rng.uniform(0.1, 1.2, 400),
        rng.choice([-1.0, 1.0], 100) * 10.0 ** rng.uniform(-300, 300, 100),
    ])
    np.testing.assert_array_equal(
        _gamma(t, r_lo).view(np.int64), _gamma_two_branch(t, r_lo).view(np.int64)
    )
    assert np.isnan(_gamma(np.array([np.nan]), r_lo)).all()


def test_mimo_gradient_everywhere_on_and_off_box():
    inst = mimo_generate(0, n=4, m=8)
    prob = mimo_problem(inst)
    rng = np.random.default_rng(1)
    for _ in range(5):
        # includes r below r_lo: the linear barrier extension keeps f smooth
        x = np.concatenate([rng.uniform(0.1, 1.2, 4), rng.uniform(-3, 3, 4)])
        assert check_gradient(prob.f, x, rng=rng).passed
        assert check_vjp(prob.c, x, rng=rng).passed


def _mimo_points(inst, rng):
    """In-box points, points with r_i at r_lo and at 1 exactly, and every
    point check_gradient evaluates f at from starts with r in [r_lo/2, 1.2]."""
    n, r_lo = inst.n, inst.r_lo
    pts = [np.concatenate([rng.uniform(r_lo, 1.0, n), rng.uniform(-3, 3, n)]) for _ in range(50)]
    pts += [
        np.concatenate([rng.choice([r_lo, 1.0], n), rng.uniform(-3, 3, n)]) for _ in range(20)
    ]
    pts += [np.concatenate([np.full(n, b), np.zeros(n)]) for b in (r_lo, 1.0)]
    f = mimo_problem(inst).f
    seen = []
    spy = dataclasses.replace(f, value=lambda x: seen.append(np.array(x)) or f.value(x))
    for _ in range(5):
        x = np.concatenate([rng.uniform(0.5 * r_lo, 1.2, n), rng.uniform(-3, 3, n)])
        check_gradient(spy, x, rng=rng)
    assert any((x[:n] < r_lo).any() for x in seen) and any((x[:n] > 1.0).any() for x in seen)
    return pts + seen


@pytest.mark.parametrize("r_lo", [0.5, 0.1, 1.0])
def test_mimo_f_and_g_values_equal_the_plain_expressions_bit_for_bit(r_lo):
    # f sums 1/r where min(r) >= r_lo and g takes two reductions; both must
    # give the bits of the plain expressions, on the box and off it
    from sdcam.problems.mimo import _gamma

    inst = mimo_generate(2, n=4, m=8, r_lo=r_lo)
    prob = mimo_problem(inst)
    n, A, yhat, lam1 = inst.n, inst.A, inst.yhat, inst.lambda1
    rng = np.random.default_rng(12)
    for x in _mimo_points(inst, rng):
        r, theta = x[:n], x[n:]
        e = A @ phi(r, theta) - yhat
        ref = float(0.5 * e @ e + lam1 * _gamma(r, r_lo).sum())
        assert struct.pack("<d", prob.f.value(x)) == struct.pack("<d", ref)
    inf, nan = math.inf, math.nan
    below, above = np.nextafter(r_lo, 0.0), np.nextafter(1.0, 2.0)
    for r in ([r_lo, 1.0], [below, 1.0], [r_lo, above], [nan, 1.0], [1.0, nan],
              [inf, 1.0], [-inf, 1.0], [0.0, -0.0], [r_lo, r_lo], [1.0, 1.0]):
        x = np.concatenate([np.resize(r, n), np.zeros(n)])
        ref = 0.0 if ((x[:n] >= r_lo) & (x[:n] <= 1.0)).all() else inf
        assert prob.g.value(x) == ref
        assert prob.g.value(np.concatenate([np.ones(n), np.resize(r, n)])) == 0.0  # theta is free


def test_mimo_grad_map_and_h_equal_the_plain_expressions_bit_for_bit():
    # grad f builds phi from the cos and sin it holds, the linearizer forms
    # p_psk*theta/2 once for c and its pullback, and h sums with add.reduce;
    # each must give the bits of the plain expressions, on the box and off it
    from sdcam.problems.mimo import _gamma_prime

    inst = mimo_generate(3, n=4, m=8, p_psk=8)
    prob = mimo_problem(inst)
    n, A, yhat, lam1, ppsk = inst.n, inst.A, inst.yhat, inst.lambda1, float(inst.p_psk)
    rng = np.random.default_rng(13)
    for x in _mimo_points(inst, rng):
        r, theta = x[:n], x[n:]
        ate = A.T @ (A @ phi(r, theta) - yhat)
        u, v = ate[:n], ate[n:]
        grad_ref = np.concatenate([
            np.cos(theta) * u + np.sin(theta) * v + lam1 * _gamma_prime(r, r_lo=inst.r_lo),
            -r * np.sin(theta) * u + r * np.cos(theta) * v,
        ])
        assert prob.f.grad(x).tobytes() == grad_ref.tobytes()

        w = rng.standard_normal(n)
        c_ref = np.sin(0.5 * ppsk * x[n:])
        vjp_ref = np.zeros(2 * n)
        vjp_ref[n:] = 0.5 * ppsk * np.cos(0.5 * ppsk * x[n:]) * w
        c_x, pullback = prob.c.linearize(x)
        for got, ref in ((c_x, c_ref), (prob.c.value(x), c_ref),
                         (pullback(w), vjp_ref), (prob.c.vjp(x, w), vjp_ref)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

        y = np.concatenate([c_ref, [-0.0, 0.0]])
        ref = float(inst.lambda2 * np.sum(np.abs(y)))
        assert struct.pack("<d", prob.h.value(y)) == struct.pack("<d", ref)


def test_mimo_constants_and_bounds():
    inst = mimo_generate(0, n=4, m=8, p_psk=4)
    prob = mimo_problem(inst)
    assert prob.c.jac_norm_bound == pytest.approx(2.0)  # p_psk/2
    assert prob.c.jac_lipschitz_bound == pytest.approx(4.0)  # p_psk^2/4
    assert prob.h_lipschitz_bound == pytest.approx(inst.lambda2 * 2.0)
    # h on the image of c is at most lambda2 * n since |sin| <= 1
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(8)
        hv = prob.h.value(np.asarray(prob.c.value(x)))
        assert hv <= prob.h_sup_on_image_bound + 1e-12
    # |f+g| bound at random box points
    bound = mimo_sup_abs_fg(inst)
    for _ in range(10):
        x = np.concatenate([rng.uniform(inst.r_lo, 1.0, 4), rng.uniform(-3, 3, 4)])
        assert abs(prob.f.value(x)) <= bound + 1e-9


def test_mimo_g_prox_is_project_box_bit_for_bit():
    n = 6
    inst = mimo_generate(1, n=n, m=12, r_lo=0.5)
    prox = mimo_problem(inst).g.prox
    lo = np.concatenate([np.full(n, inst.r_lo), np.full(n, -np.inf)])
    hi = np.concatenate([np.ones(n), np.full(n, np.inf)])
    inf = math.inf
    edge = np.array([-0.0, 0.0, inf, -inf, 0.5, 1.0] * 2)  # r block, then theta block
    outside = np.array([-3.0, 0.2, 1.0 + 1e-16, 7.0, 0.49999999999999994, -1e308] + [1e308] * n)
    rng = np.random.default_rng(0)
    for z in [edge, outside, *(4.0 * rng.standard_normal(2 * n) for _ in range(50))]:
        for gamma in (1e-8, 0.5, 3.0):
            out, ref = prox(z, gamma), project_box(z, lo, hi)
            assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


def test_mimo_f_from_two_threads_equals_serial_evaluation_bit_for_bit():
    # the problem holds no buffer of its own, so two threads may share it;
    # a tiny switch interval makes the threads interleave inside f
    prob = mimo_problem(mimo_generate(2, n=8, m=16))
    rng = np.random.default_rng(9)
    points = [
        [np.concatenate([rng.uniform(0.5, 1.0, 8), rng.uniform(-4.0, 4.0, 8)]) for _ in range(4)]
        for _ in range(2)
    ]

    def evaluate(x):
        return prob.f.value(x).hex(), prob.f.grad(x).tobytes()

    want = [[evaluate(x) for x in pts] for pts in points]
    got = [[], []]

    def run(k):
        for it in range(600):
            got[k].append(evaluate(points[k][it % 4]))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for k in range(2):
        assert got[k] == [want[k][it % 4] for it in range(600)]


def test_mimo_validation():
    with pytest.raises(ValueError):
        mimo_generate(0, n=0, m=1)
    with pytest.raises(ValueError):
        mimo_generate(0, n=2, m=2, p_psk=1)
    with pytest.raises(ValueError):
        mimo_generate(0, n=2, m=2, r_lo=0.0)


# --- MLP ----------------------------------------------------------------------


def test_mlp_zero_weights_collapse():
    # with tanh, the zero parameter vector maps every input to 0, so
    # c(0) = -targets and C_radius = sum |y_i|^p / (p * lam * m)
    inst = mlp_generate(0, layer_dims=(5, 3, 1), n_samples=10)
    prob = mlp_problem(inst)
    c0 = np.asarray(prob.c.value(np.zeros(inst.param_count)))
    np.testing.assert_allclose(c0, -inst.targets, atol=1e-15)
    expected_R = float(
        np.sum(np.abs(inst.targets) ** inst.p) / inst.p / (inst.lam * 10)
    )
    assert inst.C_radius == pytest.approx(expected_R)
    assert inst.C_radius > 0.0


def test_mlp_vjp_seed0_dims_4321():
    inst = mlp_generate(0, layer_dims=(4, 3, 2, 1), n_samples=15)
    prob = mlp_problem(inst)
    rng = np.random.default_rng(0)
    for _ in range(10):
        v = rng.standard_normal(inst.param_count) * 0.3
        assert check_vjp(prob.c, v, rng=rng).passed


def test_mlp_sigmoid_activation_vjp():
    inst = mlp_generate(1, layer_dims=(4, 3, 1), n_samples=10, activation="sigmoid")
    prob = mlp_problem(inst)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(inst.param_count) * 0.3
    assert check_vjp(prob.c, v, rng=rng).passed


@pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
def test_mlp_pullback_equals_vjp_from_scratch(activation):
    inst = mlp_generate(2, layer_dims=(5, 4, 3, 1), n_samples=12, activation=activation)
    prob = mlp_problem(inst)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(inst.param_count) * 0.3
    c_x, pullback = prob.c.linearize(v)
    np.testing.assert_array_equal(c_x, prob.c.value(v))
    for _ in range(3):
        w = rng.standard_normal(12)
        # reverse accumulation after a forward pass of its own
        _, acts, layers = _forward(v, inst.layer_dims, activation, inst.features)
        ref = _backward(layers, acts, activation, w)
        np.testing.assert_array_equal(pullback(w), ref)
        np.testing.assert_array_equal(prob.c.vjp(v, w), ref)


def test_mlp_initial_point_inside_box():
    inst = mlp_generate(0)
    x0, y0 = mlp_initial_point(inst)
    assert np.all(np.abs(x0) <= inst.C_radius)
    assert x0.size == inst.param_count
    assert y0.size == 100
    prob = mlp_problem(inst)
    assert math.isfinite(prob.g.value(x0))


def test_mlp_h_image_bound_holds_on_box_samples():
    inst = mlp_generate(0, layer_dims=(5, 4, 1), n_samples=12)
    prob = mlp_problem(inst)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v = rng.uniform(-inst.C_radius, inst.C_radius, inst.param_count)
        hv = prob.h.value(np.asarray(prob.c.value(v)))
        assert hv <= prob.h_sup_on_image_bound + 1e-12
        assert abs(prob.f.value(v) + prob.g.value(v)) <= mlp_sup_abs_fg(inst) + 1e-9


def test_mlp_validation():
    with pytest.raises(ValueError, match="end in 1"):
        mlp_generate(0, layer_dims=(4, 3))
    with pytest.raises(ValueError):
        mlp_generate(0, n_samples=0)
    with pytest.raises(ValueError):
        mlp_generate(0, p=1.0)
    with pytest.raises(ValueError):
        mlp_generate(0, activation="relu")
    for dims in ((6, 4.9, 1.7), (6, True, 1), (6.0, 4, 1)):  # not truncated to ints
        with pytest.raises(ValueError, match="layer_dims entries must be integers"):
            mlp_generate(0, layer_dims=dims)


def test_mlp_reproducible():
    a = mlp_generate(5, layer_dims=(6, 4, 1), n_samples=8)
    b = mlp_generate(5, layer_dims=(6, 4, 1), n_samples=8)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)
    assert a.C_radius == b.C_radius


# --- serialization round trip ---------------------------------------------------


def _assert_instances_equal(a, b):
    assert type(a) is type(b)
    import dataclasses

    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, np.ndarray):
            np.testing.assert_array_equal(va, vb, err_msg=field.name)
        else:
            assert va == vb, field.name


@pytest.mark.parametrize("family", ["qcqp", "mimo", "mlp"])
def test_round_trip_exact(tmp_path, family):
    if family == "qcqp":
        inst = qcqp_generate(3, n=5, m=2)
    elif family == "mimo":
        inst = mimo_generate(3, n=3, m=6)
    else:
        inst = mlp_generate(3, layer_dims=(5, 3, 1), n_samples=7)
    path = tmp_path / f"{family}.json"
    save_instance(inst, str(path))
    again = load_instance(str(path))
    _assert_instances_equal(inst, again)
    # serialization is deterministic: a second write is byte-identical
    path2 = tmp_path / f"{family}_2.json"
    save_instance(again, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_bad_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 2, "family": "qcqp", "seed": 0, "params": {}, "data": {}}')
    with pytest.raises(ValueError, match="format_version"):
        load_instance(str(bad))
    bad.write_text('{"format_version": 1, "family": "lp", "seed": 0, "params": {}, "data": {}}')
    with pytest.raises(ValueError, match="unknown family"):
        load_instance(str(bad))
    bad.write_text('{"format_version": 1, "family": "qcqp", "seed": 0, "params": {}, "data": {}}')
    with pytest.raises(ValueError, match="missing field"):
        load_instance(str(bad))
