import argparse
import concurrent.futures
import hashlib
import json
import math
import os

import numpy as np
import pytest

import sdcam.cli
from sdcam.cli import CSV_HEADER, _openblas, _write_summary, main
from sdcam.problems import FAMILIES, family_of, load_instance, save_instance
from sdcam.solver import SolveResult, TraceRow


def _cfg(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "seed": 1,
        "problem": {"family": "qcqp", "n": 8, "m": 2},
        "solver": {"max_successful_iters": 30},
        "schedule": {"beta0": 1.0, "delta": 0.3},
        "output": {
            "trace": str(tmp_path / "trace.csv"),
            "summary": str(tmp_path / "summary.json"),
        },
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_run_writes_trace_and_summary(tmp_path, capsys):
    path, cfg = _cfg(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 31  # header + 30 accepted steps
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "iteration budget"
    assert summary["total_trials"] == (
        summary["successful_iters"] + summary["total_unsuccessful"]
    )
    assert summary["rate_bound_check"]["regime"] == "bounded_domains"
    assert summary["rate_bound_check"]["passed"] is True
    assert summary["final"]["rel_feas"] is not None


def test_run_byte_deterministic(tmp_path):
    path, _ = _cfg(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    first = (tmp_path / "trace.csv").read_bytes()
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "trace.csv").read_bytes() == first


# sha256 of the trace and the summary of four fixed runs (200 accepted steps,
# beta0 1, the family's solver defaults updated by the given keys).  A refactor
# or a speed-up must keep them.  "mimo-backtrack" has the solver settings of
# the mimo-8x16-backtrack benchmark workload, where most trials are rejected.
_FIXED_RUNS = {
    "qcqp": (
        1, {"family": "qcqp", "n": 20, "m": 5}, {}, 0.3,
        "cae991af597cf0b7ba30b537610caf55f41f73efa6afb5ef65f952bb64f3a235",
        "f17dcd212fe959e6a9a07098f1ca9f40866e1d7ba4f1d7885b12cb356bacf1ed",
    ),
    "mimo": (
        0, {"family": "mimo", "n": 8, "m": 16}, {}, 1.0 / 3.0,
        "7d71317cb4ca6055da4245db96a573bad400faaadec2f132975034cb380377ea",
        "9166dd78f15aad76c7008c5bd607c2f13960e7b2f87cbb22679a5bb6bb0c79a9",
    ),
    "mlp": (
        0, {"family": "mlp"}, {}, 0.5,
        "4505c541b013e78aba2d6e3339eaebd55200d852db39be23f9ba30e050dfcda2",
        "73700aead5c26544dd6943a2d04eb232ee097c6e8e136d9cd77602c1ba5a2420",
    ),
    "mimo-backtrack": (
        0, {"family": "mimo", "n": 8, "m": 16}, {"rho": 0.9, "eta": 2.0, "mu_init": 1.0},
        1.0 / 3.0,
        "968c198b15d3438cb9bc86a2c0ad0d746230f8292f89ac1b92d00e1fe4cb3712",
        "a3bca08968fa2ee966d5e2042fe310fbd92a821fe47a10074d019e72d77a148f",
    ),
}


@pytest.mark.parametrize("name", sorted(_FIXED_RUNS))
def test_fixed_run_trace_and_summary_digests(tmp_path, name):
    seed, problem, solver, delta, trace_sha, summary_sha = _FIXED_RUNS[name]
    path, _ = _cfg(
        tmp_path,
        seed=seed,
        problem=problem,
        solver={"max_successful_iters": 200, **solver},
        schedule={"beta0": 1.0, "delta": delta},
    )
    assert main(["run", "--config", str(path)]) == 0
    got = [
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for f in ("trace.csv", "summary.json")
    ]
    assert got == [trace_sha, summary_sha], (
        f"{name}: the trace or summary bits changed.  Only a numerics change may "
        "do that; it must update these digests and explain the change in CHANGES.md."
    )


def test_run_rejects_unknown_keys(tmp_path, capsys):
    path, cfg = _cfg(tmp_path)
    cfg["problem"]["surprise"] = 1
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1
    assert "unknown key" in capsys.readouterr().err
    cfg["problem"].pop("surprise")
    cfg["turbo"] = True
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1


def test_run_stop_eps(tmp_path, capsys):
    # MIMO's check instance at delta 1/3 certifies (0.1, 0.1, 0.1) within 1000 steps.
    path, cfg = _cfg(
        tmp_path,
        seed=0,
        problem={"family": "mimo", "n": 6, "m": 12},
        solver={"max_successful_iters": 1000, "stop_eps": 0.1},
        schedule={"beta0": 1.0, "delta": 1.0 / 3.0},
    )
    assert main(["run", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["successful_iters"] < 1000
    cfg["solver"] = {"max_successful_iters": 30, "stop_residual": 1e-6}
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "stop_residual" in err and "stop_eps" in err


def test_run_rejects_bad_schema_version(tmp_path):
    path, cfg = _cfg(tmp_path)
    cfg["schema_version"] = 99
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1


def test_run_rejects_missing_required_key(tmp_path):
    path, cfg = _cfg(tmp_path)
    del cfg["schedule"]
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 1


def test_run_missing_config_file(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1


def test_run_mimo_defaults_leave_rel_feas_empty(tmp_path):
    path, cfg = _cfg(tmp_path, problem={"family": "mimo", "n": 3, "m": 6})
    assert main(["run", "--config", str(path)]) == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[1].endswith(",")  # empty rel_feas field
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["rate_bound_check"]["regime"] == "lipschitz_h"
    assert summary["final"]["rel_feas"] is None


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "beta0, delta, unavailable, skipped",
    [
        # lambda6 = ... + 8*eta0**2*... overflows in rate_constants
        (1e300, 1.0 / 3.0, ["lambda6"], ["avg_residual_sq", "min_residual_gap"]),
        # eta0**2 overflows in the avg_residual_sq bound of rate_bound_check
        (1e305, 0.6, ["lambda2", "lambda7", "lambda8"], ["avg_residual_sq", "min_residual_gap"]),
    ],
)
def test_run_with_huge_beta0_writes_strict_summary(tmp_path, beta0, delta, unavailable, skipped):
    path, _ = _cfg(
        tmp_path,
        seed=0,
        problem={"family": "mimo", "n": 8, "m": 16},
        solver={"max_successful_iters": 20},
        schedule={"beta0": beta0, "delta": delta},
    )
    assert main(["run", "--config", str(path)]) == 0
    report = _strict_json((tmp_path / "summary.json").read_text())["rate_bound_check"]
    for name in unavailable:
        assert report["provenance"][name] == "unavailable"
        assert report["constants"][name] is None
    for value in report["constants"].values():
        assert value is None or np.isfinite(value)
    assert report["skipped"] == skipped
    assert report["checked"] > 0 and report["passed"] is True


def _huge_beta0_qcqp(tmp_path, beta0, delta, **overrides):
    path, _ = _cfg(
        tmp_path,
        seed=3,
        problem={"family": "qcqp", "n": 10, "m": 3},
        schedule={"beta0": beta0, "delta": delta},
        **overrides,
    )
    return path


def test_run_qcqp_prox_overflow_is_silent(tmp_path, capsys):
    # The lp-prox objective overflows at this beta0; it must not warn (the
    # suite turns RuntimeWarnings into errors), and every trial is rejected.
    # A run without an accepted step still writes its files, then exits 2.
    path = _huge_beta0_qcqp(tmp_path, 1e300, 1.0 / 3.0)
    assert main(["run", "--config", str(path)]) == 2
    assert "error: numerical failure: no accepted step in 1500 trials (trial budget)" in (
        capsys.readouterr().err
    )
    assert (tmp_path / "trace.csv").read_text().splitlines() == [CSV_HEADER]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "trial budget"
    assert summary["successful_iters"] == 0


def test_run_qcqp_accepted_residual_overflow_is_silent(tmp_path, capsys):
    # With rho = 0.5 a trial is accepted at this beta0, and its residual
    # overflows.  That is a numerical failure, exit 2 with the error line
    # alone: no RuntimeWarning (the suite turns them into errors).
    path = _huge_beta0_qcqp(tmp_path, 1e300, 1.0 / 3.0, solver={
        "max_successful_iters": 5, "rho": 0.5, "max_total_trials": 2000,
    })
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: numerical failure: residual = inf is not finite at t=0\n"
    )


def test_run_qcqp_mu_overflow_exits_2(tmp_path, capsys):
    # eta = mu_max = inf: the first accepted step sends mu to inf, and g.prox
    # cannot take the step mu/2 = inf.  That is a numerical failure of the run,
    # not a usage error, so it exits 2 and names mu.
    path, _ = _cfg(tmp_path, solver={"max_successful_iters": 5, "eta": math.inf,
                                     "mu_max": math.inf})
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure: g.prox rejected its step mu/2 at mu=inf")


def test_run_qcqp_non_finite_v_exits_2(tmp_path, capsys):
    # beta_t * J_c^T (c - y) overflows: the run fails at v, naming v and beta_t,
    # instead of passing inf into g.prox and blaming the acceptance margins.
    # The failure is reported once, by the error line.
    path = _huge_beta0_qcqp(tmp_path, 1e305, 0.6)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("numerical failure") == 1
    assert "v = grad f(x) + beta_t * J_c(x)^T (c(x) - y) is not finite" in err
    assert "beta_t=1e+305" in err


def test_run_mu_beta_underflow_exits_2(tmp_path, capsys):
    # mu_init * beta0 = 1e-330 underflows to 0, so 1/(mu*beta_t) in (i) cannot
    # be formed: a numerical failure with one error line, not a traceback.
    path, _ = _cfg(tmp_path, problem={"family": "mimo", "n": 8, "m": 16},
                   solver={"max_successful_iters": 5, "mu_init": 1e-300},
                   schedule={"beta0": 1e-30, "delta": 0.3})
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: numerical failure: mu is too small to invert: mu*beta_t = 1e-300*1e-30 is 0\n"
    )


def test_summary_writes_non_finite_floats_as_null(tmp_path):
    inf, nan = float("inf"), float("nan")
    row = TraceRow(
        t=0, mu_t=1.0, beta_t=1.0, step_norm=inf, scaled_step=1.0, gap=nan,
        prev_gap=0.0, residual=0.0, fg_value=0.0, h_at_y=0.0, H_value=0.0,
        Theta_value=None, unsuccessful_this_iter=0,
    )
    result = SolveResult(
        x=np.zeros(1), y=np.zeros(1), t=1, status="iteration budget", trace=[row],
        anchors=None, total_trials=1, total_unsuccessful=0, condition_margins=[],
    )
    report = {"violations": [{"inequality": "avg_step2", "t": 1, "lhs": inf, "rhs": 1.0}]}
    path = tmp_path / "summary.json"
    _write_summary(str(path), result, report)
    doc = _strict_json(path.read_text())
    assert doc["final"]["step_norm"] is None and doc["final"]["gap"] is None
    assert doc["final"]["scaled_step"] == 1.0
    assert doc["rate_bound_check"]["violations"][0] == {
        "inequality": "avg_step2", "t": 1, "lhs": None, "rhs": 1.0,
    }


def test_run_from_instance_file(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert main([
        "gen", "--family", "qcqp", "--n", "8", "--m", "2", "--seed", "1",
        "--out", str(inst_path),
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sha256 ")
    path, _ = _cfg(tmp_path, problem={"instance": str(inst_path)})
    assert main(["run", "--config", str(path)]) == 0


def test_gen_digest_is_stable(tmp_path, capsys):
    digests = []
    for name in ("a.json", "b.json"):
        assert main([
            "gen", "--family", "mimo", "--n", "3", "--m", "5", "--seed", "4",
            "--out", str(tmp_path / name),
        ]) == 0
        digests.append(capsys.readouterr().out.split()[1])
    assert digests[0] == digests[1]


def test_gen_qcqp_digest_is_pinned(tmp_path, capsys):
    assert main([
        "gen", "--family", "qcqp", "--seed", "1", "--n", "20", "--m", "5",
        "--out", str(tmp_path / "q.json"),
    ]) == 0
    digest = capsys.readouterr().out.split()[1]
    assert digest == "ddc451a2a7c719c7f852bfd28b458f911ad398f4d2cf955f375a0d6354389801"


def test_gen_rejects_keys_the_family_does_not_take(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main([
        "gen", "--family", "mimo", "--n", "3", "--m", "5", "--seed", "0",
        "--p", "0.7", "--alpha", "9", "--out", str(out),
    ]) == 1
    assert "unknown key(s) ['alpha', 'p'] in problem" in capsys.readouterr().err
    assert not out.exists()


def test_gen_takes_one_flag_per_problem_key_of_the_family_table():
    parser = sdcam.cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        flag
        for action in sub.choices["gen"]._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    keys = {key for fam in FAMILIES.values() for key in fam.problem_keys()}
    assert flags == {"--family", "--seed", "--out"} | {"--" + k.replace("_", "-") for k in keys}


def test_gen_usage_errors(tmp_path, capsys):
    assert main([
        "gen", "--family", "qcqp", "--n", "1", "--m", "1", "--seed", "0",
        "--out", str(tmp_path / "x.json"),
    ]) == 1
    assert "n >= 2" in capsys.readouterr().err
    assert main([
        "gen", "--family", "qcqp", "--seed", "0", "--out", str(tmp_path / "x.json"),
    ]) == 1
    capsys.readouterr()
    assert main([
        "gen", "--family", "mlp", "--seed", "0", "--activation", "relu",
        "--out", str(tmp_path / "x.json"),
    ]) == 1
    assert capsys.readouterr().err == "usage error: activation must be one of ('tanh', 'sigmoid')\n"


def test_argparse_errors_map_to_usage_exit_code(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["run"]) == 1  # missing --config


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_table_gen_load_and_check(tmp_path, capsys, name):
    fam = FAMILIES[name]
    flags = []
    for key, value in fam.check_kwargs.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        flags += ["--" + key.replace("_", "-"), text]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["gen", "--family", name, "--seed", "0", "--out", str(first)] + flags) == 0
    inst = load_instance(str(first))
    assert type(inst) is fam.instance_type
    assert family_of(inst) is fam
    assert json.loads(first.read_text())["family"] == name
    save_instance(inst, str(second))
    assert second.read_bytes() == first.read_bytes()
    assert main(["check", "--instance", str(first)]) == 0
    assert main(["check", "--family", name, "--seed", "0"]) == 0
    assert capsys.readouterr().out.count(f"oracle checks ({name}, 10 points): pass") == 2


@pytest.mark.parametrize(
    "name, key, value",
    [
        ("mimo", "r_lo", 2.0),
        ("mimo", "p_psk", 1),
        ("mlp", "lam", -1.0),
        ("mlp", "layer_dims", (8, 5.5, 3, 1)),
    ],
)
def test_instance_file_gets_the_generators_parameter_checks(tmp_path, capsys, name, key, value):
    # An edited instance file must fail as the generator would on that
    # parameter, not later at x0 or inside a prox, nor run to exit 0.
    fam = FAMILIES[name]
    with pytest.raises(ValueError) as expected:
        fam.generate(0, **{**fam.check_kwargs, key: value})
    inst = tmp_path / "inst.json"
    save_instance(fam.generate(0, **fam.check_kwargs), str(inst))
    doc = json.loads(inst.read_text())
    doc["params"][key] = value
    inst.write_text(json.dumps(doc))
    run_cfg = _cfg(tmp_path, problem={"instance": str(inst)})[0]
    for argv in (["run", "--config", str(run_cfg)], ["check", "--instance", str(inst)]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: {expected.value}\n"


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_check_points_lie_in_dom_g(monkeypatch, name):
    # The M_c check runs only where g is finite, so all ten points must be there.
    seen = []

    def verify(problem, points, seed=0):
        seen.append((problem, points))
        return []

    monkeypatch.setattr(sdcam.cli, "verify_problem_oracles", verify)
    for seed in range(3):
        assert main(["check", "--family", name, "--seed", str(seed)]) == 0
    assert len(seen) == 3
    for problem, points in seen:
        assert len(points) == 10
        assert all(math.isfinite(problem.g.value(x)) for x in points)


def test_check_requires_target(tmp_path, capsys):
    assert main(["check"]) == 1
    # --family must not be silently ignored beside an instance of another family
    inst = tmp_path / "q.json"
    assert main(["gen", "--family", "qcqp", "--n", "4", "--m", "2", "--seed", "0",
                 "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["check", "--family", "mimo", "--instance", str(inst)]) == 1
    assert capsys.readouterr().err == (
        "usage error: argument --instance: not allowed with argument --family\n")


def test_subseq_roundtrip(tmp_path):
    path, _ = _cfg(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    out = tmp_path / "sel.csv"
    assert main([
        "subseq", "--trace", str(tmp_path / "trace.csv"),
        "--column", "step_norm_sq", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "T,a_T,b_T_minus_1"
    # every selected row certifies a_T <= b_{T-1}
    for line in lines[1:]:
        _, a_T, b_prev = line.split(",")
        assert float(a_T) <= float(b_prev) * (1 + 1e-12) + 1e-15


def test_subseq_hand_built_trace(tmp_path):
    # step_norm column sqrt(4,2,3,1) -> squares (4,2,3,1) -> selected {2,3,4}
    trace = tmp_path / "t.csv"
    rows = [CSV_HEADER]
    for t, s2 in enumerate([4.0, 2.0, 3.0, 1.0]):
        s = float(np.sqrt(s2))
        rows.append(f"{t},1,1,{s!r},{s!r},0,0,0,0,0,0,0,0,")
    trace.write_text("\n".join(rows) + "\n")
    out = tmp_path / "sel.csv"
    assert main(["subseq", "--trace", str(trace), "--column", "step_norm_sq",
                 "--out", str(out)]) == 0
    selected = [int(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    assert selected == [2, 3, 4]


def test_subseq_errors(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text(CSV_HEADER + "\n")
    assert main(["subseq", "--trace", str(trace), "--column", "step_norm_sq",
                 "--out", str(tmp_path / "o.csv")]) == 1  # empty trace
    trace.write_text(CSV_HEADER + "\n0,1,1,1,1,0,0,0,0,0,0,0,0,\n")
    assert main(["subseq", "--trace", str(trace), "--column", "gap",
                 "--out", str(tmp_path / "o.csv")]) == 1  # invalid column


def test_sweep_runs_all_configs(tmp_path):
    p1, _ = _cfg(tmp_path)
    cfg2 = {
        "schema_version": 1,
        "seed": 2,
        "problem": {"family": "qcqp", "n": 8, "m": 2},
        "solver": {"max_successful_iters": 10},
        "schedule": {"beta0": 1.0, "delta": 0.3},
        "output": {"trace": str(tmp_path / "trace_b.csv")},
    }
    p2 = tmp_path / "cfg2.json"
    p2.write_text(json.dumps(cfg2))
    # on the pool, each config writes the bytes that its own run writes
    outputs = [tmp_path / name for name in ("trace.csv", "summary.json", "trace_b.csv",
                                            "trace_b.csv.summary.json")]
    assert main(["run", "--config", str(p1)]) == 0
    assert main(["run", "--config", str(p2)]) == 0
    single = [path.read_bytes() for path in outputs]
    for path in outputs:
        path.unlink()
    assert main(["run", "--config", str(p1), str(p2), "--workers", "2"]) == 0
    assert [path.read_bytes() for path in outputs] == single


def test_sweep_exits_with_the_largest_code_and_names_the_failing_config(tmp_path, capsys):
    (tmp_path / "ok").mkdir()
    (tmp_path / "bad").mkdir()
    ok = _cfg(tmp_path / "ok")[0]
    bad = _huge_beta0_qcqp(tmp_path / "bad", 1e305, 0.6)  # exits 2 on its own
    assert main(["run", "--config", str(ok), str(bad), "--workers", "2"]) == 2
    assert capsys.readouterr().err == f"error: config {bad} exited with code 2\n"


def test_sweep_names_a_config_with_a_usage_error_and_runs_the_others(tmp_path, capsys):
    (tmp_path / "ok").mkdir()
    (tmp_path / "bad").mkdir()
    ok = _cfg(tmp_path / "ok")[0]
    bad = _cfg(tmp_path / "bad", extra=1)[0]  # exits 1 on its own
    assert main(["run", "--config", str(bad), str(ok), "--workers", "2"]) == 1
    assert capsys.readouterr().err == f"error: config {bad} exited with code 1\n"
    assert (tmp_path / "ok" / "summary.json").exists()


@pytest.mark.parametrize(
    "flags, expected",
    [(["--workers", "64"], 2), (["--workers", "1"], 1), ([], min(os.cpu_count() or 1, 2))],
)
def test_sweep_pool_has_no_more_workers_than_configs(tmp_path, monkeypatch, flags, expected):
    # a fork-started pool forks all of its workers at once; an in-process
    # stand-in records the pool size, so this test starts no process
    sizes = []

    class InlinePool:
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    paths = []
    for k in range(2):
        (tmp_path / str(k)).mkdir()
        paths.append(str(_cfg(tmp_path / str(k), seed=k, solver={"max_successful_iters": 5})[0]))
    assert main(["run", "--config", *paths, *flags]) == 0
    assert sizes == [expected]
    assert (tmp_path / "0" / "trace.csv").exists() and (tmp_path / "1" / "trace.csv").exists()


def _openblas_threads():
    fns = _openblas()
    return None if fns is None else fns[0]()


@pytest.mark.skipif(_openblas_threads() is None, reason="NumPy has no OpenBLAS")
def test_sweep_workers_share_the_cpus_as_openblas_threads(tmp_path, monkeypatch):
    # two workers on os.cpu_count() CPUs run max(1, cpus // 2) OpenBLAS
    # threads each, whatever count the parent, which keeps its own, runs
    seen = []

    class ProbingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, items):
            seen.append(self.submit(_openblas_threads).result(timeout=60))
            return super().map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ProbingPool)
    paths = []
    for k in range(2):
        (tmp_path / str(k)).mkdir()
        paths.append(str(_cfg(tmp_path / str(k), seed=k)[0]))
    get, set_ = _openblas()
    saved = get()
    set_(3)
    try:
        assert main(["run", "--config", *paths, "--workers", "2"]) == 0
        assert get() == 3
    finally:
        set_(saved)
    assert seen == [max(1, (os.cpu_count() or 1) // 2)]


def test_sweep_with_no_workers_is_usage_error(tmp_path):
    path, _ = _cfg(tmp_path)
    assert main(["run", "--config", str(path), str(path), "--workers", "0"]) == 1


def test_run_with_no_workers_is_usage_error_for_one_config_too(tmp_path, capsys):
    path, _ = _cfg(tmp_path)
    assert main(["run", "--config", str(path), "--workers", "0"]) == 1
    assert capsys.readouterr().err == "usage error: --workers must be at least 1, got 0\n"
    assert not (tmp_path / "trace.csv").exists()


def test_csv_floats_have_17_significant_digits(tmp_path):
    path, _ = _cfg(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    line = (tmp_path / "trace.csv").read_text().splitlines()[1]
    fields = line.split(",")
    # round-trip: parsing and re-formatting at 17 significant digits is lossless
    for field in fields[1:12]:
        assert field == format(float(field), ".17g")


def _drop_seed(doc):
    del doc["seed"]
    return doc


def _drop_params(doc):
    del doc["params"]
    return doc


def _drop_data_shape(doc):
    del doc["data"]["Q"]["shape"]
    return doc


def _scale_q0(doc):
    doc["data"]["Q0"]["values"] = (0.25 * np.asarray(doc["data"]["Q0"]["values"])).tolist()
    return doc


def _set_param(key, value):
    def malform(doc):
        doc["params"][key] = value
        return doc
    return malform


def _skew_q(doc):
    doc["data"]["Q"]["values"][0][0][1] += 1.0
    return doc


def _set_entry(key, value):
    """Set the first entry of instance array ``key``; in Q that is a diagonal
    entry, so the blocks stay symmetric wherever NaN == NaN would hold."""
    def malform(doc):
        values = doc["data"][key]["values"]
        while isinstance(values[0], list):
            values = values[0]
        values[0] = value
        return doc
    return malform


def _set_data(key, part, value):
    """Set the ``shape`` or ``values`` of data entry ``key``."""
    def malform(doc):
        doc["data"][key][part] = value
        return doc
    return malform


def _add_entry(section, key, value):
    def malform(doc):
        doc[section][key] = value
        return doc
    return malform


def _set_ri(value):
    def malform(doc):
        doc["data"]["ri"]["values"] = [value] * len(doc["data"]["ri"]["values"])
        return doc
    return malform


@pytest.mark.parametrize(
    "command, malform",
    [
        pytest.param("check", _drop_seed, id="check-no-seed"),
        pytest.param("run", _drop_seed, id="run-no-seed"),
        pytest.param("check", _drop_params, id="check-no-params"),
        pytest.param("run", lambda doc: [doc], id="run-list"),
        pytest.param("subseq", None, id="subseq-no-step-norm"),
        pytest.param("config", {"problem": 5}, id="config-problem-not-object"),
        pytest.param("config", {"problem": {"family": "qcqp", "n": "5", "m": 2}},
                     id="config-problem-key-type"),
        pytest.param("config", {"schedule": 7}, id="config-schedule-not-object"),
        pytest.param("config", {"solver": {"max_successful_iters": "5"}},
                     id="config-solver-key-type"),
        pytest.param("config", {"output": {"trace": 1}}, id="config-trace-int"),
        pytest.param("config", {"output": {"trace": ["x"]}}, id="config-trace-list"),
        pytest.param("config", {"output": {"trace": "t.csv", "summary": 7}},
                     id="config-summary-int"),
        pytest.param("config", {"problem": {"instance": ["inst.json"]}},
                     id="config-instance-list"),
        pytest.param("config", {"seed": True}, id="config-seed-bool"),
        pytest.param("config", {"seed": -1}, id="config-seed-negative"),
        pytest.param("argv", ["check", "--family", "mimo", "--seed", "-1"],
                     id="check-seed-negative"),
        pytest.param("check", _drop_data_shape, id="check-data-no-shape"),
        pytest.param("check", lambda doc: {**doc, "params": 5}, id="check-params-not-object"),
        pytest.param("check", lambda doc: {**doc, "data": 5}, id="check-data-not-object"),
        pytest.param("check", lambda doc: {**doc, "seed": "x"}, id="check-seed-not-integer"),
        pytest.param("run", lambda doc: {**doc, "params": {**doc["params"], "n": "4"}},
                     id="run-param-type"),
        # xbar ~ 1e250 overflows the offsets ri to NaN
        pytest.param("config", {"seed": 3, "problem": {"family": "qcqp", "n": 10, "m": 3,
                                                       "p": 0.99, "scale0": 1e250}},
                     id="config-qcqp-ri-not-finite"),
        pytest.param("run", _set_ri(float("nan")), id="run-ri-nan"),
        pytest.param("run", _set_entry("b0", float("nan")), id="run-b0-nan"),
        pytest.param("check", _set_entry("b0", float("nan")), id="check-b0-nan"),
        pytest.param("run", _set_entry("Q", float("inf")), id="run-Q-inf"),
        pytest.param("run", _set_entry("Q", float("nan")), id="run-Q-nan"),
        pytest.param("run", _set_entry("bi", float("inf")), id="run-bi-inf"),
        pytest.param("run", _set_entry("xbar", float("nan")), id="run-xbar-nan"),
        pytest.param("run", _set_ri(0.5), id="run-ri-positive"),
        pytest.param("run", _scale_q0, id="run-q0-not-identity"),
        pytest.param("run", _skew_q, id="run-q-asymmetric"),
        pytest.param("run", _set_param("alpha", -1.0), id="run-alpha-negative"),
        pytest.param("run", _set_param("r", 0.0), id="run-r-zero"),
        pytest.param("check", lambda doc: {**doc, "extra": 1}, id="check-top-names-extra"),
        pytest.param("run", lambda doc: {**doc, "extra": 1}, id="run-top-names-extra"),
        pytest.param("run", _set_param("surprise", 1), id="run-params-names-surprise"),
        pytest.param("check", _add_entry("data", "Z", {"shape": [1], "values": [0.0]}),
                     id="check-data-names-Z"),
        pytest.param("run", _set_param("seed", 0), id="run-params-names-seed"),
        pytest.param("check", _add_entry("data", "seed", {"shape": [], "values": 0}),
                     id="check-data-names-seed"),
        pytest.param("run", _set_param("b0", [0.0] * 4), id="run-twice-names-b0"),
        pytest.param("config", {"assert_level": "full"}, id="config-names-assert_level"),
        pytest.param("config", {"solver": {"max_successful_iters": 2.5}},
                     id="config-float-names-max_successful_iters"),
        pytest.param("config", {"solver": {"max_successful_iters": True}},
                     id="config-bool-names-max_successful_iters"),
        pytest.param("config", {"solver": {"max_successful_iters": 5, "max_total_trials": 7.5}},
                     id="config-float-names-max_total_trials"),
        pytest.param("config", {"schedule": {"family": "blocked", "beta0": 1.0, "delta": 0.3,
                                             "K": 2.5}}, id="config-float-names-K"),
        pytest.param("config", {"schedule": {"beta0": True, "delta": 0.3}},
                     id="config-bool-names-beta0"),
        pytest.param("config", {"solver": {"max_successful_iters": 5, "eta": True}},
                     id="config-bool-names-eta"),
        pytest.param("config", {"solver": {"max_successful_iters": 5, "eta": math.nan}},
                     id="config-nan-names-eta"),
        pytest.param("config", {"schedule": {"beta0": math.nan, "delta": 0.3}},
                     id="config-nan-names-beta0"),
        pytest.param("config", {"problem": {"family": "mlp", "source": "synthetic"}},
                     id="config-mlp-names-source"),
        pytest.param("config", {"problem": {"family": "mlp", "layer_dims": [20, 8.5, 4, 1]}},
                     id="config-float-names-layer_dims"),
        pytest.param("run:mimo", _set_data("A", "shape", "x"), id="run-shape-str-names-A"),
        pytest.param("check:mimo", _set_data("A", "shape", [1.5]), id="check-shape-float-names-A"),
        pytest.param("run:mimo", _set_data("A", "shape", None), id="run-shape-null-names-A"),
        pytest.param("run:mimo", _set_data("A", "values", {"a": 1}), id="run-values-dict-names-A"),
        pytest.param("run:mimo", _set_entry("A", float("nan")), id="run-A-nan"),
        pytest.param("check:mimo", _set_entry("yhat", float("inf")), id="check-yhat-inf"),
        pytest.param("run:mlp", _set_entry("features", float("nan")), id="run-features-nan"),
        pytest.param("check:mlp", _set_entry("targets", float("nan")), id="check-targets-nan"),
    ],
)
def test_malformed_inputs_exit_with_usage_error(tmp_path, capsys, request, command, malform):
    if command == "argv":
        argv = malform
    elif command == "config":
        argv = ["run", "--config", str(_cfg(tmp_path, **malform)[0])]
    elif command == "subseq":
        trace = tmp_path / "t.csv"
        trace.write_text("t,scaled_step\n1,0.5\n")
        argv = ["subseq", "--trace", str(trace), "--column", "step_norm_sq",
                "--out", str(tmp_path / "o.csv")]
    else:
        # "run" edits a QCQP 4x2 instance, "run:mimo" the `sdcam check` MIMO one
        command, _, family = command.partition(":")
        fam = FAMILIES[family or "qcqp"]
        inst = tmp_path / "inst.json"
        save_instance(fam.generate(0, **(fam.check_kwargs if family else {"n": 4, "m": 2})), inst)
        inst.write_text(json.dumps(malform(json.loads(inst.read_text()))))
        if command == "check":
            argv = ["check", "--instance", str(inst)]
        else:
            argv = ["run", "--config", str(_cfg(tmp_path, problem={"instance": str(inst)})[0])]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    case = request.node.callspec.id
    if "seed" in case:
        assert "seed" in err
    if "-names-" in case:  # the message names the key that ends the case id
        assert case.rsplit("-names-", 1)[1] in err
    for field in ("b0", "Q", "bi", "xbar", "A", "yhat", "features", "targets"):
        if f"-{field}-" in case:
            assert f"usage error: {field} must be finite" in err
