import json

import numpy as np
import pytest

from sdcam.cli import CSV_HEADER, _write_summary, main
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


def _huge_beta0_qcqp(tmp_path, beta0, delta):
    path, _ = _cfg(
        tmp_path,
        seed=3,
        problem={"family": "qcqp", "n": 10, "m": 3},
        schedule={"beta0": beta0, "delta": delta},
    )
    return path


def test_run_qcqp_prox_overflow_is_silent(tmp_path):
    # The lp-prox objective overflows at this beta0; it must not warn (the
    # suite turns RuntimeWarnings into errors), and every trial is rejected.
    path = _huge_beta0_qcqp(tmp_path, 1e300, 1.0 / 3.0)
    assert main(["run", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "trial budget"
    assert summary["successful_iters"] == 0


def test_run_qcqp_non_finite_v_exits_2(tmp_path, capsys):
    # beta_t * J_c^T (c - y) overflows: the run fails at v, naming v and beta_t,
    # instead of passing inf into g.prox and blaming the acceptance margins.
    path = _huge_beta0_qcqp(tmp_path, 1e305, 0.6)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "v = grad f(x) + beta_t * J_c(x)^T (c(x) - y) is not finite" in err
    assert "beta_t=1e+305" in err


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


def test_gen_rejects_keys_the_family_does_not_take(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main([
        "gen", "--family", "mimo", "--n", "3", "--m", "5", "--seed", "0",
        "--p", "0.7", "--alpha", "9", "--out", str(out),
    ]) == 1
    assert "unknown key(s) ['alpha', 'p'] in problem" in capsys.readouterr().err
    assert not out.exists()


def test_gen_usage_errors(tmp_path, capsys):
    assert main([
        "gen", "--family", "qcqp", "--n", "1", "--m", "1", "--seed", "0",
        "--out", str(tmp_path / "x.json"),
    ]) == 1
    assert "n >= 2" in capsys.readouterr().err
    assert main([
        "gen", "--family", "qcqp", "--seed", "0", "--out", str(tmp_path / "x.json"),
    ]) == 1


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
    assert main(["check", "--instance", str(first), "--prox-instances", "20"]) == 0
    assert main(["check", "--family", name, "--seed", "0", "--prox-instances", "20"]) == 0
    assert capsys.readouterr().out.count(f"oracle checks ({name}, 10 points): pass") == 2


def test_check_requires_target():
    assert main(["check"]) == 1


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
    assert main(["run", "--config", str(p1), str(p2), "--sweep", "--workers", "2"]) == 0
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "trace_b.csv").exists()
    assert (tmp_path / "trace_b.csv.summary.json").exists()


def test_multiple_configs_without_sweep_is_usage_error(tmp_path):
    p1, _ = _cfg(tmp_path)
    assert main(["run", "--config", str(p1), str(p1)]) == 1


def test_env_log_level_validation(tmp_path, monkeypatch):
    monkeypatch.setenv("SDCAM_LOG_LEVEL", "verbose")
    p1, _ = _cfg(tmp_path)
    assert main(["run", "--config", str(p1)]) == 1


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


@pytest.mark.parametrize(
    "command, malform",
    [
        ("check", _drop_seed),
        ("run", _drop_seed),
        ("check", _drop_params),
        ("run", lambda doc: [doc]),
        ("subseq", None),
        ("config", {"problem": 5}),
        ("config", {"problem": {"family": "qcqp", "n": "5", "m": 2}}),
        ("config", {"schedule": 7}),
        ("config", {"solver": {"max_successful_iters": "5"}}),
        ("check", _drop_data_shape),
        ("check", lambda doc: {**doc, "params": 5}),
        ("check", lambda doc: {**doc, "data": 5}),
        ("check", lambda doc: {**doc, "seed": "x"}),
    ],
    ids=[
        "check-no-seed",
        "run-no-seed",
        "check-no-params",
        "run-list",
        "subseq-no-step-norm",
        "config-problem-not-object",
        "config-problem-key-type",
        "config-schedule-not-object",
        "config-solver-key-type",
        "check-data-no-shape",
        "check-params-not-object",
        "check-data-not-object",
        "check-seed-not-integer",
    ],
)
def test_malformed_inputs_exit_with_usage_error(tmp_path, capsys, command, malform):
    if command == "config":
        argv = ["run", "--config", str(_cfg(tmp_path, **malform)[0])]
    elif command == "subseq":
        trace = tmp_path / "t.csv"
        trace.write_text("t,scaled_step\n1,0.5\n")
        argv = ["subseq", "--trace", str(trace), "--column", "step_norm_sq",
                "--out", str(tmp_path / "o.csv")]
    else:
        inst = tmp_path / "inst.json"
        assert main(["gen", "--family", "qcqp", "--n", "4", "--m", "2", "--seed", "0",
                     "--out", str(inst)]) == 0
        inst.write_text(json.dumps(malform(json.loads(inst.read_text()))))
        if command == "check":
            argv = ["check", "--instance", str(inst), "--prox-instances", "5"]
        else:
            argv = ["run", "--config", str(_cfg(tmp_path, problem={"instance": str(inst)})[0])]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
