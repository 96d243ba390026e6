"""Command-line front end.

Subcommands:

- ``gen``     write a seeded problem instance as versioned JSON (prints a
              sha256 content digest for reproducibility logs)
- ``run``     run the solver from a JSON config; writes a CSV trace and a
              summary JSON (several configs run on a process pool)
- ``check``   finite-difference oracle checks, prox grid-oracle tests, and the
              schedule sandwich test for one problem family
- ``subseq``  extract the certified monotone subsequence from a trace column

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple, get_type_hints

import numpy as np

from .diagnostics import (
    RateConstants,
    rate_bound_check,
    rate_constants,
    select_subsequence,
)
from .prox import prox_lp_power
from .schedule import ScheduleSpec
from .solver import SolveResult, SolverConfig, SolverError, TraceRow, solve
from .verify import verify_problem_oracles, verify_prox_family, verify_schedule_sandwich
from .problems import FAMILIES, Family, family_of, load_instance, save_instance

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

SCHEMA_VERSION = 1

_TRACE_FIELDS = tuple(f.name for f in dataclasses.fields(TraceRow))
CSV_HEADER = ",".join(_TRACE_FIELDS)

_SUBSEQ_COLUMNS = ("step_norm_sq", "scaled_step_sq")

# scalar prox instances that `check` compares with the grid oracle
_PROX_INSTANCES = 200


class UsageError(ValueError):
    """Bad flags or config contents."""


def _require_keys(obj: Any, allowed: Dict[str, bool], where: str) -> None:
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise UsageError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")
    missing = sorted(k for k, req in allowed.items() if req and k not in obj)
    if missing:
        raise UsageError(f"missing required key(s) {missing} in {where}")


def _fmt(value: Optional[float]) -> str:
    """A CSV cell: ints as written, floats with 17 significant digits, None empty."""
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


def _json_safe(obj: Any) -> Any:
    """``obj`` with every float that is not finite replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


# ---------------------------------------------------------------------------
# problem construction


def _build_instance(problem_cfg: Dict[str, Any], seed: int):
    """Returns (family, instance) for the ``problem`` object of a config."""
    # A problem that is not an object fails in _require_keys.
    if not isinstance(problem_cfg, dict) or "instance" in problem_cfg:
        _require_keys(problem_cfg, {"instance": True}, "problem")
        if not isinstance(problem_cfg["instance"], str):  # open() reads an int as a descriptor
            raise UsageError("problem.instance must be a path string")
        inst = load_instance(problem_cfg["instance"])
        return family_of(inst), inst
    family = problem_cfg.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise UsageError(
            "problem must carry either an 'instance' path or a 'family' in "
            f"{{{', '.join(FAMILIES)}}}"
        )
    fam = FAMILIES[family]
    _require_keys(problem_cfg, {"family": True, **fam.problem_keys()}, "problem")
    kwargs = {k: v for k, v in problem_cfg.items() if k != "family"}
    try:
        return fam, fam.generate(seed, **kwargs)
    except TypeError as exc:  # a key of the wrong type
        raise UsageError(f"problem: {exc}") from exc


# ---------------------------------------------------------------------------
# run


def _load_run_config(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must be a JSON object")
    _require_keys(
        cfg,
        {
            "schema_version": True,
            "seed": True,
            "problem": True,
            "solver": False,
            "schedule": True,
            "output": True,
        },
        "config",
    )
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise UsageError(
            f"schema_version {cfg['schema_version']!r} unsupported (expected {SCHEMA_VERSION})"
        )
    if not isinstance(cfg["seed"], int) or isinstance(cfg["seed"], bool) or cfg["seed"] < 0:
        raise UsageError("seed must be a non-negative integer")
    return cfg


def _solver_config(cfg: Dict[str, Any], fam: Family) -> SolverConfig:
    _require_keys(
        cfg.get("solver", {}),
        {
            "mu_max": False,
            "mu_init": False,
            "rho": False,
            "eta": False,
            "max_successful_iters": True,
            "max_total_trials": False,
            "stop_eps": False,
        },
        "solver",
    )
    solver_cfg = {**fam.solver_defaults, **cfg.get("solver", {})}
    _require_keys(
        cfg["schedule"],
        {"family": False, "beta0": True, "delta": True, "K": False},
        "schedule",
    )
    schedule_cfg = {"family": "power", **cfg["schedule"]}
    try:
        iters = solver_cfg["max_successful_iters"]
        solver_cfg.setdefault("max_total_trials", max(1000, 50 * iters))
        schedule = ScheduleSpec(**schedule_cfg)
        return SolverConfig(schedule=schedule, **solver_cfg)
    except (TypeError, ValueError) as exc:  # TypeError: a value of the wrong type
        raise UsageError(str(exc)) from exc


def _write_trace_csv(path: str, result: SolveResult) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in result.trace:
            fh.write(",".join(_fmt(getattr(r, name)) for name in _TRACE_FIELDS) + "\n")


def _rate_report_dict(trace, consts: RateConstants, regime: str) -> Dict[str, Any]:
    report = rate_bound_check(trace, consts, regime)
    return {
        "regime": report.regime,
        "checkable": report.checkable,
        "passed": report.passed,
        "checked": report.checked,
        "skipped": report.skipped,
        "violations": [
            {"inequality": name, "t": t, "lhs": lhs, "rhs": rhs}
            for name, t, lhs, rhs in report.violations
        ],
        "constants": {
            f.name: getattr(consts, f.name)
            for f in dataclasses.fields(consts)
            if f.name != "provenance"
        },
        "provenance": consts.provenance,
    }


def _write_summary(
    path: str, result: SolveResult, rate_report: Optional[Dict[str, Any]]
) -> None:
    last = result.trace[-1] if result.trace else None
    final = None
    if last is not None:
        final = {
            "t": last.t,
            "mu_t": last.mu_t,
            "beta_t": last.beta_t,
            "step_norm": last.step_norm,
            "scaled_step": last.scaled_step,
            "gap": last.gap,
            "prev_gap": last.prev_gap,
            "residual": last.residual,
            "fg_value": last.fg_value,
            "rel_feas": last.rel_feas,
        }
    doc = {
        "status": result.status,
        "total_trials": result.total_trials,
        "total_unsuccessful": result.total_unsuccessful,
        "successful_iters": len(result.trace),
        "final": final,
        "rate_bound_check": rate_report,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(doc), fh, indent=1, allow_nan=False)
        fh.write("\n")


def run_config_file(path: str) -> int:
    """Execute one run config; returns a process exit code."""
    cfg = _load_run_config(path)
    fam, inst = _build_instance(cfg["problem"], cfg["seed"])
    problem, x0, y0, rel_feas, sup_abs_fg = fam.setup(inst)
    solver_cfg = _solver_config(cfg, fam)

    output_cfg = cfg["output"]
    _require_keys(output_cfg, {"trace": True, "summary": False}, "output")
    if not all(isinstance(value, str) for value in output_cfg.values()):
        raise UsageError("output.trace and output.summary must be path strings")
    trace_path = output_cfg["trace"]
    summary_path = output_cfg.get("summary", trace_path + ".summary.json")

    try:
        result = solve(problem, solver_cfg, x0, y0, rel_feas=rel_feas)
    except SolverError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    consts = rate_constants(
        problem,
        solver_cfg.schedule,
        result.anchors,
        rho=solver_cfg.rho,
        mu_max=solver_cfg.mu_max,
        sup_abs_fg_bound=sup_abs_fg,
    )
    rate_report = _rate_report_dict(result.trace, consts, fam.regime)
    _write_trace_csv(trace_path, result)
    _write_summary(summary_path, result, rate_report)
    if not result.trace:
        print(f"error: numerical failure: no accepted step in {result.total_trials} trials "
              f"({result.status})", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"{path}: {result.status}, {len(result.trace)} accepted steps -> {trace_path}")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get, set) for the OpenBLAS that NumPy's wheel ships: its get and set
    thread-count functions, or None where there is none."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
                return get, set_
    return None


def _set_blas_threads(threads: int) -> None:
    """Set OpenBLAS's thread count, which is process-wide, where NumPy has
    an OpenBLAS."""
    fns = _openblas()
    if fns is not None:
        fns[1](threads)


def cmd_run(args: argparse.Namespace) -> int:
    paths: List[str] = args.config
    if len(paths) == 1:
        return run_config_file(paths[0])
    # A fork-started pool forks all of its workers at once, so it gets no
    # more workers than there are configs.  Each worker gets its share of the
    # CPUs as OpenBLAS threads, so that the workers' BLAS threads do not
    # outnumber the CPUs.
    cpus = os.cpu_count() or 1
    workers = min(cpus if args.workers is None else args.workers, len(paths))
    if workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_set_blas_threads, initargs=(max(1, cpus // workers),)
    ) as pool:
        codes = list(pool.map(run_config_file, paths))
    for path, code in zip(paths, codes):
        if code != EXIT_OK:
            print(f"error: config {path} exited with code {code}", file=sys.stderr)
    return max(codes)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args: argparse.Namespace) -> int:
    problem_cfg: Dict[str, Any] = {"family": args.family}
    for key in _gen_problem_types():
        if getattr(args, key) is not None:
            problem_cfg[key] = getattr(args, key)
    _, inst = _build_instance(problem_cfg, args.seed)
    save_instance(inst, args.out)
    with open(args.out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"sha256 {digest}  {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    failures: List[str] = []

    if args.instance is not None:
        inst = load_instance(args.instance)
        fam = family_of(inst)
    else:
        fam = FAMILIES[args.family]
        inst = fam.generate(args.seed, **fam.check_kwargs)

    problem, x0, _, _, _ = fam.setup(inst)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed, spawn_key=(99,))))
    # nine more points near x0, each mapped into dom g by a short prox step
    points = [x0] + [np.asarray(problem.g.prox(x0 + 0.1 * rng.standard_normal(x0.size), 1e-6),
                                dtype=float) for _ in range(9)]
    oracle_failures = verify_problem_oracles(problem, points, seed=args.seed)
    failures.extend(oracle_failures)
    print(f"oracle checks ({fam.name}, 10 points): "
          f"{'pass' if not oracle_failures else 'FAIL'}")

    prox_report = verify_prox_family(prox_lp_power, n_instances=_PROX_INSTANCES, seed=args.seed)
    print(f"prox grid-oracle ({_PROX_INSTANCES} instances): "
          f"{'pass' if prox_report.passed else 'FAIL'} "
          f"(max objective excess {prox_report.max_excess:.3e})")
    if not prox_report.passed:
        failures.append(f"prox grid-oracle excess {prox_report.max_excess} at "
                        f"{prox_report.worst_case}")

    schedule_ok = True
    for kind, delta, K in (("power", 0.3, 1), ("power", 0.5, 1),
                          ("blocked", 0.3, 3), ("blocked", 0.5, 10)):
        spec = ScheduleSpec(family=kind, beta0=1.0, delta=delta, K=K)
        if not verify_schedule_sandwich(spec, t_max=10_000):
            schedule_ok = False
            failures.append(f"schedule sandwich violated: {spec}")
    print(f"schedule sandwich: {'pass' if schedule_ok else 'FAIL'}")

    if fam.structure_check is not None:
        what, ok = fam.structure_check(inst)
        print(f"{fam.name} structure ({what}): {'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{fam.name} structure ({what}) violated")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return EXIT_OK if not failures else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# subseq


def cmd_subseq(args: argparse.Namespace) -> int:
    with open(args.trace, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise UsageError(f"trace {args.trace} is empty")
    if args.column not in _SUBSEQ_COLUMNS:
        raise UsageError(
            f"unknown column {args.column!r}; valid columns: {', '.join(_SUBSEQ_COLUMNS)}"
        )
    source = "step_norm" if args.column == "step_norm_sq" else "scaled_step"
    if source not in reader.fieldnames:
        raise UsageError(f"trace {args.trace} has no {source!r} column")
    a = np.array([float(r[source]) for r in rows]) ** 2
    b = np.cumsum(a) / np.arange(1, a.size + 1)
    selected = select_subsequence(a)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("T,a_T,b_T_minus_1\n")
        for T in selected:
            fh.write(f"{T},{_fmt(a[T - 1])},{_fmt(b[T - 2])}\n")
    print(f"{len(selected)} indices selected from {a.size} rows -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _int_list(text: str) -> List[int]:
    return [int(s) for s in text.split(",")]


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _gen_problem_types() -> Dict[str, Callable[[str], Any]]:
    """Every family's ``problem`` keys, each with the argparse type that its
    generator's annotation of the key gives."""
    types = {int: int, float: float, str: str, Tuple[int, ...]: _int_list}
    keys: Dict[str, Callable[[str], Any]] = {}
    for fam in FAMILIES.values():
        hints = get_type_hints(fam.generate)
        keys.update((key, types[hints[key]]) for key in fam.problem_keys())
    return keys


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # map argparse's exit(2) onto usage code 1
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdcam", description="Single-loop prox-penalty solver toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate and serialize a problem instance")
    p_gen.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p_gen.add_argument("--seed", type=_seed, required=True)
    p_gen.add_argument("--out", required=True)
    for key, type_ in _gen_problem_types().items():
        p_gen.add_argument("--" + key.replace("_", "-"), dest=key, type=type_)
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="run the solver from JSON config(s)")
    p_run.add_argument("--config", nargs="+", required=True)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="verification suite for a problem family")
    target = p_check.add_mutually_exclusive_group(required=True)
    target.add_argument("--family", choices=tuple(FAMILIES))
    target.add_argument("--instance")
    p_check.add_argument("--seed", type=_seed, default=0)
    p_check.set_defaults(func=cmd_check)

    p_sub = sub.add_parser("subseq", help="extract the certified subsequence from a trace")
    p_sub.add_argument("--trace", required=True)
    p_sub.add_argument("--column", required=True)
    p_sub.add_argument("--out", required=True)
    p_sub.set_defaults(func=cmd_subseq)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return int(args.func(args))
    except SolverError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
