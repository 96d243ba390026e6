"""The benchmark's workloads, one workload run, and its correctness gate.

A workload run is what a user of ``sdcam run`` pays for one config: instance
generation and problem set-up, ``solve`` for a fixed accepted-step budget,
then ``rate_constants`` and ``rate_bound_check`` on the finished trace.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import sdcam.solver
from sdcam import ScheduleSpec, SolverConfig, solve
from sdcam.diagnostics import RateBoundReport, rate_bound_check, rate_constants
from sdcam.oracles import Problem
from sdcam.problems import (
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
)
from sdcam.problems.mimo import mimo_sup_abs_fg
from sdcam.solver import SolveResult, SolverError

from tracing import Tracer

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

# References are recorded for instance seeds 0..N_SEEDS-1; a command-line seed
# s runs instance seed s mod N_SEEDS, and the held-out gate runs the instance
# seed half-way round from it, so every seed has a reference to check against.
N_SEEDS = 64


def _qcqp_bundle(inst):
    x0, y0 = qcqp_initial_point(inst)
    return qcqp_problem(inst), x0, y0, (lambda x: relative_feasibility(inst, x)), None


def _mlp_bundle(inst):
    x0, y0 = mlp_initial_point(inst)
    return mlp_problem(inst), x0, y0, None, mlp_sup_abs_fg(inst)


def _mimo_bundle(inst):
    x0, y0 = mimo_initial_point(inst)
    return mimo_problem(inst), x0, y0, None, mimo_sup_abs_fg(inst)


# Per family: generator, set-up (problem, x0, y0, rel_feas, sup_abs_fg) and the
# rate_bound_check regime, as the ``sdcam run`` command pairs them.  Built on
# the public ``sdcam.problems`` API rather than the CLI's private helpers, so
# that the benchmark times the generators and builders themselves.
_FAMILIES = {
    "qcqp": (qcqp_generate, _qcqp_bundle, "bounded_domains"),
    "mlp": (mlp_generate, _mlp_bundle, "full_domain_h"),
    "mimo": (mimo_generate, _mimo_bundle, "lipschitz_h"),
}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    problem: Dict[str, Any]  # the ``problem`` object of an ``sdcam run`` config
    solver: Dict[str, float]  # mu_max, mu_init, rho, eta
    beta0: float
    delta: float
    budget: int  # accepted steps per solve

    @property
    def family(self) -> str:
        return self.problem["family"]

    @property
    def regime(self) -> str:
        return _FAMILIES[self.family][2]

    def generate(self, seed: int):
        kwargs = {k: v for k, v in self.problem.items() if k != "family"}
        if "layer_dims" in kwargs:
            kwargs["layer_dims"] = tuple(kwargs["layer_dims"])
        return _FAMILIES[self.family][0](seed, **kwargs)

    def bundle(self, inst) -> Tuple[Problem, np.ndarray, np.ndarray, Any, Optional[float]]:
        return _FAMILIES[self.family][1](inst)

    def config(self) -> SolverConfig:
        return SolverConfig(
            schedule=ScheduleSpec("power", self.beta0, self.delta),
            max_successful_iters=self.budget,
            max_total_trials=50 * self.budget,
            **self.solver,
        )

    def run_config(self, seed: int, trace_path: str, summary_path: str) -> Dict[str, Any]:
        """The same run as an ``sdcam run`` config."""
        return {
            "schema_version": 1,
            "seed": seed,
            "problem": self.problem,
            "solver": dict(
                self.solver,
                max_successful_iters=self.budget,
                max_total_trials=50 * self.budget,
            ),
            "schedule": {"family": "power", "beta0": self.beta0, "delta": self.delta},
            "output": {"trace": trace_path, "summary": summary_path},
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="qcqp-200x20",
            why="dense QCQP map: c.value/c.vjp einsums and the box-lp prox in g.prox "
            "do the work; setup is heavy (QR, spectral norms); predicts criterion 9",
            default_seed=1,
            problem={"family": "qcqp", "n": 200, "m": 20},
            solver={"mu_max": 1e7, "mu_init": 1.0, "rho": 0.8, "eta": 1.2},
            beta0=1.0,
            delta=0.3,
            budget=100,
        ),
        Workload(
            name="mlp-20x8x4x1",
            why="scalar lp prox in h.prox and the reverse pass in c.vjp do the work; "
            "the map is tiny, so QCQP-map changes should not show",
            default_seed=0,
            problem={"family": "mlp", "layer_dims": [20, 8, 4, 1], "n_samples": 100},
            solver={"mu_max": 1e7, "mu_init": 0.01, "rho": 0.5, "eta": 2.0},
            beta0=1.0,
            delta=0.5,
            budget=1000,
        ),
        Workload(
            name="mimo-8x16-backtrack",
            why="cheap oracles and ~7.6 trials per accepted step: the solver's reject "
            "path does the work; prox and map kernel changes should show nothing",
            default_seed=0,
            problem={"family": "mimo", "n": 8, "m": 16},
            solver={"mu_max": 1e7, "mu_init": 1.0, "rho": 0.9, "eta": 2.0},
            beta0=1.0,
            delta=1.0 / 3.0,
            budget=1000,
        ),
    )
}


@dataclasses.dataclass
class RunRecord:
    """One workload run: its timings, the solver's result and what the gate
    needs to re-check it."""

    seed: int
    setup_s: float
    solve_s: float
    run_s: float
    result: SolveResult
    rate_report: RateBoundReport
    problem: Problem  # unwrapped, so re-checks add no spans
    x0: np.ndarray
    # Clock readings at the run's boundaries: start, end of generation, end
    # of set-up, start of solve, the entry of every ``step`` call, end of solve, end of the run.
    # Only runs made with ``stamp=True`` have them.
    stamps: Optional[List[float]] = None

    @property
    def accepted(self) -> int:
        return len(self.result.trace)

    @property
    def ms_per_accepted(self) -> float:
        return 1e3 * self.solve_s / self.accepted

    @property
    def trials_per_accepted(self) -> float:
        return self.result.total_trials / self.accepted

    def rows_sha256(self) -> str:
        rows = [dataclasses.astuple(r) for r in self.result.trace]
        return hashlib.sha256(repr(rows).encode()).hexdigest()


def _untraced(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    return fn


@contextlib.contextmanager
def step_stamps(marks: List[float]):
    """Append the clock to ``marks`` on entry to every ``sdcam.solver.step``
    call, through the module attribute that ``solve`` looks up."""
    real, clock = sdcam.solver.step, time.perf_counter

    def stamped(*args: Any, **kwargs: Any) -> Any:
        marks.append(clock())
        return real(*args, **kwargs)

    sdcam.solver.step = stamped
    try:
        yield
    finally:
        sdcam.solver.step = real


def run_once(
    wl: Workload, seed: int, tracer: Optional[Tracer] = None, stamp: bool = False
) -> RunRecord:
    """One workload run; with a tracer every layer call is also recorded, and
    with ``stamp`` the record carries the clock at every ``step`` entry."""
    span = tracer.wrap if tracer is not None else _untraced
    clock = time.perf_counter
    t0 = clock()
    inst = span("problems.generate", wl.generate)(seed)
    tg = clock()
    problem, x0, y0, rel_feas, sup_abs_fg = span("problems.build", wl.bundle)(inst)
    t1 = clock()
    cfg = wl.config()
    solve_problem = problem
    if tracer is not None:
        solve_problem = tracer.wrap_problem(problem)
        if rel_feas is not None:
            rel_feas = tracer.wrap("problems.rel_feas", rel_feas)
    marks: List[float] = []
    t2 = clock()
    with step_stamps(marks) if stamp else contextlib.nullcontext():
        result = span("solver.solve", solve)(solve_problem, cfg, x0, y0, rel_feas=rel_feas)
        t3 = clock()
    consts = span("diagnostics.rate_constants", rate_constants)(
        solve_problem,
        cfg.schedule,
        result.anchors,
        rho=cfg.rho,
        mu_max=cfg.mu_max,
        sup_abs_fg_bound=sup_abs_fg,
    )
    report = span("diagnostics.rate_check", rate_bound_check)(result.trace, consts, wl.regime)
    t4 = clock()
    return RunRecord(
        seed=seed,
        setup_s=t1 - t0,
        solve_s=t3 - t2,
        run_s=t4 - t0,
        result=result,
        rate_report=report,
        problem=problem,
        x0=x0,
        stamps=[t0, tg, t1, t2, *marks, t3, t4] if stamp else None,
    )


def checked_run(
    wl: Workload,
    seed: int,
    refs: Dict[str, Any],
    tracer: Optional[Tracer] = None,
    stamp: bool = False,
) -> Tuple[Optional[RunRecord], List[str]]:
    """One run and its gate faults; no record when the solver failed."""
    try:
        rec = run_once(wl, seed, tracer, stamp)
    except SolverError as exc:
        return None, [f"numerical failure: {exc}"]
    return rec, gate(wl, rec, refs)


def load_references() -> Dict[str, Any]:
    with open(REFERENCES_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def reference_faults(
    refs: Dict[str, Any], wl: Workload, seed: int, fg_value: float, residual: float
) -> List[str]:
    """Final fg_value and residual against the recorded references."""
    tol = refs["rel_tol"]
    ref = refs["workloads"][wl.name].get(str(seed))
    if ref is None:
        return [f"no reference recorded for seed {seed}"]
    faults = []
    for label, got, want in (
        ("fg_value", fg_value, ref["fg_value"]),
        ("residual", residual, ref["residual"]),
    ):
        if not abs(got - want) <= tol * abs(want):
            faults.append(f"final {label} {got!r} differs from reference {want!r} by more than {tol:g} relative")
    return faults


def gate(wl: Workload, rec: RunRecord, refs: Dict[str, Any]) -> List[str]:
    """Correctness faults of one run; empty when the run passes."""
    faults = solver_faults(wl, rec)
    last = rec.result.trace[-1] if rec.result.trace else None
    if last is not None:
        faults += reference_faults(refs, wl, rec.seed, last.fg_value, last.residual)
    return faults


def solver_faults(wl: Workload, rec: RunRecord) -> List[str]:
    """The gate's checks that need no reference: status and budget, the
    acceptance margins, and rate_bound_check in the family's regime."""
    res = rec.result
    faults = []
    if res.status != "iteration budget" or rec.accepted != wl.budget:
        faults.append(f"status {res.status!r} after {rec.accepted} of {wl.budget} accepted steps")
    # The solver's own acceptance tolerance: 1e-12 * (1 + |f+g| before the step).
    fg0 = float(rec.problem.f.value(rec.x0)) + float(rec.problem.g.value(rec.x0))
    fg_before = [fg0] + [r.fg_value for r in res.trace[:-1]]
    for t, ((m_i, m_ii), fg) in enumerate(zip(res.condition_margins, fg_before)):
        tol = 1e-12 * (1.0 + abs(fg))
        if not (m_i >= -tol and m_ii >= -tol):
            faults.append(f"acceptance margins ({m_i!r}, {m_ii!r}) below -{tol:g} at t={t}")
            break
    rep = rec.rate_report
    if not rep.passed:
        faults.append(
            f"rate_bound_check ({rep.regime}) checkable={rep.checkable} "
            f"violations={rep.violations[:3]}"
        )
    return faults


def instance_seed(seed: int) -> int:
    return seed % N_SEEDS


def heldout_seed(seed: int) -> int:
    return (seed + N_SEEDS // 2) % N_SEEDS
