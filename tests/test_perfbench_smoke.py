"""The benchmark in ``perfbench/`` runs against this checkout's ``src/``.

A change under ``src/`` that breaks what the benchmark reads (a module
attribute it hooks, a field it copies, a function it calls) or that fails
its correctness gate shows here as a named failure, not as a benchmark run
that exits 1.
"""

import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import sdcam.diagnostics
import sdcam.problems
import sdcam.solver
from sdcam.oracles import MapOracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]


def test_what_the_benchmark_reads_from_src():
    # perfbench/tracing.py replaces these module attributes while a traced
    # run executes, and solve must look them up at call time
    for module, name in ((sdcam.solver, "step"), (sdcam.solver, "beta_at"),
                         (sdcam.diagnostics, "stationarity_residual")):
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    # Tracer.wrap_problem passes the map's value and vjp to dataclasses.replace,
    # which must keep every other field
    fields = {f.name for f in dataclasses.fields(MapOracle)}
    assert {"value", "vjp", "jvp_slack"} <= fields
    fam = sdcam.problems.FAMILIES["qcqp"]
    inst = fam.generate(1, **fam.check_kwargs)
    problem, x0 = fam.setup(inst)[:2]
    c = problem.c
    wrapped = dataclasses.replace(c, value=c.value, vjp=c.vjp)
    for name in fields - {"value", "vjp"}:
        assert getattr(wrapped, name) == getattr(c, name), name
    # perfbench/workloads.py calls it as relative_feasibility(inst, x)
    assert list(inspect.signature(sdcam.problems.relative_feasibility).parameters) == ["inst", "x"]
    assert sdcam.problems.relative_feasibility(inst, x0) >= 0.0


@pytest.mark.slow
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0.01",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


# rows_sha256() and total_trials of perfbench's run_once at each workload's
# measured and held-out instance seeds: the 100-step QCQP 200x20 runs and the
# 1000-step runs that its reference gate judges.
_BENCHMARK_RUNS = {
    ("qcqp-200x20", 1): ("22bec6c4585a15400cd15d8a76baeb1d879003aa55acedbac2d41bb42e4a091e", 243),
    ("qcqp-200x20", 33): ("cbc4fb58c8a66640ec838ccfa0cc5e33351c49bf9bddaa9b3db640faa4b2dbc3", 243),
    ("mlp-20x8x4x1", 0): ("6659ae4df9b97a0688330d9b5d7f46f024d2274c8ba1e63a4884110598a56cf7", 2007),
    ("mlp-20x8x4x1", 32): ("3abead1b9f3309b6c768278ee5cb4d221ace0ae3557bd215e2e14925c778c776", 2007),
    ("mimo-8x16-backtrack", 0): (
        "e956b12a4c4c07590dd1289ced5fd67ec1782592ec728b3c28d9eb74c44ee056", 7606),
    ("mimo-8x16-backtrack", 32): (
        "f4e3d90cc582424842b3a7b2cfa55aa3878367620458dc20a1ad01f36a03d203", 7607),
}


@pytest.mark.slow
def test_benchmark_run_bits_are_pinned(monkeypatch):
    # perfbench/workloads.py imports its neighbour tracing.py by plain name
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    workloads = importlib.import_module("workloads")
    for wl in workloads.WORKLOADS.values():
        seeds = (wl.default_seed, workloads.heldout_seed(wl.default_seed))
        assert [(wl.name, s) for s in seeds] == [k for k in _BENCHMARK_RUNS if k[0] == wl.name]
    for (name, seed), pinned in _BENCHMARK_RUNS.items():
        rec = workloads.run_once(workloads.WORKLOADS[name], seed)
        assert (rec.rows_sha256(), rec.result.total_trials) == pinned, (
            f"{name} seed {seed}: the trace or summary bits changed.  Only a numerics change "
            "may do that; it must update these digests and explain the change in CHANGES.md."
        )
