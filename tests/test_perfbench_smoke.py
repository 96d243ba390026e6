"""The benchmark in ``perfbench/`` runs against this checkout's ``src/``.

A change under ``src/`` that breaks what the benchmark reads (a module
attribute it hooks, a field it copies, a function it calls) or that fails
its correctness gate shows here as a named failure, not as a benchmark run
that exits 1.
"""

import dataclasses
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
