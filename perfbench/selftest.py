"""Self-test of the benchmark's own instrumentation.

    python3 perfbench/selftest.py

For every workload, on its default seed: a traced run reproduces the untraced
run's trace rows bit for bit (sha256 over the rows), its step spans agree with
the solver's counters, and every ``calls_per_accepted`` repeats exactly in a
second traced run.  On the two cases of the ROADMAP baseline table that share
its calls per accepted step (QCQP 200x20 for 300 steps, MLP (20,8,4,1)x100 for
1000 steps), the traced counts match that table at its own precision, one
decimal.  (They are 4.007, 3.010, 3.003 and 2.007 on QCQP: the first steps
reject more trials than the steady state, so the second decimal is not 0.)

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys

import run

# Calls per accepted step from the ROADMAP baseline table, the run lengths it
# was measured at, and the table's precision.
BASELINE_COUNTS = {
    "oracle.c.vjp.calls_per_accepted": 4.0,
    "oracle.c.value.calls_per_accepted": 3.0,
    "oracle.f.grad.calls_per_accepted": 3.0,
    "oracle.g.prox.calls_per_accepted": 2.0,
    "trials_per_accepted": 2.0,
}
BASELINE_LENGTHS = {"qcqp-200x20": 300, "mlp-20x8x4x1": 1000}
BASELINE_PRECISION = 0.05


def traced_run(wl, seed):
    from tracing import Tracer, span_stats
    from workloads import run_once

    tracer = Tracer(f"{wl.name}-{seed}-selftest")
    with tracer.hooked():
        rec = run_once(wl, seed, tracer)
    stats = span_stats(tracer.spans)
    return rec, stats, run.layer_metrics(stats, rec)


def check_workload(wl) -> list:
    from workloads import run_once

    seed = wl.default_seed
    plain = run_once(wl, seed)
    faults = []
    counts = []
    for _ in range(2):
        rec, stats, layer = traced_run(wl, seed)
        faults += run.instrumentation_faults(plain, rec, stats)
        counts.append(run.call_counts(layer))
    if counts[0] != counts[1]:
        faults.append("calls_per_accepted differ between two traced runs")
    return faults


def check_baseline(wl, steps: int) -> list:
    rec, _, layer = traced_run(dataclasses.replace(wl, budget=steps), wl.default_seed)
    layer["trials_per_accepted"] = rec.trials_per_accepted
    faults = []
    for name, want in BASELINE_COUNTS.items():
        print(f"  {wl.name} {steps} steps: {name} = {layer[name]:.4f} (baseline {want})")
        if not abs(layer[name] - want) < BASELINE_PRECISION:
            faults.append(f"{name} = {layer[name]!r}, baseline {want}")
    return faults


def main() -> int:
    run.prepare()
    from workloads import WORKLOADS

    failed = False
    for wl in WORKLOADS.values():
        faults = check_workload(wl)
        if wl.name in BASELINE_LENGTHS:
            faults += check_baseline(wl, BASELINE_LENGTHS[wl.name])
        print(f"{wl.name}: {'FAIL' if faults else 'pass'}")
        for fault in faults:
            print(f"  FAIL {fault}")
        failed = failed or bool(faults)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
