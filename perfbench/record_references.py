"""Record the correctness gate's references: the final fg_value and residual
of every workload on instance seeds 0..N_SEEDS-1.

    python3 perfbench/record_references.py

Re-record only in a change that alters the solver's numerics on purpose, and
say so in that change.  A run that fails the gate's other checks is never
recorded.
"""

from __future__ import annotations

import json

import run

# Relative tolerance of the final fg_value and residual; see README.md.
REL_TOL = 1e-6


def main() -> int:
    run.prepare()
    from workloads import N_SEEDS, REFERENCES_PATH, WORKLOADS, run_once, solver_faults

    refs = {"rel_tol": REL_TOL, "workloads": {}}
    for wl in WORKLOADS.values():
        table = {}
        for seed in range(N_SEEDS):
            rec = run_once(wl, seed)
            faults = solver_faults(wl, rec)
            if faults:
                raise SystemExit(f"{wl.name} seed {seed}: not recorded: {'; '.join(faults)}")
            last = rec.result.trace[-1]
            table[str(seed)] = {"fg_value": last.fg_value, "residual": last.residual}
        refs["workloads"][wl.name] = table
        print(f"{wl.name}: {N_SEEDS} seeds recorded", flush=True)
    with open(REFERENCES_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
