"""sdcam benchmark: three solver workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it imports the package from ``src/``.

With ``--trace 0`` it repeats whole workload runs (set-up, ``solve``,
``rate_constants``, ``rate_bound_check``) of one seed back to back for
``--seconds``, with no tracing, and reports the end-to-end metrics: each
timing is the sum over the run's segments of the segment's fastest time.  With ``--trace 1`` it
alternates untraced and traced runs, and reports the per-layer metrics from the
traced ones plus one ``sdcam run`` pass for the trace and summary writers.
Every run passes through the correctness gate, and so does one run on a
held-out seed, which also warms up lazy initialisation before timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs each workload in its own child process, one after another, so that the
peak resident memory is per workload.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# One BLAS thread: the workloads' matrices are small, and a second thread only
# adds scheduling noise on a shared 2-core machine.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "ms_per_accepted": "ms",
    "trials_per_accepted": "count",
    "peak_rss_mb": "MiB",
}


def prepare() -> None:
    """Pin BLAS threads and put ``src/`` first on the import path; call before
    anything imports NumPy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sdcam", "__init__.py")):
        raise SystemExit(f"error: no sdcam sources under {src}; run from a checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)


def summarize(samples: List[float]) -> Tuple[float, Optional[int], Optional[float], int]:
    """(median, q, q-th percentile, n), where q is the highest percentile that
    has at least ten samples beyond it; q is None below twenty samples."""
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return statistics.median(s), None, None, n
    q = math.floor(100 * (n - 10) / n)
    return statistics.median(s), q, s[math.ceil(q * n / 100) - 1], n


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("calls_per_accepted", ".checked")):
        return "count"
    if name.endswith(("ms_per_accepted", ".ms")):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio"  # solver.accept_ratio, trace.overhead


def environment() -> Dict[str, Any]:
    import numpy as np

    info: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            model = next((ln for ln in fh if ln.startswith("model name")), None)
        if model is not None:
            info["cpu"] = model.split(":", 1)[1].strip()
    except OSError:
        pass
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size"), encoding="utf-8") as fh:
                if level in ("2", "3"):
                    info[f"l{level}"] = fh.read().strip()
        except OSError:
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    info["blas_threads"] = _blas_threads(np)
    return info


def _blas_threads(np) -> Any:
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"{os.environ.get('OPENBLAS_NUM_THREADS')} (requested)"


class Tally:
    """Gated runs attempted and failed, with the first faults seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.faults: List[str] = []

    def check(self, label: str, faults: List[str]) -> None:
        self.attempted += 1
        if faults:
            self.failed += 1
            if len(self.faults) < 10:
                self.faults += [f"{label}: {f}" for f in faults]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seed: int, seconds: float, refs, tally: Tally) -> Dict[str, float]:
    """End-to-end metrics of untraced runs.

    The runs of one seed do the same work, and each is cut into the same
    segments: generation, the rest of set-up, the solver's lead-in, one segment from the entry of
    each ``step`` call to the next, the tail of ``solve``, and the rate check.
    A segment's fastest time over the runs is its time when nothing else ran
    on the core; the timings reported are sums of these floors.  Slowdowns on
    a shared host come in bursts of tens of milliseconds up to phases of
    minutes, so whole-run medians drift with the host, while a floor over
    segments that short only needs the host quiet for each segment once.
    """
    import numpy as np
    from workloads import checked_run, heldout_seed, instance_seed

    held = heldout_seed(seed)
    tally.check(f"held-out seed {held}", checked_run(wl, held, refs)[1])
    s = instance_seed(seed)
    whole: Dict[str, List[float]] = {k: [] for k in ("run_s", "setup_s", "ms_per_accepted")}
    trials: List[float] = []
    floor = None
    accepted = 0
    shas = set()
    clock = time.perf_counter
    start = clock()
    while True:
        began = clock()
        rec, faults = checked_run(wl, s, refs, stamp=True)
        if rec is not None:
            shas.add(rec.rows_sha256())
            for key in whole:
                whole[key].append(getattr(rec, key))
            trials.append(rec.trials_per_accepted)
            accepted = rec.accepted
            seg = np.diff(rec.stamps)
            if floor is None:
                floor = seg
            elif len(seg) != len(floor):
                faults = faults + [f"{len(seg) - 4} step calls, the first run made {len(floor) - 4}"]
            else:
                np.minimum(floor, seg, out=floor)
        tally.check(f"seed {s}", faults)
        del rec  # one run's arrays alive at a time, so the peak is one run's
        now = clock()
        if now - start + (now - began) >= seconds:  # the next run would overrun
            break
    peak = peak_rss_mib()
    if len(shas) > 1:
        tally.check(f"seed {s}", [f"trace rows differ between repeated runs ({len(shas)} digests)"])
    if floor is None:
        return {}
    metrics = {
        "run_s": float(floor.sum()),
        "setup_s": float(floor[0] + floor[1]),
        "ms_per_accepted": 1e3 * float(floor[3:-1].sum()) / accepted,
        "trials_per_accepted": statistics.median(trials),
        "peak_rss_mb": peak,
    }
    for key, samples in whole.items():
        med, q, tail, n = summarize(samples)
        tail_text = f"p{q} {tail:.6g}" if q is not None else "no tail percentile below 20 samples"
        print(f"  {key:<20} floor {metrics[key]:.6g} {END_TO_END_UNITS[key]}; whole runs: "
              f"median {med:.6g}, {tail_text}, n={n}")
    print(f"  {'trials_per_accepted':<20} {metrics['trials_per_accepted']:.6g}")
    print(f"  {'peak_rss_mb':<20} {peak:.6g} MiB")
    return metrics


def measure_traced(wl, seed: int, seconds: float, refs, tally: Tally) -> Dict[str, float]:
    """Per-layer metrics of traced runs, alternated with untraced runs that
    give the tracing overhead and the rows the traced runs must reproduce."""
    from tracing import Tracer, span_stats
    from workloads import checked_run, heldout_seed, instance_seed

    held = heldout_seed(seed)
    tally.check(f"held-out seed {held}", checked_run(wl, held, refs)[1])
    s = instance_seed(seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}.csv")
    plain_ms: List[float] = []
    traced: List[Dict[str, float]] = []
    clock = time.perf_counter
    start = clock()
    while True:
        began = clock()
        rec, faults = checked_run(wl, s, refs)
        tally.check(f"seed {s}", faults)
        tracer = Tracer(f"{wl.name}-{s}-{len(traced)}")
        with tracer.hooked():
            trec, faults = checked_run(wl, s, refs, tracer)
        if rec is not None and trec is not None:
            plain_ms.append(rec.ms_per_accepted)
            stats = span_stats(tracer.spans)
            tracer.write_csv(spans_path)
            layer = layer_metrics(stats, trec)
            faults += instrumentation_faults(rec, trec, stats)
            if traced and call_counts(layer) != call_counts(traced[0]):
                faults.append("calls_per_accepted differ between traced runs")
            layer["trace.overhead"] = trec.ms_per_accepted
            traced.append(layer)
            last = (stats, trec)
        tally.check(f"traced seed {s}", faults)
        now = clock()
        if now - start + (now - began) >= seconds:  # the next pair would overrun
            break
    if not traced:
        return {}
    metrics = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    metrics["trace.overhead"] /= statistics.median(plain_ms)
    metrics.update(cli_pass(wl, s, refs, tally))
    print(f"  traced runs {len(traced)}, untraced runs {len(plain_ms)}, spans of the last "
          f"traced run -> {os.path.relpath(spans_path, ROOT)}")
    print_span_table(*last)
    return metrics


def call_counts(layer: Dict[str, float]) -> Dict[str, float]:
    return {k: v for k, v in layer.items() if k.endswith("calls_per_accepted")}


def layer_metrics(stats, rec) -> Dict[str, float]:
    """The per-layer metrics of one traced run, from its span statistics."""
    from tracing import ORACLE_NAMES, SpanStats

    acc = rec.accepted
    none = SpanStats()
    get = lambda name: stats.get(name, none)  # noqa: E731
    m: Dict[str, float] = {}
    for o in ORACLE_NAMES:
        st = get(f"oracle.{o}")
        m[f"oracle.{o}.calls_per_accepted"] = st.calls / acc
        m[f"oracle.{o}.self_ms_per_accepted"] = 1e3 * st.self_s / acc
    res = get("diagnostics.residual")
    m["diagnostics.residual.calls_per_accepted"] = res.calls / acc
    m["diagnostics.residual.incl_ms_per_accepted"] = 1e3 * res.incl_s / acc
    m["diagnostics.residual.self_ms_per_accepted"] = 1e3 * res.self_s / acc
    m["diagnostics.rate_check.ms"] = 1e3 * get("diagnostics.rate_check").incl_s
    m["diagnostics.rate_check.checked"] = rec.rate_report.checked
    accept, reject = get("solver.step.accept"), get("solver.step.reject")
    m["solver.step.accept.ms"] = 1e3 * accept.incl_s / max(accept.calls, 1)
    m["solver.step.reject.ms"] = 1e3 * reject.incl_s / max(reject.calls, 1)
    solver_self = get("solver.solve").self_s + accept.self_s + reject.self_s
    m["solver.self_ms_per_accepted"] = 1e3 * solver_self / acc
    m["solver.accept_ratio"] = acc / rec.result.total_trials
    m["schedule.beta_at.calls_per_accepted"] = get("schedule.beta_at").calls / acc
    m["problems.generate.ms"] = 1e3 * get("problems.generate").incl_s
    m["problems.build.ms"] = 1e3 * get("problems.build").incl_s
    return m


def instrumentation_faults(plain, traced, stats) -> List[str]:
    """Tracing must not change the rows, and its step spans must agree with
    the solver's own counters."""
    faults = []
    if plain.rows_sha256() != traced.rows_sha256():
        faults.append("trace rows of the traced run differ from the untraced run")
    for name, want in (
        ("solver.step.accept", traced.accepted),
        ("solver.step.reject", traced.result.total_unsuccessful),
    ):
        got = stats[name].calls if name in stats else 0
        if got != want:
            faults.append(f"{got} {name} spans, solver counted {want}")
    return faults


def cli_pass(wl, seed: int, refs, tally: Tally) -> Dict[str, float]:
    """One ``sdcam run`` with the trace CSV and summary writers timed."""
    import sdcam.cli as cli
    from tracing import Tracer, span_stats
    from workloads import reference_faults

    out = os.path.join(OUT_DIR, f"cli-{wl.name}")
    os.makedirs(out, exist_ok=True)
    trace_path = os.path.join(out, "trace.csv")
    summary_path = os.path.join(out, "summary.json")
    config_path = os.path.join(out, "run.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(wl.run_config(seed, trace_path, summary_path), fh, indent=1)
    tracer = Tracer(f"{wl.name}-{seed}-cli")
    writers = ("_write_trace_csv", "_write_summary")
    saved = {name: getattr(cli, name) for name in writers}
    try:
        for name in writers:
            setattr(cli, name, tracer.wrap(f"cli.{name.lstrip('_')}", saved[name]))
        code = cli.main(["run", "--config", config_path])
    finally:
        for name in writers:
            setattr(cli, name, saved[name])
    faults = [] if code == 0 else [f"sdcam run exited with code {code}"]
    if code == 0:
        with open(summary_path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary["status"] != "iteration budget" or summary["successful_iters"] != wl.budget:
            faults.append(f"sdcam run: status {summary['status']!r}, "
                          f"{summary['successful_iters']} accepted steps")
        if not summary["rate_bound_check"]["passed"]:
            faults.append("sdcam run: rate_bound_check did not pass")
        final = summary["final"]
        faults += reference_faults(refs, wl, seed, final["fg_value"], final["residual"])
    tally.check(f"sdcam run seed {seed}", faults)
    stats = span_stats(tracer.spans)
    return {
        "cli.write.ms": 1e3 * sum(st.incl_s for st in stats.values()),
        "cli.trace_bytes": os.path.getsize(trace_path) if code == 0 else 0,
    }


def print_span_table(stats, rec) -> None:
    """Calls, inclusive and self time per span name for one traced run; shares
    are of the run's whole traced wall time."""
    run_s = sum(st.self_s for st in stats.values())
    acc = rec.accepted
    print(f"  {'span':<28} {'calls/acc':>10} {'incl ms/acc':>12} {'self ms/acc':>12} "
          f"{'incl share':>10} {'self share':>10}")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_s):
        print(f"  {name:<28} {st.calls / acc:>10.4g} {1e3 * st.incl_s / acc:>12.4g} "
              f"{1e3 * st.self_s / acc:>12.4g} {st.incl_s / run_s:>10.1%} {st.self_s / run_s:>10.1%}")


def run_all(args: argparse.Namespace, names: List[str]) -> int:
    """Each workload in its own child process, one after another."""
    merged: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, metric in result["metrics"].items():
            merged[f"{name}.{key}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="sdcam benchmark")
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")

    prepare()
    from workloads import WORKLOADS, heldout_seed, instance_seed, load_references

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    refs = load_references()
    print("env " + json.dumps(environment()))
    print(f"workload {wl.name}: {wl.budget} accepted steps per run, seed {seed} "
          f"(instance seed {instance_seed(seed)}, held-out seed {heldout_seed(seed)}), "
          f"trace {args.trace}")
    tally = Tally()
    if args.trace:
        metrics = measure_traced(wl, seed, args.seconds, refs, tally)
    else:
        metrics = measure(wl, seed, args.seconds, refs, tally)
    for fault in tally.faults:
        print(f"  FAIL {fault}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
