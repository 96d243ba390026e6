"""Spans recorded from outside the library, around the calls into each layer.

A span is ``[name, parent, start, end]``; its index in ``Tracer.spans`` is its
id and ``parent`` is the id of the enclosing span (-1 at the top).  Spans stay
in memory for one workload run and are written out when the run ends.  Self
time is a span's duration minus the durations of its children; children never
overlap because every call here is synchronous.

Nothing under ``src/`` is edited: the problem's oracles are wrapped with
``dataclasses.replace``, and ``sdcam.solver.step``, ``sdcam.solver.beta_at``
and ``sdcam.diagnostics.stationarity_residual`` are replaced at the module
attributes that ``solve`` looks up at call time, then restored.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import sdcam.diagnostics
import sdcam.solver
from sdcam.oracles import Problem

ORACLES = (
    ("f", "value"),
    ("f", "grad"),
    ("g", "value"),
    ("g", "prox"),
    ("h", "value"),
    ("h", "prox"),
    ("c", "value"),
    ("c", "vjp"),
)
ORACLE_NAMES = tuple(f"{term}.{method}" for term, method in ORACLES)


def _step_outcome(out: Tuple[Any, ...]) -> str:
    row = out[0]
    return "solver.step.reject" if row is None else "solver.step.accept"


# (module, attribute, span name, rename) replaced while a traced run executes.
_MODULE_HOOKS = (
    (sdcam.solver, "step", "solver.step", _step_outcome),
    (sdcam.solver, "beta_at", "schedule.beta_at", None),
    (sdcam.diagnostics, "stationarity_residual", "diagnostics.residual", None),
)


class Tracer:
    """In-memory span recorder for one workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[List[Any]] = []
        self._stack = [-1]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        rename: Optional[Callable[[Any], str]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call; ``rename(result)`` may replace
        the span's name once the call has returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            rec = [name, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if rename is not None:
                rec[0] = rename(out)
            return out

        return traced

    def wrap_problem(self, p: Problem) -> Problem:
        """The same problem with every oracle call recorded as ``oracle.*``."""
        terms = {}
        for term in ("f", "g", "h", "c"):
            oracle = getattr(p, term)
            methods = {
                method: self.wrap(f"oracle.{term}.{method}", getattr(oracle, method))
                for t, method in ORACLES
                if t == term
            }
            terms[term] = dataclasses.replace(oracle, **methods)
        return dataclasses.replace(p, **terms)

    @contextlib.contextmanager
    def hooked(self) -> Iterator[None]:
        """Record spans for the solver's step, the schedule and the residual."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in _MODULE_HOOKS]
        try:
            for mod, attr, name, rename in _MODULE_HOOKS:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr), rename))
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("run_id,span_id,parent_id,name,start,end\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{self.run_id},{i},{parent},{name},{start!r},{end!r}\n")


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


def span_stats(spans: List[List[Any]]) -> Dict[str, SpanStats]:
    """Calls, inclusive time and self time per span name."""
    child_s = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_s[parent] += end - start
    stats: Dict[str, SpanStats] = {}
    for i, (name, _, start, end) in enumerate(spans):
        s = stats.setdefault(name, SpanStats())
        s.calls += 1
        s.incl_s += end - start
        s.self_s += end - start - child_s[i]
    return stats
