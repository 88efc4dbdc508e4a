"""In-memory spans around the public functions of each spacetraj layer.

A `Tracer` replaces module attributes that callers look up at call time
(for example ``dynamics.euler_step`` or ``scenarios.solve_dare``) with
wrappers that record one span per call: name, start, end, parent span and
operation id. Spans stay in memory while the program runs; `aggregate`
and `write_csv` turn them into per-layer figures once the run is over.

Nothing under ``src/`` is changed: the wrappers live only in the process
that installs them.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# Span names of the operation timer: one grid point is one iLQR solve plus
# the membership rollout that follows it.
OP_SOLVE = "ilqr.solve"
OP_MEMBERSHIP = "lqr.membership"


def _solve_counts(report, counters: Counter) -> None:
    counters["ilqr.iterations"] += len(report.iterations)
    counters["ilqr.accepted"] += sum(1 for rec in report.iterations if rec.accepted)
    counters["ilqr.line_search_failed"] += report.status == "line_search_failed"


def _points_counts(points, counters: Counter) -> None:
    counters["two_phase.points"] += len(points)
    counters["two_phase.points_failed"] += sum(1 for p in points if p.failed)


def _solution_counts(solution, counters: Counter) -> None:
    _points_counts(solution.sweep, counters)


def _dare_counts(solution, counters: Counter) -> None:
    counters["lqr.dare.iterations"] += solution.iterations


def _regulation_counts(rollout, counters: Counter) -> None:
    counters["lqr.regulation.steps"] += rollout.steps


def _membership_counts(result, counters: Counter) -> None:
    counters["lqr.membership.members"] += bool(result.member)


def _write_counts(path, counters: Counter) -> None:
    counters["artifacts.write.bytes"] += os.path.getsize(path)


# (module, attribute, span name, hook on the return value, starts an operation)
LAYER_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], bool], ...] = (
    ("dynamics", "euler_step", "dynamics.step", None, False),
    ("dynamics", "jacobians", "dynamics.jacobians", None, False),
    ("cost", "stage_cost", "cost.stage", None, False),
    ("cost", "cost_derivatives", "cost.derivatives", None, False),
    ("ilqr", "solve_fhocp", OP_SOLVE, _solve_counts, True),
    ("ilqr", "backward_pass", "ilqr.backward", None, False),
    ("ilqr", "forward_pass", "ilqr.forward", None, False),
    ("ilqr", "rollout", "ilqr.rollout", None, False),
    ("lqr", "solve_dare", "lqr.dare", _dare_counts, False),
    ("lqr", "regulation_rollout", "lqr.regulation", _regulation_counts, False),
    ("lqr", "in_terminal_set", OP_MEMBERSHIP, _membership_counts, False),
    ("two_phase", "sweep_transfer_time", "two_phase.sweep", _points_counts, False),
    ("two_phase", "solve_two_phase", "two_phase.solve", _solution_counts, False),
    ("two_phase", "two_phase_simulate", "two_phase.simulate", None, False),
    ("scenarios", "solve_landing", "scenarios.solve_landing", None, False),
    ("scenarios", "simulate_landing", "scenarios.simulate_landing", None, False),
    ("config", "build_two_phase_problem", "config.build_problem", None, False),
    ("config", "build_landing_problem", "config.build_problem", None, False),
    ("artifacts", "write_csv", "artifacts.write", _write_counts, False),
    ("artifacts", "write_json", "artifacts.write", _write_counts, False),
)

# The untraced run splits each repetition into segments at the coarse layer
# boundaries only; the model and cost functions, called tens of thousands of
# times per repetition, stay unwrapped.
SEGMENT_TARGETS = tuple(t for t in LAYER_TARGETS if not t[2].startswith(("dynamics.", "cost.")))


class Tracer:
    """Records nested spans in parallel lists (cheap appends in the hot path)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[int] = []
        self.child_time: List[float] = []
        self.counters: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._op = -1

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Optional[Callable] = None,
        new_op: bool = False,
    ) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, child_time, stack = self.parents, self.ops, self.child_time, self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_op:
                self._op += 1
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(name)
            parents.append(parent)
            ops.append(self._op)
            child_time.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                if parent >= 0:
                    child_time[parent] += end - start
            if on_result is not None:
                on_result(result, counters)
            return result

        return wrapper

    def install(self, targets: Sequence[Tuple[str, str, str, Optional[Callable], bool]]) -> None:
        """Wrap each target and rebind every spacetraj module attribute that
        refers to the original function, so callers that imported it by name
        see the wrapper too. A target missing from the program is recorded
        in `missing` and skipped."""
        for module_name, attr, name, on_result, new_op in targets:
            module = importlib.import_module(f"spacetraj.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, on_result, new_op)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("spacetraj"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def reset(self) -> None:
        """Forget every span and counter, keeping the installed wrappers."""
        for values in (self.names, self.starts, self.ends, self.parents, self.ops, self.child_time):
            values.clear()
        self.counters.clear()
        self._stack.clear()
        self._op = -1

    def self_time(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx] - self.child_time[idx]

    def segments(self) -> Tuple[List[str], List[float], List[int]]:
        """Per span in call order: name, self time, and the operation it
        belongs to (-1 outside any). An operation is an outermost span named
        `OP_SOLVE` or `OP_MEMBERSHIP` and everything under it; the spans of
        one repetition tile the outermost span's duration."""
        op_of: List[int] = []
        for idx, name in enumerate(self.names):
            parent = self.parents[idx]
            if parent >= 0 and op_of[parent] >= 0:
                op_of.append(op_of[parent])
            elif name in (OP_SOLVE, OP_MEMBERSHIP):
                op_of.append(self.ops[idx])
            else:
                op_of.append(-1)
        return list(self.names), [self.self_time(i) for i in range(len(self.names))], op_of

    def aggregate(self) -> Dict[str, Any]:
        """Per span name: calls, busy seconds and self seconds; plus counters."""
        layers: Dict[str, Dict[str, float]] = {}
        dare_in_design = 0.0
        for idx, name in enumerate(self.names):
            dur = self.ends[idx] - self.starts[idx]
            row = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += self.self_time(idx)
            if name == "lqr.dare":
                parent = self.parents[idx]
                if parent < 0 or self.names[parent] != "config.build_problem":
                    dare_in_design += dur
        return {
            "layers": layers,
            "counters": dict(self.counters),
            "dare_in_design_s": dare_in_design,
            "missing": list(self.missing),
            "spans": len(self.names),
        }

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("name,start,end,parent,op\n")
            for idx, name in enumerate(self.names):
                fh.write(
                    f"{name},{self.starts[idx]!r},{self.ends[idx]!r},{self.parents[idx]},{self.ops[idx]}\n"
                )
