"""spacetraj benchmark: named workloads through ``spacetraj.cli.run``.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
                             [--record FILE] [--set KEY=VALUE ...]

One fresh single-threaded interpreter (``perfbench/child.py``) imports
``spacetraj.cli``, parses the configs and calls ``run(command, cfg)`` on
the workload's inputs (``workloads.py``): its timed input, a tabulated
query repeated through the run, and for the landing dispersion a batch of
perturbed cases drawn from the seed, each run once between repetitions of
the timed input. Every call's outputs are checked, and the repetitions of
the timed input must agree.

The program is deterministic, so a repetition is the same sequence of
calls every time; light spans at the coarse layer boundaries cut it into
segments. On a shared machine whose speed drifts, a segment's shortest
self time over the repetitions is its steadiest measure, and their sum is
the timed input's best time. ``--trace 0`` prints the end-to-end metrics:
that best time (``wall_s``), the median best time of its operations (grid
points; the landing case is one operation), the median set-up time (import
plus config parsing, also probed in extra set-up-only interpreters), peak
resident memory, and the mean over the cheaper half of the inputs of the
cost each achieves. ``--trace 1`` spends half the time on untraced
repetitions of the timed input, then runs it once more in a fresh
interpreter with spans around every layer's public functions and prints the
per-layer metrics, the span table and the tracing overhead (traced wall
time minus the untraced repetitions' median).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--record FILE`` appends the
full run record (environment, samples, span aggregates) as one JSON line,
which ``perfbench/compare.py`` reads, and keeps the traced run's raw spans
in ``FILE.<workload>.seed<N>.spans.csv``. ``--set`` adds config overrides
to every repetition, for quick smoke runs on a small grid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from compare import quartiles
from workloads import WORKLOADS, Outcome, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_s": "s",
    "peak_rss_mib": "MiB",
    "objective": "cost",
}

# Layers with a time metric run on every workload; the layers some workloads
# bypass (lqr, two_phase, scenarios) report counts, and their times appear in
# the span table.
PER_LAYER_UNITS = {
    "dynamics.step.calls": "count",
    "dynamics.step.s": "s",
    "dynamics.step.us_per_call": "us",
    "dynamics.jacobians.calls": "count",
    "dynamics.jacobians.s": "s",
    "dynamics.jacobians.us_per_call": "us",
    "cost.stage.calls": "count",
    "cost.stage.s": "s",
    "cost.derivatives.calls": "count",
    "cost.derivatives.s": "s",
    "ilqr.solve.calls": "count",
    "ilqr.solve.s": "s",
    "ilqr.solve.self_s": "s",
    "ilqr.iterations": "count",
    "ilqr.backward.calls": "count",
    "ilqr.backward.s": "s",
    "ilqr.backward.self_s": "s",
    "ilqr.backward.reg_retries": "count",
    "ilqr.forward.calls": "count",
    "ilqr.forward.s": "s",
    "ilqr.forward.accept_ratio": "ratio",
    "ilqr.rollout.calls": "count",
    "ilqr.rollout.s": "s",
    "ilqr.line_search_failed": "count",
    "lqr.dare.calls": "count",
    "lqr.dare.iterations": "count",
    "lqr.regulation.calls": "count",
    "lqr.regulation.steps": "count",
    "lqr.membership.calls": "count",
    "lqr.membership.member_ratio": "ratio",
    "two_phase.points": "count",
    "two_phase.points_failed": "count",
    "scenarios.simulate_landing.calls": "count",
    "config.build_problem.s": "s",
    "artifacts.write.calls": "count",
    "artifacts.write.s": "s",
    "artifacts.write.bytes": "bytes",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def lower_half_mean(values: List[float]) -> float:
    """Mean of the smaller half of the values (the one value, if one).

    The objective takes it over a run's inputs: the solver defect can leave
    a landing case at a thousand times a well-posed case's cost, and the
    cheaper half keeps a run's figure on well-posed cases whatever number of
    defect cases its seed draws. Those still count in ``failed`` when they
    miss touchdown."""
    ordered = sorted(values)
    return math.fsum(ordered[: max(1, len(ordered) // 2)]) / max(1, len(ordered) // 2)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(spec: dict, timeout: float) -> dict:
    """One fresh interpreter; returns its JSON result, or a dict with
    ``timeout`` or ``crash`` set."""
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"timeout": timeout}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    return json.loads(lines[-1])


def reference_kernel_s() -> float:
    """Best of three timings of a fixed small dense kernel, for telling a
    slow machine window apart from a slow program. Not a metric."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(13, 13)) + 13.0 * np.eye(13)
    b = rng.normal(size=(13, 6))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(3000):
            np.linalg.solve(a, a.T @ b)
        best = min(best, time.perf_counter() - start)
    return best


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "spacetraj").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "thread_env_children": "1",
        "seed": seed,
        "reference_kernel_s": reference_kernel_s(),
    }


def _check(workload: Workload, out: Path, rep: dict) -> Outcome:
    if rep["exit_code"] != 0 and not workload.may_fail:
        return Outcome(ops=1, failed=1, wrong=[f"exit {rep['exit_code']}: {rep['error']}"])
    return workload.check(out, rep)


def _measure(workload: Workload, inputs: List[List[str]], mode: str, seconds: float,
             hard_deadline: float, work: Path) -> dict:
    """Runs one child on the inputs and checks every repetition's outputs.

    Adds to each input of the child's result its checked ``outcome`` and,
    since the program is deterministic, the best-segment estimates: each
    segment's shortest self time over the repetitions, summed over the
    repetition (``best_wall_s``) and over each operation (``best_op_s``).
    A child that times out or crashes gives ``{"failure": reason}``."""
    out = work / mode
    out.mkdir(parents=True)
    spec = {
        "command": workload.command,
        "inputs": inputs,
        "out": str(out),
        "mode": mode,
        "seconds": seconds,
        "spans_csv": str(out / "spans.csv"),
    }
    child = _run_child(spec, max(hard_deadline - time.perf_counter(), 1.0))
    if "timeout" in child:
        return {"failure": f"timed out after {child['timeout']:.0f} s"}
    if "crash" in child:
        return {"failure": f"crashed: {child['crash']}"}
    for i, entry in enumerate(child["inputs"]):
        reps, segment_ops = entry["reps"], entry["segment_ops"]
        op_ids = sorted({op for op in segment_ops if op >= 0})
        outcomes = []
        for r, rep in enumerate(reps):
            rep["ops"] = len(op_ids)
            outcomes.append(_check(workload, out / str(i) / str(r), rep))
        first = outcomes[0]
        if any((o.ops, o.failed, o.objective) != (first.ops, first.failed, first.objective) for o in outcomes):
            first.wrong.append(f"input {i}: repetitions gave different results")
        if len({rep["layout"] for rep in reps}) != 1:
            first.wrong.append(f"input {i}: repetitions made different calls")
            best = [float("nan")] * len(segment_ops)
        else:
            best = [min(column) for column in zip(*(rep["self_s"] for rep in reps))]
        entry["outcome"] = first
        entry["best_wall_s"] = math.fsum(best)
        entry["best_op_s"] = [
            math.fsum(b for b, op in zip(best, segment_ops) if op == k) for k in op_ids
        ]
    return child


def _setup_samples(workload: Workload, extra: List[str]) -> List[float]:
    inputs = [list(workload.timed_input) + extra]
    samples = []
    for _ in range(SETUP_PROBES):
        child = _run_child({"command": workload.command, "inputs": inputs, "mode": "setup"}, 60.0)
        if "setup_s" in child:
            samples.append(child["setup_s"])
    return samples


def _per_layer(agg: dict, traced_wall: float, untraced_median: float) -> Dict[str, float]:
    layers, counters = agg["layers"], agg["counters"]

    def layer(name: str) -> dict:
        return layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def per_call_us(name: str) -> float:
        row = layer(name)
        return 1e6 * row["s"] / row["calls"] if row["calls"] else 0.0

    forward = layer("ilqr.forward")["calls"]
    membership = layer("lqr.membership")["calls"]
    out = {
        "dynamics.step.us_per_call": per_call_us("dynamics.step"),
        "dynamics.jacobians.us_per_call": per_call_us("dynamics.jacobians"),
        "ilqr.iterations": counters.get("ilqr.iterations", 0),
        "ilqr.backward.reg_retries": counters.get("ilqr.backward.raised.RegularizationError", 0),
        "ilqr.forward.accept_ratio": counters.get("ilqr.accepted", 0) / forward if forward else 0.0,
        "ilqr.line_search_failed": counters.get("ilqr.line_search_failed", 0),
        "lqr.dare.iterations": counters.get("lqr.dare.iterations", 0),
        "lqr.regulation.steps": counters.get("lqr.regulation.steps", 0),
        "lqr.membership.member_ratio": counters.get("lqr.membership.members", 0) / membership
        if membership
        else 0.0,
        "two_phase.points": counters.get("two_phase.points", 0),
        "two_phase.points_failed": counters.get("two_phase.points_failed", 0),
        "artifacts.write.bytes": counters.get("artifacts.write.bytes", 0),
        "cli.self_s": layer("cli.run")["self_s"],
        "trace.overhead_s": traced_wall - untraced_median,
        "trace.spans": agg["spans"],
    }
    for name in PER_LAYER_UNITS:
        if name in out:
            continue
        base, _, field = name.rpartition(".")
        out[name] = layer(base)[field]
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, extra: List[str], work: Path) -> dict:
    workload = WORKLOADS[name]
    started = time.perf_counter()
    hard_deadline = started + HARD_LIMIT_S
    env = environment(seed)
    setup = _setup_samples(workload, extra)
    inputs = [list(workload.timed_input) + extra]
    if trace:
        runs = [
            _measure(workload, inputs, "ops", seconds / 2.0, hard_deadline, work),
            _measure(workload, inputs, "trace", 0.0, hard_deadline, work),
        ]
    else:
        inputs += [overrides + extra for overrides in workload.batch(seed)]
        runs = [_measure(workload, inputs, "ops", seconds, hard_deadline, work)]
    env["reference_kernel_end_s"] = reference_kernel_s()

    wrong = [r["failure"] for r in runs if "failure" in r]
    entries = [e for r in runs if "failure" not in r for e in r["inputs"]]
    outcomes = [e["outcome"] for e in entries]
    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wrong += [msg for o in outcomes for msg in o.wrong]
    notes = [f"input {i}: {msg}" for i, o in enumerate(outcomes) for msg in o.notes]
    untimed = "failure" in runs[0]
    if untimed:
        attempted += len(inputs)
        failed += len(inputs)
    else:
        setup.append(runs[0]["setup_s"])
    timed = [] if untimed else runs[0]["inputs"]

    samples: Dict[str, List[float]] = {}
    if trace:
        traced = runs[1]
        if untimed or "failure" in traced:
            wrong.append("the traced run produced no measurement")
        else:
            untraced = statistics.median(rep["wall_s"] for rep in timed[0]["reps"])
            traced_wall = traced["inputs"][0]["reps"][0]["wall_s"]
            values = _per_layer(traced["trace"], traced_wall, untraced)
            samples = {k: [v] for k, v in values.items()}
    else:
        walls = [timed[0]["best_wall_s"]] if timed else []
        objectives = [e["outcome"].objective for e in timed if e["outcome"].objective is not None]
        if not timed or not objectives:
            wrong.append("no repetition produced a measurement")
        samples = {
            "wall_s": walls,
            "setup_s": setup,
            "op_p50_s": timed[0]["best_op_s"] if timed and workload.ops_are_points else walls,
            "peak_rss_mib": [] if untimed else [runs[0]["peak_rss_mib"]],
            "objective": objectives,
        }
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {}
    for metric, unit in units.items():
        values = samples.get(metric) or [0.0]
        center = lower_half_mean if metric == "objective" else statistics.median
        metrics[metric] = {"value": center(values), "unit": unit}
    correct = not wrong and (workload.may_fail or failed == 0)
    rep_walls = [rep["wall_s"] for rep in timed[0]["reps"]] if timed else []
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "overrides": extra,
        "environment": env,
        "elapsed_s": time.perf_counter() - started,
        "inputs": len(inputs),
        "repetitions": len(rep_walls),
        "repetition_wall_s": {"n": len(rep_walls), "quartiles": quartiles(rep_walls or [0.0])},
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "notes": notes,
        "metrics": metrics,
        "samples": {k: {"n": len(v), "quartiles": quartiles(v or [0.0])} for k, v in samples.items()},
        "trace_detail": runs[1].get("trace") if trace else None,
    }


def print_record(rec: dict) -> None:
    name = rec["workload"]
    print(
        f"# {name} seed={rec['seed']} trace={rec['trace']} inputs={rec['inputs']} "
        f"repetitions={rec['repetitions']} attempted={rec['attempted']} failed={rec['failed']} "
        f"failed_frac={rec['failed'] / max(rec['attempted'], 1):.4f} correct={rec['correct']}"
    )
    print("env " + json.dumps(rec["environment"], sort_keys=True))
    q1, q2, q3 = rec["repetition_wall_s"]["quartiles"]
    print(f"# repetition wall time: median {q2:.4f} s [q1 {q1:.4f}, q3 {q3:.4f}] n={rec['repetitions']}")
    for msg in rec["wrong"]:
        print(f"# WRONG {name}: {msg}")
    for msg in rec["notes"]:
        print(f"# failed {name}: {msg}")
    for metric, entry in rec["metrics"].items():
        sample = rec["samples"].get(metric, {"n": 0, "quartiles": [0.0] * 3})
        q1, _, q3 = sample["quartiles"]
        print(
            f"metric {name} {metric} {entry['value']!r} {entry['unit']} "
            f"n={sample['n']} q1={q1!r} q3={q3!r}"
        )
    detail = rec["trace_detail"]
    if detail:
        for span, row in sorted(detail["layers"].items()):
            print(f"span {span} calls={row['calls']} busy_s={row['s']:.6f} self_s={row['self_s']:.6f}")
        two_phase_self = sum(r["self_s"] for s, r in detail["layers"].items() if s.startswith("two_phase."))
        print(f"span two_phase.* self_s={two_phase_self:.6f}")
        print(f"span scenarios.dare_in_design busy_s={detail['dare_in_design_s']:.6f}")
        for target in detail["missing"]:
            print(f"# trace target missing from the program: {target}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the full run record to this JSONL file")
    parser.add_argument("--set", action="append", dest="overrides", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    # A terminated run still kills its child (subprocess.run does so on any
    # exception) and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "spacetraj" / "cli.py").is_file():
        print(f"error: no spacetraj sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench-work" / str(os.getpid())
    records = []
    try:
        for name in names:
            wdir = work / name
            wdir.mkdir(parents=True)
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace), args.overrides, wdir)
            print_record(rec)
            records.append(rec)
            spans_csv = wdir / "trace" / "spans.csv"
            if args.record and spans_csv.is_file():
                shutil.copy(spans_csv, f"{args.record}.{name}.seed{args.seed}.spans.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
