"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMOKE = ["--workload", "rendezvous-sweep", "--seed", "1", "--seconds", "1", "--set", "sweep.grid=[300,600]"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(args, record: Path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args, "--record", str(record)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    rec = json.loads(record.read_text(encoding="utf-8").splitlines()[-1])
    return lines, json.loads(lines[-1]), rec


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smoke")
    start = time.perf_counter()
    plain = _bench([*SMOKE, "--trace", "0"], tmp / "plain.jsonl")
    elapsed = time.perf_counter() - start
    traced = _bench([*SMOKE, "--trace", "1"], tmp / "traced.jsonl")
    return {"plain": plain, "traced": traced, "elapsed": elapsed}


def test_small_grid_smoke_run_finishes_in_seconds(smoke):
    _, result, _ = smoke["plain"]
    assert smoke["elapsed"] < 30.0
    assert result["correct"] is True
    assert result["attempted"] == 2 and result["failed"] == 0


def test_printed_metric_names_appear_in_benchmark_json(smoke):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for key, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        lines, result, _ = smoke[key]
        printed = [line.split()[2] for line in lines if line.startswith("metric ")]
        assert printed and set(printed) <= set(units)
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for name, entry in result["metrics"].items():
            assert entry["unit"] == units[name]


def test_self_times_sum_to_traced_wall_within_overhead(smoke):
    _, result, rec = smoke["traced"]
    metrics = result["metrics"]
    self_total = sum(row["self_s"] for row in rec["trace_detail"]["layers"].values())
    assert abs(self_total - metrics["cli.run.s"]["value"]) <= abs(metrics["trace.overhead_s"]["value"])
    assert metrics["ilqr.solve.calls"]["value"] == 2
    assert metrics["lqr.dare.calls"]["value"] == 2


def _child_run(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        cwd=ROOT,
        env=run._child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "command, overrides, produced",
    [
        ("sweep", ["scenario=rendezvous", "sweep.grid=[300,600]"], "sweep.csv"),
        ("simulate", ["scenario=attitude", "sweep.grid=[20,22]"], "trajectory.csv"),
        ("simulate", ["scenario=soft-landing"], "trajectory.csv"),
    ],
)
def test_traced_run_leaves_outputs_byte_identical(tmp_path, command, overrides, produced):
    bodies = []
    for mode in ("ops", "trace"):
        out = tmp_path / mode
        result = _child_run(
            {"command": command, "inputs": [overrides], "out": str(out), "mode": mode,
             "seconds": 0.0, "spans_csv": str(tmp_path / f"{mode}.spans.csv")}
        )
        assert [rep["exit_code"] for rep in result["inputs"][0]["reps"]] == [0]
        bodies.append((out / "0" / "0" / produced).read_bytes())
    assert bodies[0] == bodies[1]
    assert (tmp_path / "trace.spans.csv").stat().st_size > 0


def test_repetitions_share_one_segment_layout(tmp_path):
    result = _child_run(
        {"command": "sweep", "inputs": [["scenario=rendezvous", "sweep.grid=[300,600]"]],
         "out": str(tmp_path), "mode": "ops", "seconds": 3.0, "spans_csv": ""}
    )
    entry = result["inputs"][0]
    assert len(entry["reps"]) >= 2
    assert len({rep["layout"] for rep in entry["reps"]}) == 1
    assert sorted(set(entry["segment_ops"])) == [-1, 0, 1]
    for rep in entry["reps"]:
        assert sum(rep["self_s"]) == pytest.approx(rep["wall_s"], rel=0.01)


def test_timed_input_runs_around_each_batch_input(tmp_path):
    inputs = [["scenario=rendezvous", f"sweep.grid=[{t}]"] for t in (300, 400, 500)]
    result = _child_run(
        {"command": "sweep", "inputs": inputs, "out": str(tmp_path), "mode": "ops",
         "seconds": 0.0, "spans_csv": ""}
    )
    assert [len(entry["reps"]) for entry in result["inputs"]] == [3, 1, 1]


def test_landing_cases_follow_the_seed():
    first, again, other = (workloads.landing_cases(seed) for seed in (7, 7, 8))
    assert first == again and first != other
    assert len(first) == workloads.LANDING_CASES
    assert len({json.dumps(case) for case in first}) == len(first)


def test_lower_half_mean():
    assert run.lower_half_mean([5.0]) == 5.0
    assert run.lower_half_mean([4.0, 1.0, 3.0, 1000.0]) == 2.0
    assert run.lower_half_mean([2.0, 1.0, 9.0]) == 1.0


def test_benchmark_json_matches_the_runner():
    for entry in SPEC["workloads"]:
        assert workloads.WORKLOADS[entry["name"]].why == entry["why"]
    for section, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in SPEC[section]} == units


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attitude-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _runs(values):
    return list(enumerate(values))


def test_compare_labels():
    base = _runs([10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2])
    faster = _runs([v - 2.0 for _, v in base])
    slower = _runs([v * 1.2 for _, v in base])
    noisy = _runs([6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0])
    assert compare.label(base, faster, True, 0.1) == "improved"
    assert compare.label(base, slower, True, 0.1) == "worse"
    assert compare.label(base, base, True, 0.1) == "unchanged"
    assert compare.label(base, noisy, True, 0.1) == "unresolved"
    assert compare.label(base, faster, False, 0.1) == "worse"
    assert compare.label(base, base, True, None) == "unchanged"
