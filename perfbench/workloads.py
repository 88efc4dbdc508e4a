"""The benchmark's workloads: their inputs and the checks on their outputs.

Each workload runs one ``spacetraj`` CLI command. Its timed input, one of
the paper's tabulated queries, is the same for every seed and is repeated
through the run; its expected answers are known. The landing dispersion
adds a batch of perturbed cases drawn from the seed, each solved once and
checked between the timed input's repetitions.

A check either marks the output wrong (``wrong``), which makes the run
incorrect, or counts a failed operation (``failed``). Landing cases that
miss touchdown or the speed limit are a known solver defect: they count as
failed operations and are reported, never dropped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Tabulated soft-landing initial condition (deg, deg/s; m; m/s).
LANDER_ATTITUDE_DEG = (22.91, 17.18, 11.45, 5.72, 11.45, -11.45)
LANDER_POSITION_M = (300.0, -200.0, 1000.0)
LANDER_VELOCITY_MPS = (100.0, 120.0, 0.0)
# Dispersion: attitude and rates by +-10 %, position by +-5 % (uniform,
# relative), velocity by N(0, 3 m/s) per axis.
ATTITUDE_SPREAD = 0.10
POSITION_SPREAD = 0.05
VELOCITY_SIGMA_MPS = 3.0
# A run's cases are one Latin-hypercube batch: every perturbation takes each
# 1/LANDING_CASES quantile band once. The marginals are those above, but the
# batch covers them evenly, so runs with different seeds see comparable case
# mixes.
LANDING_CASES = 16
# Well-posed cases converge in 11-16 iLQR iterations; cases the solver
# defect slows can run to the default 500 (two minutes each). The cap keeps
# every case inside a run, and a capped case that has not touched down
# counts as failed.
LANDING_MAX_ITERATIONS = 40

CONSISTENCY_RTOL = 1e-9


@dataclass
class Outcome:
    """What the checks found in one repetition's outputs."""

    ops: int
    failed: int = 0
    objective: Optional[float] = None
    wrong: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    timed_input: Tuple[str, ...]  # the tabulated case the timed and traced runs repeat
    batch: Callable[[int], List[List[str]]]  # further inputs from the seed, each run once
    check: Callable[[Path, dict], Outcome]  # (output dir, repetition with "exit_code", "error", "ops")
    ops_are_points: bool  # an operation is a grid point (else the whole repetition)
    may_fail: bool  # failed operations are a known defect, reported without making the run wrong


def no_batch(seed: int) -> List[List[str]]:
    return []


def landing_cases(seed: int) -> List[List[str]]:
    """The run's perturbed soft-landing cases; the same seed gives the same
    cases."""
    rng = np.random.default_rng(seed)
    normal = NormalDist()
    base_att = np.asarray(LANDER_ATTITUDE_DEG)
    base_pos = np.asarray(LANDER_POSITION_M)
    base_vel = np.asarray(LANDER_VELOCITY_MPS)
    strata = np.array([rng.permutation(LANDING_CASES) for _ in range(12)]).T
    quantiles = np.clip((strata + rng.uniform(size=strata.shape)) / LANDING_CASES, 1e-12, 1.0 - 1e-12)
    cases = []
    for q in quantiles:
        att = base_att * (1.0 + ATTITUDE_SPREAD * (2.0 * q[:6] - 1.0))
        pos = base_pos * (1.0 + POSITION_SPREAD * (2.0 * q[6:9] - 1.0))
        vel = base_vel + VELOCITY_SIGMA_MPS * np.array([normal.inv_cdf(p) for p in q[9:]])
        cases.append(
            [
                "scenario=soft-landing",
                f"solver.max_iterations={LANDING_MAX_ITERATIONS}",
                "initial_state=" + json.dumps(att.tolist()),
                "lander.initial_position_m=" + json.dumps(pos.tolist()),
                "lander.initial_velocity_mps=" + json.dumps(vel.tolist()),
            ]
        )
    return cases


def _read_csv(path: Path) -> List[Dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _summary(out: Path) -> dict:
    return json.loads((out / "summary.json").read_text(encoding="utf-8"))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= CONSISTENCY_RTOL * max(abs(a), abs(b), 1.0)


def _stage_cost_sum(out: Path) -> float:
    rows = _read_csv(out / "trajectory.csv")
    # The last row carries no control; its stage-cost cell is 0.
    return math.fsum(row["stage_cost"] for row in rows)


def check_sweep(expected_hitting_time: float) -> Callable[[Path, dict], Outcome]:
    def check(out: Path, child: dict) -> Outcome:
        summary = _summary(out)
        rows = _read_csv(out / "sweep.csv")
        outcome = Outcome(ops=len(summary["grid"]))
        outcome.failed = len(summary["failures"])
        finite = []
        for row in rows:
            if all(math.isfinite(v) for v in row.values()):
                finite.append(row)
            else:
                outcome.failed += 1
        if outcome.failed:
            outcome.wrong.append(f"{outcome.failed} grid points failed or have non-finite costs")
        hit = summary["first_hitting_time"]
        if hit != expected_hitting_time:
            outcome.wrong.append(f"first hitting time {hit}, expected {expected_hitting_time}")
        first_member = next((row["T"] for row in rows if row["in_omega"] == 1.0), None)
        if first_member != hit:
            outcome.wrong.append(f"summary hitting time {hit} disagrees with sweep.csv ({first_member})")
        for row in finite:
            if not _close(row["total_cost"], row["ilqr_cost"] + row["regulation_cost"]):
                outcome.wrong.append(f"total_cost at T={row['T']} is not ilqr_cost + regulation_cost")
        outcome.objective = math.fsum(row["ilqr_cost"] + row["regulation_cost"] for row in finite)
        if outcome.wrong:
            outcome.failed = outcome.ops
        return outcome

    return check


def check_two_phase_simulate(expected_transfer_time: float) -> Callable[[Path, dict], Outcome]:
    def check(out: Path, child: dict) -> Outcome:
        summary = _summary(out)
        outcome = Outcome(ops=child["ops"])
        if summary["transfer_time"] != expected_transfer_time:
            outcome.wrong.append(
                f"transfer time {summary['transfer_time']}, expected {expected_transfer_time}"
            )
        if summary["regulation_converged"] is not True:
            outcome.wrong.append("regulation did not converge")
        if summary["diverged"] is not False:
            outcome.wrong.append("closed loop diverged")
        if not _close(summary["total_cost"], _stage_cost_sum(out)):
            outcome.wrong.append("total_cost disagrees with the trajectory's stage costs")
        outcome.objective = summary["total_cost"]
        if outcome.wrong:
            outcome.failed = outcome.ops
        return outcome

    return check


def check_landing(out: Path, child: dict) -> Outcome:
    outcome = Outcome(ops=1)
    if child["exit_code"] != 0:
        outcome.failed = 1
        outcome.notes.append(f"exit {child['exit_code']}: {child['error']}")
        return outcome
    summary = _summary(out)
    if not _close(summary["total_cost"], _stage_cost_sum(out)):
        outcome.wrong.append("total_cost disagrees with the trajectory's stage costs")
    outcome.objective = summary["total_cost"]
    if summary["touched_down"] is not True:
        outcome.failed = 1
        outcome.notes.append(f"no touchdown (solver status {summary['solver_status']})")
    elif summary["touchdown_speed_within_limit"] is not True:
        outcome.failed = 1
        outcome.notes.append(f"touchdown speed {summary['touchdown_speed_mps']:.3f} m/s over the limit")
    return outcome


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="attitude-sweep",
            command="sweep",
            why="20-point warm-started attitude sweep; bound by the model derivative and regulation rollouts, one DARE solve",
            timed_input=("scenario=attitude",),
            batch=no_batch,
            check=check_sweep(22.0),
            ops_are_points=True,
            may_fail=False,
        ),
        Workload(
            name="rendezvous-sweep",
            command="sweep",
            why="20-point rendezvous sweep; one DARE solve per transfer time and the 13-state backward pass dominate",
            timed_input=("scenario=rendezvous",),
            batch=no_batch,
            check=check_sweep(300.0),
            ops_are_points=True,
            may_fail=False,
        ),
        Workload(
            name="landing-dispersion",
            command="simulate",
            why="tabulated lander case timed, 16 seeded perturbed cases (at most 40 iLQR iterations) checked once each; pure iLQR with the altitude penalty, bypasses DARE, regulation and two_phase",
            timed_input=("scenario=soft-landing",),
            batch=landing_cases,
            check=check_landing,
            ops_are_points=False,
            may_fail=True,
        ),
        Workload(
            name="attitude-simulate",
            command="simulate",
            why="the headline query: T* = 22 s then the closed loop; the only run of the grid walk in solve_two_phase and two_phase_simulate",
            timed_input=("scenario=attitude",),
            batch=no_batch,
            check=check_two_phase_simulate(22.0),
            ops_are_points=True,
            may_fail=False,
        ),
    )
}
