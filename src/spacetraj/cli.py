"""Command-line scenario runner.

    spacetraj <command> [--config cfg.json] [--set key=value ...]
                        [--out dir] [--seed N]

Commands:
    solve        optimize the nonlinear leg at the configured horizon
    sweep        evaluate the transfer-time grid and write the sweep table
    simulate     closed-loop run: optimized leg + regulation (or descent to
                 touchdown for the soft-landing scenario)
    verify       Jacobian agreement, Riccati residual, Bellman residuals
    convergence  objective-vs-level study on the built-in linear benchmark

Exit codes: 0 success, 2 configuration error, 3 runtime/solver error,
1 failed verification. Errors print a machine-readable JSON line to stdout.
`SPACETRAJ_LOG` (debug|info|warning|quiet) sets stderr log verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .artifacts import (
    CONTROL_COLUMNS,
    CONVERGENCE_COLUMNS,
    CONVERGENCE_SCHEMA,
    ITERATION_COLUMNS,
    ITERATIONS_SCHEMA,
    STATE_COLUMNS,
    SWEEP_COLUMNS,
    SWEEP_SCHEMA,
    TRAJECTORY_SCHEMA,
    RunArtifacts,
    trajectory_rows,
    write_csv,
    write_json,
)
from .config import ScenarioConfig, emit_config, parse_config, scenario_defaults
from .dynamics import finite_diff_jacobians, jacobians
from .errors import ConfigError, SpacetrajError
from .scenarios import build_problem, linear_benchmark
from .two_phase import RunResult, bellman_check, convergence_study, membership_switches, solve_two_phase

log = logging.getLogger("spacetraj")

DEFAULT_LEVEL_FRACTIONS = (0.5, 0.25, 0.1, 0.03, 0.01, 0.001)


def _setup_logging() -> None:
    name = os.environ.get("SPACETRAJ_LOG", "warning").lower()
    level = {
        "debug": logging.DEBUG,
        "info": logging.INFO,
        "warning": logging.WARNING,
        "quiet": logging.ERROR,
    }.get(name, logging.WARNING)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")


# A command runs on the config and the output directory and returns its
# summary fields, the files it wrote (by `RunArtifacts` field) and its exit
# code; `run` adds the fields every summary carries and writes summary.json.
Outcome = Tuple[Dict[str, Any], Dict[str, Path], int]


def _write_run(cfg: ScenarioConfig, out: Path, result: RunResult) -> Outcome:
    """trajectory.csv and iterations.csv of a solve or simulate."""
    iterations = len(result.report.iterations)
    log.info("run finished: cost=%g iterations=%d", result.summary["total_cost"], iterations)
    header = ["t_seconds", *STATE_COLUMNS[cfg.scenario], *CONTROL_COLUMNS[cfg.scenario], "stage_cost", "phase"]
    traj_csv = write_csv(
        out / "trajectory.csv",
        TRAJECTORY_SCHEMA,
        header,
        trajectory_rows(result.dt, result.states, result.controls, result.stage_costs, result.phases),
    )
    iter_csv = write_csv(
        out / "iterations.csv",
        ITERATIONS_SCHEMA,
        ITERATION_COLUMNS,
        [
            [r["iteration"], r["cost"], r["alpha"], r["lambda"], r["gradient_norm"], r["accepted"]]
            for r in result.report.iteration_rows()
        ],
    )
    files = {"trajectory_csv": traj_csv, "iterations_csv": iter_csv}
    return {**result.summary, "iterations": iterations}, files, 0


def cmd_solve(cfg: ScenarioConfig, out: Path) -> Outcome:
    return _write_run(cfg, out, build_problem(cfg).solve())


def cmd_simulate(cfg: ScenarioConfig, out: Path) -> Outcome:
    return _write_run(cfg, out, build_problem(cfg).simulate())


def cmd_sweep(cfg: ScenarioConfig, out: Path) -> Outcome:
    points = build_problem(cfg).sweep()
    rows = []
    failures = []
    for pt in points:
        if pt.failed:
            failures.append({"T": pt.transfer_time, "error": pt.error})
            continue
        rows.append(
            [pt.transfer_time, pt.ilqr_cost, pt.regulation_cost, pt.terminal_value, pt.total_cost, pt.in_set, pt.error_norm]
        )
    sweep_csv = write_csv(out / "sweep.csv", SWEEP_SCHEMA, SWEEP_COLUMNS, rows)
    in_set = [pt.transfer_time for pt in points if pt.in_set]
    fields = {
        "grid": [pt.transfer_time for pt in points],
        "first_hitting_time": in_set[0] if in_set else None,
        "membership_switches": membership_switches(points),
        "failures": failures,
    }
    return fields, {"sweep_csv": sweep_csv}, 0


def cmd_verify(cfg: ScenarioConfig, out: Path) -> Outcome:
    problem = build_problem(cfg)

    # analytic vs central-difference Jacobians at random interior points
    rng = np.random.default_rng(int(cfg.seed))  # an integral float passes validation
    points = [problem.sample(rng) for _ in range(100)]
    ja = jacobians(problem.model, np.array([x for x, _ in points]), np.array([u for _, u in points]))
    worst = 0.0
    for t, (x, u) in enumerate(points):
        jf = finite_diff_jacobians(problem.model, x, u)
        worst = max(
            worst,
            float(np.linalg.norm(ja.A[t] - jf.A) / max(1.0, np.linalg.norm(jf.A))),
            float(np.linalg.norm(ja.B[t] - jf.B) / max(1.0, np.linalg.norm(jf.B))),
        )

    # one-step value consistency on the built-in linear benchmark
    defaults = scenario_defaults("custom-linear")
    bench = linear_benchmark(
        replace(defaults, horizon=20.0, terminal_set=replace(defaults.terminal_set, level=0.002))
    )
    solution = solve_two_phase(bench)
    residuals = [c.residual for c in bellman_check(bench, solution, 3) if not c.skipped]
    checks = [
        {"check": "jacobians", "passed": worst < 1e-5, "max_relative_error": worst, "points": 100},
        problem.design_check(),  # the stationary Riccati residual, or why there is none
        {
            "check": "bellman",
            "passed": bool(residuals and max(residuals) < 1e-6),
            "max_residual": max(residuals) if residuals else None,
        },
    ]
    passed = all(c["passed"] for c in checks)
    return {"checks": checks, "passed": passed}, {}, 0 if passed else 1


def cmd_convergence(cfg: ScenarioConfig, out: Path) -> Outcome:
    bench = linear_benchmark(replace(scenario_defaults("custom-linear"), solver=cfg.solver))
    ideal = bench.design_for(1.0).predicted_cost(bench.x0)
    levels = cfg.convergence_levels or [ideal * f for f in DEFAULT_LEVEL_FRACTIONS]
    rows = convergence_study(bench, levels)
    csv = write_csv(
        out / "convergence.csv",
        CONVERGENCE_SCHEMA,
        CONVERGENCE_COLUMNS,
        [[r.level, r.objective, r.ideal, r.gap] for r in rows],
    )
    fields = {
        "ideal": ideal,
        "levels": [r.level for r in rows],
        "gaps": [r.gap for r in rows],
        "finest_gap": rows[-1].gap,
        "finest_gap_relative": rows[-1].gap / ideal,
    }
    return fields, {"convergence_csv": csv}, 0


COMMANDS = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "convergence": cmd_convergence,
}


def run(command: str, cfg: ScenarioConfig) -> Tuple[RunArtifacts, int]:
    """Dispatch a command; returns the artifact paths and the exit code."""
    if command not in COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}")
    started = time.perf_counter()
    out = Path(cfg.output_dir)
    fields, files, code = COMMANDS[command](cfg, out)
    summary = {
        "version": __version__,
        "command": command,
        "scenario": cfg.scenario,
        "config": emit_config(cfg),
        "wall_clock_s": time.perf_counter() - started,
        **fields,
    }
    return RunArtifacts(summary_json=write_json(out / "summary.json", summary), **files), code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="spacetraj", description="two-phase trajectory optimization scenarios"
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument(
            "--set",
            action="append",
            dest="overrides",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (dotted keys; JSON-parsed values)",
        )
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    _setup_logging()

    try:
        seed = [] if args.seed is None else [f"seed={args.seed}"]
        cfg = parse_config(args.config, [*args.overrides, *seed])
        if args.out is not None:
            cfg.output_dir = args.out
        artifacts, code = run(args.command, cfg)
    except ConfigError as exc:
        print(json.dumps({"status": "error", "error": "config", "field": exc.field, "message": str(exc)}))
        return 2
    except SpacetrajError as exc:
        print(json.dumps({"status": "error", "error": type(exc).__name__, "message": str(exc)}))
        return 3
    except FileNotFoundError as exc:
        print(json.dumps({"status": "error", "error": "file_not_found", "message": str(exc)}))
        return 2

    print(
        json.dumps(
            {
                "status": "ok",
                "command": args.command,
                "exit_code": code,
                "artifacts": [str(p) for p in artifacts.paths()],
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
