"""Command-line scenario runner.

    spacetraj <command> [--config cfg.json] [--set key=value ...]
                        [--out dir] [--workers N] [--seed N]

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
from pathlib import Path
from typing import List, Optional, Tuple

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
from .config import (
    ScenarioConfig,
    build_landing_problem,
    build_two_phase_problem,
    default_sweep_grid,
    emit_config,
    parse_config,
)
from .cost import TerminalValue
from .dynamics import finite_diff_jacobians, jacobians
from .errors import ConfigError, NotAFixedPointError, SpacetrajError
from .ilqr import solve_fhocp
from .lqr import linearize_at_goal
from .models import LANDER_CONTROL_SCALE, LANDER_STATE_SCALE, lander_hover_control
from .scenarios import benchmark_grid, linear_benchmark, simulate_landing, solve_landing
from .two_phase import (
    bellman_check,
    convergence_study,
    lyapunov_decreasing,
    solve_two_phase,
    sweep_transfer_time,
    two_phase_simulate,
)

log = logging.getLogger("spacetraj")

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
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


def _summary_base(cfg: ScenarioConfig, command: str, started: float) -> dict:
    return {
        "version": __version__,
        "command": command,
        "scenario": cfg.scenario,
        "config": emit_config(cfg),
        "wall_clock_s": time.perf_counter() - started,
    }


def _out(cfg: ScenarioConfig) -> Path:
    return Path(cfg.output_dir)


def _write_iterations(out: Path, report) -> Path:
    return write_csv(
        out / "iterations.csv",
        ITERATIONS_SCHEMA,
        ITERATION_COLUMNS,
        [
            [r["iteration"], r["cost"], r["alpha"], r["lambda"], r["gradient_norm"], r["accepted"]]
            for r in report.iteration_rows()
        ],
    )


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(cfg: ScenarioConfig) -> Tuple[RunArtifacts, int]:
    started = time.perf_counter()
    out = _out(cfg)
    header = ["t_seconds", *STATE_COLUMNS[cfg.scenario], *CONTROL_COLUMNS[cfg.scenario], "stage_cost", "phase"]

    if cfg.scenario == "soft-landing":
        problem = build_landing_problem(cfg)
        report = solve_landing(problem)
        traj = report.trajectory
        states = traj.states * LANDER_STATE_SCALE
        controls = traj.controls * LANDER_CONTROL_SCALE
        final_error = traj.states[-1][:12] * LANDER_STATE_SCALE[:12]
    else:
        problem = build_two_phase_problem(cfg)
        steps = problem.steps_for(cfg.horizon)
        design = problem.design_for(cfg.horizon)
        report = solve_fhocp(
            problem.model,
            problem.cost,
            TerminalValue(design.P_full),
            problem.x0,
            steps,
            problem.settings,
            problem.guess_for(steps),
        )
        traj = report.trajectory
        states, controls = traj.states, traj.controls
        final_error = design.regulated(traj.states[-1])

    log.info("solve finished: cost=%g iterations=%d", traj.total_cost, len(report.iterations))
    traj_csv = write_csv(
        out / "trajectory.csv",
        TRAJECTORY_SCHEMA,
        header,
        trajectory_rows(problem.model.dt, states, controls, traj.stage_costs),
    )
    iter_csv = _write_iterations(out, report)
    summary = _summary_base(cfg, "solve", started)
    summary.update(
        {
            "total_cost": traj.total_cost,
            "stage_cost_sum": traj.phase_cost,
            "terminal_cost": traj.terminal_cost,
            "iterations": len(report.iterations),
            "converged": report.converged,
            "status": report.status,
            "final_state_error": [float(v) for v in final_error],
        }
    )
    summary_json = write_json(out / "summary.json", summary)
    return RunArtifacts(summary_json=summary_json, trajectory_csv=traj_csv, iterations_csv=iter_csv), 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(cfg: ScenarioConfig) -> Tuple[RunArtifacts, int]:
    if cfg.scenario == "soft-landing":
        raise ConfigError(
            "scenario",
            "the soft-landing scenario is single-phase (no stationary design exists); sweep does not apply",
        )
    started = time.perf_counter()
    out = _out(cfg)
    problem = build_two_phase_problem(cfg)
    grid = default_sweep_grid(cfg)
    workers = cfg.workers if cfg.workers is not None else os.cpu_count()
    points = sweep_transfer_time(problem, grid, warm_start=cfg.sweep.warm_start, workers=workers)

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
    summary = _summary_base(cfg, "sweep", started)
    summary.update(
        {
            "grid": [pt.transfer_time for pt in points],
            "first_hitting_time": in_set[0] if in_set else None,
            "failures": failures,
        }
    )
    summary_json = write_json(out / "summary.json", summary)
    return RunArtifacts(summary_json=summary_json, sweep_csv=sweep_csv), 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(cfg: ScenarioConfig) -> Tuple[RunArtifacts, int]:
    started = time.perf_counter()
    out = _out(cfg)
    header = ["t_seconds", *STATE_COLUMNS[cfg.scenario], *CONTROL_COLUMNS[cfg.scenario], "stage_cost", "phase"]

    if cfg.scenario == "soft-landing":
        problem = build_landing_problem(cfg)
        report = solve_landing(problem)
        result = simulate_landing(problem, report)
        states = result.states * LANDER_STATE_SCALE
        controls = result.controls * LANDER_CONTROL_SCALE
        traj_csv = write_csv(
            out / "trajectory.csv",
            TRAJECTORY_SCHEMA,
            header,
            trajectory_rows(problem.dt, states, controls, result.stage_costs),
        )
        iter_csv = _write_iterations(out, report)
        summary = _summary_base(cfg, "simulate", started)
        within = (
            bool(abs(result.touchdown_speed) <= problem.touchdown_speed_limit)
            if result.touched_down
            else None
        )
        summary.update(
            {
                "solver_converged": report.converged,
                "solver_status": report.status,
                "iterations": len(report.iterations),
                "total_cost": result.total_cost,
                "touched_down": result.touched_down,
                "touchdown_time_s": result.touchdown_time,
                "touchdown_speed_mps": result.touchdown_speed,
                "touchdown_speed_within_limit": within,
                "final_state_error": [float(v) for v in result.touchdown_state_si[:12]]
                if result.touched_down
                else [float(v) for v in (result.states[-1] * LANDER_STATE_SCALE)[:12]],
            }
        )
        summary_json = write_json(out / "summary.json", summary)
        return (
            RunArtifacts(summary_json=summary_json, trajectory_csv=traj_csv, iterations_csv=iter_csv),
            0,
        )

    problem = build_two_phase_problem(cfg)
    grid = default_sweep_grid(cfg)
    solution = solve_two_phase(
        problem, level=cfg.terminal_set.level, grid=grid, warm_start=cfg.sweep.warm_start
    )
    closed = two_phase_simulate(problem, solution)
    log.info(
        "simulate: transfer-time %g s, switch recorded at index %d",
        solution.transfer_time,
        closed.switch_index,
    )
    traj_csv = write_csv(
        out / "trajectory.csv",
        TRAJECTORY_SCHEMA,
        header,
        trajectory_rows(
            problem.model.dt, closed.states, closed.controls, closed.stage_costs, closed.phases
        ),
    )
    phase1 = float(np.sum(closed.stage_costs[closed.phases == 1]))
    phase2 = float(np.sum(closed.stage_costs[closed.phases == 2]))
    summary = _summary_base(cfg, "simulate", started)
    summary.update(
        {
            "transfer_time": solution.transfer_time,
            "level": solution.level,
            "objective": solution.objective,
            "phase1_cost": phase1,
            "phase2_cost": phase2,
            "total_cost": closed.total_cost,
            "switch_time_s": closed.switch_time,
            "regulation_converged": closed.converged,
            "diverged": closed.diverged,
            "iterations": len(solution.report.iterations),
            "final_state_error": [float(v) for v in solution.design.regulated(closed.states[-1])],
            "tail_cost_decreasing_outside_set": lyapunov_decreasing(
                closed, solution.design, solution.level
            ),
        }
    )
    summary_json = write_json(out / "summary.json", summary)
    iter_csv = _write_iterations(out, solution.report)
    return (
        RunArtifacts(summary_json=summary_json, trajectory_csv=traj_csv, iterations_csv=iter_csv),
        0,
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _sample_point(scenario: str, rng: np.random.Generator):
    if scenario == "attitude":
        x = np.concatenate([rng.uniform(-1.0, 1.0, 3), rng.uniform(-0.2, 0.2, 3)])
        return x, rng.normal(0, 5, 3)
    if scenario == "rendezvous":
        x = np.concatenate(
            [
                rng.normal(0, 100, 3),
                rng.normal(0, 1, 3),
                [1000.0 + rng.normal(0, 100)],
                7000.0 + rng.normal(0, 300, 3),
                rng.normal(0, 4, 3),
            ]
        )
        return x, rng.normal(0, 0.5, 3) + 0.1
    if scenario == "soft-landing":
        x = np.concatenate(
            [
                rng.uniform(-0.5, 0.5, 3),
                rng.uniform(-0.2, 0.2, 3),
                rng.normal(0, 0.05, 3),
                rng.normal(0, 0.05, 3),
                [rng.uniform(500, 1200)],
            ]
        )
        return x, rng.normal(0.1, 0.2, 6)
    x = rng.normal(0, 1.0, 1)
    return x, rng.normal(0, 1.0, 1)


def cmd_verify(cfg: ScenarioConfig) -> Tuple[RunArtifacts, int]:
    started = time.perf_counter()
    out = _out(cfg)
    checks = []

    if cfg.scenario == "soft-landing":
        model = build_landing_problem(cfg).model
    else:
        model = build_two_phase_problem(cfg).model

    # analytic vs central-difference Jacobians at random interior points
    rng = np.random.default_rng(cfg.seed)
    points = [_sample_point(cfg.scenario, rng) for _ in range(100)]
    ja = jacobians(model, np.array([x for x, _ in points]), np.array([u for _, u in points]))
    worst = 0.0
    for t, (x, u) in enumerate(points):
        jf = finite_diff_jacobians(model, x, u)
        worst = max(
            worst,
            float(np.linalg.norm(ja.A[t] - jf.A) / max(1.0, np.linalg.norm(jf.A))),
            float(np.linalg.norm(ja.B[t] - jf.B) / max(1.0, np.linalg.norm(jf.B))),
        )
    checks.append(
        {"check": "jacobians", "passed": worst < 1e-5, "max_relative_error": worst, "points": 100}
    )

    # stationary Riccati residual (or the expected equilibrium failure)
    if cfg.scenario == "soft-landing":
        problem = build_landing_problem(cfg)
        x_eq = np.zeros(13)
        x_eq[12] = cfg.lander.initial_mass_kg
        try:
            linearize_at_goal(problem.model, x_eq, lander_hover_control(x_eq[12], problem.params))
            checks.append(
                {
                    "check": "riccati",
                    "passed": False,
                    "detail": "hover point unexpectedly qualified as an equilibrium",
                }
            )
        except NotAFixedPointError as exc:
            checks.append(
                {
                    "check": "riccati",
                    "passed": True,
                    "detail": "no stationary design: hover is not a fixed point (single-phase scenario)",
                    "residual": exc.residual,
                }
            )
    else:
        problem = build_two_phase_problem(cfg)
        design = problem.design_for(default_sweep_grid(cfg)[-1])
        sol = design.solution
        checks.append(
            {
                "check": "riccati",
                "passed": bool(sol.residual < 1e-9 and sol.spectral_radius < 1.0),
                "residual": sol.residual,
                "spectral_radius": sol.spectral_radius,
            }
        )

    # one-step value consistency on the built-in linear benchmark
    bench = linear_benchmark()
    solution = solve_two_phase(bench, level=0.002, grid=benchmark_grid(20))
    residuals = [c.residual for c in bellman_check(bench, solution, 3) if not c.skipped]
    checks.append(
        {
            "check": "bellman",
            "passed": bool(residuals and max(residuals) < 1e-6),
            "max_residual": max(residuals) if residuals else None,
        }
    )

    all_passed = all(c["passed"] for c in checks)
    summary = _summary_base(cfg, "verify", started)
    summary.update({"checks": checks, "passed": all_passed})
    summary_json = write_json(out / "summary.json", summary)
    return RunArtifacts(summary_json=summary_json), 0 if all_passed else 1


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def cmd_convergence(cfg: ScenarioConfig) -> Tuple[RunArtifacts, int]:
    started = time.perf_counter()
    out = _out(cfg)
    bench = linear_benchmark(settings=cfg.solver.to_settings())
    ideal = bench.design_for(1.0).predicted_cost(bench.x0)
    levels = cfg.convergence_levels or [ideal * f for f in DEFAULT_LEVEL_FRACTIONS]
    rows = convergence_study(bench, levels, benchmark_grid(40))
    csv = write_csv(
        out / "convergence.csv",
        CONVERGENCE_SCHEMA,
        CONVERGENCE_COLUMNS,
        [[r.level, r.objective, r.ideal, r.gap] for r in rows],
    )
    summary = _summary_base(cfg, "convergence", started)
    summary.update(
        {
            "ideal": ideal,
            "levels": [r.level for r in rows],
            "gaps": [r.gap for r in rows],
            "finest_gap": rows[-1].gap,
            "finest_gap_relative": rows[-1].gap / ideal,
        }
    )
    summary_json = write_json(out / "summary.json", summary)
    return RunArtifacts(summary_json=summary_json, convergence_csv=csv), 0


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
    return COMMANDS[command](cfg)


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
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    _setup_logging()

    try:
        cfg = parse_config(args.config, args.overrides)
        if args.out is not None:
            cfg.output_dir = args.out
        if args.workers is not None:
            cfg.workers = args.workers
        if args.seed is not None:
            cfg.seed = args.seed
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
