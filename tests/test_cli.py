"""End-to-end CLI runs: artifacts, schemas, determinism, error reporting."""

import json
import math

import numpy as np
import pytest

from spacetraj.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(out)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema: ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def test_solve_zero_initial_state_zero_cost(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        "solve",
        "--set", "scenario=attitude",
        "--set", "initial_state=[0,0,0,0,0,0]",
        "--set", "horizon=5",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0 and out["status"] == "ok"
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["total_cost"] == 0.0
    assert summary["iterations"] == 1
    assert summary["converged"]


def test_trajectory_csv_schema_and_row_count(tmp_path, capsys):
    code, _ = run_cli(
        capsys,
        "solve",
        "--set", "scenario=attitude",
        "--set", "horizon=10",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    schema, header, rows = read_csv(tmp_path / "o" / "trajectory.csv")
    assert schema == "# schema: trajectory-v1"
    assert header == [
        "t_seconds",
        "psi_rad", "theta_rad", "phi_rad", "w1_radps", "w2_radps", "w3_radps",
        "M1_Nm", "M2_Nm", "M3_Nm",
        "stage_cost", "phase",
    ]
    assert len(rows) == int(10 / 0.1) + 1
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row)


def test_solve_writes_iteration_log(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "solve", "--set", "scenario=custom-linear", "--out", str(tmp_path / "o")
    )
    assert code == 0
    schema, header, rows = read_csv(tmp_path / "o" / "iterations.csv")
    assert schema == "# schema: iterations-v1"
    assert header == ["iteration", "cost", "alpha", "lambda", "gradient_norm", "accepted"]
    assert len(rows) >= 1


def test_reruns_are_byte_identical(tmp_path, capsys):
    for d in ("a", "b"):
        code, _ = run_cli(
            capsys, "simulate", "--set", "scenario=soft-landing", "--out", str(tmp_path / d)
        )
        assert code == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b


def test_solver_failure_is_machine_readable(tmp_path, capsys):
    # attitude cannot settle into the terminal set by 20 s: the hitting-time
    # search fails and surfaces as a runtime error JSON with exit code 3
    code, out = run_cli(
        capsys,
        "simulate",
        "--set", "scenario=attitude",
        "--set", "horizon=20",
        "--set", "sweep.grid=[10,20]",
        "--out", str(tmp_path / "o"),
    )
    assert code == 3
    assert out["status"] == "error" and out["error"] == "HittingTimeNotFoundError"


def test_sweep_csv_columns_and_ordering(tmp_path, capsys):
    code, _ = run_cli(
        capsys,
        "sweep",
        "--set", "scenario=attitude",
        "--set", "horizon=20",
        "--set", "sweep.grid=[5,10,20]",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    schema, header, rows = read_csv(tmp_path / "o" / "sweep.csv")
    assert schema == "# schema: sweep-v1"
    assert header == ["T", "ilqr_cost", "regulation_cost", "terminal_value", "total_cost", "in_omega", "error_norm"]
    assert [float(r[0]) for r in rows] == [5.0, 10.0, 20.0]
    for row in rows:
        assert float(row[1]) + float(row[2]) == pytest.approx(float(row[4]), rel=1e-12)


def test_sweep_summary_lists_membership_switches(tmp_path, capsys):
    # attitude is a member at 22.0 s, not at 25.8 s, and again at 41.3 s
    code, _ = run_cli(
        capsys,
        "sweep",
        "--set", "scenario=attitude",
        "--set", "sweep.grid=[22.0,25.8,41.3]",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    _, _, rows = read_csv(tmp_path / "o" / "sweep.csv")
    assert [r[5] for r in rows] == ["1", "0", "1"]
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["first_hitting_time"] == 22.0
    assert summary["membership_switches"] == [25.8, 41.3]


@pytest.mark.parametrize("scenario,budget", [("attitude", 12000), ("rendezvous", 2600)])
def test_simulate_euler_step_budget(tmp_path, capsys, monkeypatch, scenario, budget):
    """A deterministic work count: every simulated step of the default
    simulate goes through `dynamics.euler_step`."""
    import spacetraj.dynamics as dynamics

    calls = 0
    original = dynamics.euler_step

    def counting(model, x, u):
        nonlocal calls
        calls += 1
        return original(model, x, u)

    monkeypatch.setattr(dynamics, "euler_step", counting)
    code, _ = run_cli(capsys, "simulate", "--set", f"scenario={scenario}", "--out", str(tmp_path / "o"))
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["regulation_converged"] and not summary["diverged"]
    assert summary["membership_switches"] == []
    assert 0 < calls <= budget


def test_sweep_rejected_for_soft_landing(tmp_path, capsys):
    code, out = run_cli(
        capsys, "sweep", "--set", "scenario=soft-landing", "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert out["status"] == "error" and out["error"] == "config"
    assert "single-phase" in out["message"]


def test_simulate_soft_landing_records_touchdown(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "simulate", "--set", "scenario=soft-landing", "--out", str(tmp_path / "o")
    )
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["touched_down"] is True
    assert 0.0 < summary["touchdown_time_s"] <= 30.0
    assert abs(summary["touchdown_speed_mps"]) <= 2.0
    # simulation stops at the crossing: last row's altitude is the first below ground
    _, header, rows = read_csv(tmp_path / "o" / "trajectory.csv")
    alt_col = header.index("r3_m")
    altitudes = [float(r[alt_col]) for r in rows]
    assert altitudes[-1] < 0.0
    assert all(a >= 0.0 for a in altitudes[:-1])


def test_convergence_command(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "convergence", "--set", "scenario=custom-linear", "--out", str(tmp_path / "o")
    )
    assert code == 0
    schema, header, rows = read_csv(tmp_path / "o" / "convergence.csv")
    assert schema == "# schema: convergence-v1"
    assert header == ["level", "objective", "ideal", "gap"]
    assert len(rows) == 6
    gaps = [float(r[3]) for r in rows]
    assert all(g >= -1e-9 for g in gaps)


def test_verify_command_passes(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "verify", "--set", "scenario=attitude", "--seed", "7", "--out", str(tmp_path / "o")
    )
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["passed"] is True
    names = {c["check"] for c in summary["checks"]}
    assert names == {"jacobians", "riccati", "bellman"}


def test_verify_soft_landing_reports_equilibrium_infeasibility(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "verify", "--set", "scenario=soft-landing", "--out", str(tmp_path / "o")
    )
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    riccati = next(c for c in summary["checks"] if c["check"] == "riccati")
    assert riccati["passed"] and "not a fixed point" in riccati["detail"]


def test_config_error_is_machine_readable(tmp_path, capsys):
    code, out = run_cli(
        capsys, "solve", "--set", "scenario=attitude", "--set", "dt=-1", "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert out["status"] == "error"
    assert out["field"] == "dt"


@pytest.mark.parametrize(
    "field,value",
    [
        ("attitude.inertia_diag", "[1,-1,1]"),
        ("attitude.inertia_diag", "[1,NaN,1]"),
        ("attitude.inertia_diag", "[1,1]"),
        ("attitude.inertia_diag", "heavy"),
        ("lander.inertia_diag", "[0,1,1]"),
        ("lander.inertia_diag", "[1,1,Infinity]"),
    ],
)
def test_bad_inertia_is_a_config_error(tmp_path, capsys, field, value):
    scenario = "attitude" if field.startswith("attitude") else "soft-landing"
    code, out = run_cli(
        capsys,
        "solve",
        "--set", f"scenario={scenario}",
        "--set", f"{field}={value}",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert out["status"] == "error" and out["error"] == "config"
    assert out["field"] == field
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "field,value",
    [
        ("dt", "NaN"),
        ("horizon", "Infinity"),
        ("solver.tolerance", "NaN"),
        ("terminal_set.level", "NaN"),
        ("solver.max_iterations", "2.5"),
        ("solver.reg_growth", "0.5"),
        ("solver.alpha_count", "0"),
    ],
)
def test_bad_number_is_a_config_error(tmp_path, capsys, field, value):
    code, out = run_cli(
        capsys,
        "solve",
        "--set", "scenario=attitude",
        "--set", f"{field}={value}",
        "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert out["status"] == "error" and out["error"] == "config"
    assert out["field"] == field
    assert not (tmp_path / "o").exists()


def test_summary_echoes_config(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "solve", "--set", "scenario=custom-linear", "--out", str(tmp_path / "o")
    )
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["scenario"] == "custom-linear"
    assert summary["schema"] == "summary-v1"
    assert summary["wall_clock_s"] > 0.0
