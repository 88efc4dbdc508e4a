"""End-to-end CLI runs: artifacts, schemas, determinism, error reporting."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spacetraj
from spacetraj.artifacts import BLOCK_ROWS, _fmt, trajectory_rows, write_csv
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
    assert summary["first_hit_bracketed"] is False  # T* is the first grid point
    assert summary["membership_switches"] == [25.8, 41.3]


@pytest.mark.parametrize("grid,bracketed", [("[18.8,22.0]", True), ("[18.8]", None)])
def test_sweep_summary_says_whether_the_first_hit_is_bracketed(tmp_path, capsys, grid, bracketed):
    # attitude is not a member at 18.8 s; None when nothing is hit
    code, _ = run_cli(
        capsys, "sweep", "--set", "scenario=attitude", "--set", f"sweep.grid={grid}", "--out", str(tmp_path / "o")
    )
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["first_hit_bracketed"] is bracketed


@pytest.mark.parametrize("scenario,budget", [("attitude", 8000), ("rendezvous", 2600)])
def test_simulate_euler_step_budget(tmp_path, capsys, monkeypatch, scenario, budget):
    """A deterministic work count: every simulated step of the default
    simulate goes through `dynamics.euler_step`, and the steps are priced
    by one `cost.priced` call, and so one `stage_costs` call, per finished
    loop or per chunk of a regulation rollout (there is no one-row cost to
    call per step). The budget holds the steps outside the design; the
    rendezvous design propagates its goal orbit to T* = 300 s, exactly 150
    steps of dt = 2 s. The closed loop prices only the steps it resumes
    after the membership rollout, in one regulation rollout; the nominal's
    and the membership rollout's rows keep their stored costs."""
    import spacetraj.cost as cost
    import spacetraj.dynamics as dynamics
    import spacetraj.ilqr as ilqr
    import spacetraj.lqr as lqr
    import spacetraj.scenarios as scenarios
    import spacetraj.two_phase as two_phase

    calls = Counter()
    designing = False
    propagate = scenarios.simulate

    def propagating(*args):
        nonlocal designing
        designing = True
        try:
            return propagate(*args)
        finally:
            designing = False

    monkeypatch.setattr(scenarios, "simulate", propagating)
    step = dynamics.euler_step

    def counting_step(*args):
        calls["goal_orbit" if designing else "steps"] += 1
        return step(*args)

    monkeypatch.setattr(dynamics, "euler_step", counting_step)

    def count(module, name, key):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count(cost, "stage_costs", "stage_costs")
    for module in (ilqr, lqr):
        count(module, "priced", "priced")
    for module, loop in (
        (ilqr, "rollout"),
        (ilqr, "forward_pass"),
        (lqr, "simulate"),  # one call per chunk of a regulation rollout, one for the closed loop's
    ):
        count(module, loop, "loops")
    assert not hasattr(two_phase, "priced") and not hasattr(two_phase, "simulate")
    closing = False
    close, price = two_phase.two_phase_simulate, lqr.priced

    def closed_loop(*args):
        nonlocal closing
        closing = True
        try:
            return close(*args)
        finally:
            closing = False

    def pricing(simulation, *args):
        if closing:
            calls["closed_loop_priced"] += 1
            calls["closed_loop_rows"] += len(simulation[1])
        return price(simulation, *args)

    monkeypatch.setattr(two_phase, "two_phase_simulate", closed_loop)
    monkeypatch.setattr(lqr, "priced", pricing)
    code, _ = run_cli(capsys, "simulate", "--set", f"scenario={scenario}", "--out", str(tmp_path / "o"))
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["regulation_converged"] and not summary["diverged"]
    assert "membership_switches" not in summary  # the sweep reports them
    # attitude's 18.8 s precedes T* = 22 s; rendezvous hits at its first point
    assert summary["first_hit_bracketed"] is (scenario == "attitude")
    low, high = summary["lyapunov_decrease_ratio"]
    assert 0.99 < low < 1.0 < high < 1.04
    assert 0 < calls["steps"] <= budget
    assert calls["goal_orbit"] == (150 if scenario == "rendezvous" else 0)
    assert not hasattr(cost, "stage_cost")
    assert 0 < calls["stage_costs"] == calls["priced"] <= calls["loops"] < 100
    # the 754 / 1,405 resumed rows, not the membership rollout's 1,066 / 642
    assert calls["closed_loop_priced"] == 1
    assert calls["closed_loop_rows"] == {"attitude": 754, "rendezvous": 1405}[scenario]


def test_a_member_that_used_the_whole_regulation_cap_ends_unconverged(tmp_path, capsys):
    """custom-linear's member at T* = 1 s spends the one-step cap in its
    membership rollout, so the closed loop has no step left to resume: the
    run reports the cap run out, neither a divergence nor a config error."""
    code, _ = run_cli(
        capsys,
        "simulate",
        "--set", "scenario=custom-linear",
        "--set", "terminal_set.regulation_cap=1",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["regulation_converged"] is False and summary["diverged"] is False
    assert summary["total_cost"] == 1.5835921137150628
    assert (tmp_path / "o" / "trajectory.csv").read_text() == (
        "# schema: trajectory-v1\n"
        "t_seconds,x1,u1,stage_cost,phase\n"
        "0.0,1.0,-0.6180338707159286,1.3819658653521132,1\n"
        "1.0,0.38196612928407137,-0.23606805044879267,0.20162624836294962,2\n"
        "2.0,0.1458980788352787,0.0,0.0,2\n"
    )


def _peak_allocation(call):
    """Bytes allocated at the peak of `call()` (tracemalloc; arrays made
    before the call are not counted)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_writer_memory_does_not_grow_with_the_rows(tmp_path):
    """Rows are converted, formatted and written a block at a time: twice
    the rows take no more memory at the writer's peak."""
    rng = np.random.default_rng(0)
    peaks = []
    for T in (2000, 4000):
        states, controls, costs = rng.normal(size=(T + 1, 13)), rng.normal(size=(T, 6)), rng.normal(size=T)
        phases = np.repeat([1, 2], T // 2)
        rows = trajectory_rows(0.1, states, controls, costs, phases)
        peaks.append(_peak_allocation(lambda: write_csv(tmp_path / "t.csv", "trajectory-v1", ["h"], rows)))
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks


def test_simulate_peak_allocation_budget(tmp_path):
    """A warm default attitude simulate allocates at most 1 MiB at its peak
    (0.60 MiB measured; 2.49 MiB while its 2,041 trajectory rows were held
    three times over before the file was written)."""
    from spacetraj.cli import run
    from spacetraj.config import parse_config

    cfg = parse_config(None, ["scenario=attitude"])
    cfg.output_dir = str(tmp_path / "warm")
    run("simulate", cfg)
    cfg.output_dir = str(tmp_path / "o")
    peak = _peak_allocation(lambda: run("simulate", cfg))
    assert peak < 2**20, peak


def test_simulate_solver_budget(tmp_path, capsys, monkeypatch):
    """A deterministic work count of the finite-horizon leg: solves,
    backward passes and backward-sweep steps of the default attitude
    simulate."""
    import spacetraj.ilqr as ilqr
    import spacetraj.two_phase as two_phase

    solves = passes = steps = 0
    solve, backward = two_phase.solve_fhocp, ilqr.backward_pass

    def counting_solve(*args, **kwargs):
        nonlocal solves
        solves += 1
        return solve(*args, **kwargs)

    def counting_backward(traj, *args):
        nonlocal passes, steps
        passes += 1
        steps += traj.horizon
        return backward(traj, *args)

    monkeypatch.setattr(two_phase, "solve_fhocp", counting_solve)
    monkeypatch.setattr(ilqr, "backward_pass", counting_backward)
    code, _ = run_cli(capsys, "simulate", "--set", "scenario=attitude", "--out", str(tmp_path / "o"))
    assert code == 0
    assert (solves, passes, steps) == (6, 33, 4844)


@pytest.mark.parametrize("scenario", ["attitude", "soft-landing"])
def test_every_simulated_step_is_taken_in_simulate(tmp_path, capsys, monkeypatch, scenario):
    """One closed-loop primitive: during the default simulate, each
    `euler_step` call happens inside `dynamics.simulate`, or inside the
    Jacobian and equilibrium checks that step single points."""
    import sys

    import spacetraj.dynamics as dynamics
    import spacetraj.lqr as lqr

    depth = Counter()

    def wrap_everywhere(fn, key):
        def wrapper(*args, **kwargs):
            depth[key] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[key] -= 1

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("spacetraj"):
                for name, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, name, wrapper)

    wrap_everywhere(dynamics.simulate, "simulate")
    wrap_everywhere(dynamics.finite_diff_jacobians, "point")
    wrap_everywhere(lqr.linearize_at_goal, "point")
    steps = Counter()
    step = dynamics.euler_step

    def counting(*args, **kwargs):
        steps["simulate" if depth["simulate"] else "point" if depth["point"] else "outside"] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "euler_step", counting)
    code, _ = run_cli(capsys, "simulate", "--set", f"scenario={scenario}", "--out", str(tmp_path / "o"))
    assert code == 0
    assert steps["outside"] == 0
    assert steps["simulate"] > 1000


def test_landing_simulate_steps_only_in_its_solve(tmp_path, capsys, monkeypatch):
    """The descent run is the solved nominal cut at touchdown: the default
    soft-landing `simulate` takes exactly the `euler_step` calls of its
    `solve`."""
    import spacetraj.dynamics as dynamics

    steps = Counter()
    step = dynamics.euler_step

    def counting(*args, **kwargs):
        steps[command] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "euler_step", counting)
    for command in ("solve", "simulate"):
        code, _ = run_cli(capsys, command, "--set", "scenario=soft-landing", "--out", str(tmp_path / command))
        assert code == 0
    assert steps["simulate"] == steps["solve"] > 1000


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
    checks = {c["check"]: c for c in summary["checks"]}
    assert list(checks) == ["jacobians", "riccati", "bellman"]
    # the cold re-solves of the attitude T* solve, not a linear stand-in
    assert 1e-9 < checks["bellman"]["max_residual"] < 1e-6


def test_verify_soft_landing_reports_equilibrium_infeasibility(tmp_path, capsys):
    """Without a stationary design neither entry applies; `passed` counts
    only the Jacobian check."""
    code, _ = run_cli(
        capsys, "verify", "--set", "scenario=soft-landing", "--out", str(tmp_path / "o")
    )
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    checks = {c["check"]: c for c in summary["checks"]}
    assert checks["jacobians"]["passed"] is True and summary["passed"] is True
    for name in ("riccati", "bellman"):
        assert checks[name]["passed"] is None and "not a fixed point" in checks[name]["detail"]


def test_verify_bellman_does_not_apply_to_a_one_step_hit(tmp_path, capsys):
    # custom-linear hits at T* = 1 step: the leg has no step to re-solve from
    code, _ = run_cli(capsys, "verify", "--set", "scenario=custom-linear", "--out", str(tmp_path / "o"))
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    bellman = summary["checks"][2]
    assert bellman["passed"] is None and bellman["max_residual"] is None
    assert bellman["detail"] == "every step skipped: no horizon left"


def test_verify_bellman_fails_when_its_re_solves_fail(tmp_path, capsys):
    """The leg reaches T* from warm starts, but each cold re-solve's
    zero-control rollout costs about 4.8e6, past the 2e6 cap: a re-solve
    that raises is a failed step, not a skipped one."""
    code, _ = run_cli(
        capsys, "verify", "--set", "scenario=attitude", "--set", "solver.cost_cap=2e6", "--out", str(tmp_path / "o")
    )
    assert code == 1
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    bellman = summary["checks"][2]
    assert summary["passed"] is False and bellman["passed"] is False
    assert bellman["max_residual"] is None
    assert bellman["detail"] == "re-solve failed: DivergenceError: initial control sequence produces a divergent rollout"


def test_cost_cap_admitting_the_membership_rollout_admits_the_closed_loop(tmp_path, capsys):
    """At a 1e3 cap the regulation of the first member (T* = 41.3 s) costs
    about 831; the closed loop tests the cap on that cost alone, as the
    membership rollout did, not on the phase-1 cost of about 1.06e6."""
    code, _ = run_cli(
        capsys, "simulate", "--set", "scenario=attitude", "--set", "terminal_set.cost_cap=1e3",
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["transfer_time"] == pytest.approx(41.3)
    assert summary["diverged"] is False and summary["regulation_converged"] is True
    assert summary["phase2_cost"] == pytest.approx(830.56, abs=0.01)


def test_config_error_is_machine_readable(tmp_path, capsys):
    code, out = run_cli(
        capsys, "solve", "--set", "scenario=attitude", "--set", "dt=-1", "--out", str(tmp_path / "o")
    )
    assert code == 2
    assert out["status"] == "error"
    assert out["field"] == "dt"


@pytest.mark.parametrize("sign", ["", "-"], ids=["plus", "minus"])
@pytest.mark.parametrize(
    "field",
    [
        "dt", "horizon", "solver.tolerance", "terminal_set.state_tol", "lander.isp_s", "rendezvous.mu",
        "rendezvous.chaser.a_km",
    ],
)
def test_integer_past_the_float_range_names_its_field(tmp_path, capsys, field, sign):
    """An integer too large for a float is read as an infinity, which the
    field's own check rejects (on a scenario that reads the field)."""
    scenario = {"lander": "soft-landing", "rendezvous": "rendezvous"}.get(field.split(".")[0], "custom-linear")
    code = main(
        ["solve", "--set", f"scenario={scenario}", "--set", f"{field}={sign}1{'0' * 400}", "--out", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert code == 2 and len(lines) == 1
    out = json.loads(lines[0])
    assert out["error"] == "config" and out["field"] == field
    assert "Traceback" not in captured.err


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
        ("solver.reg_growth", "0.5"),  # not a setting: an unknown key
        ("solver.alpha_count", "0"),  # not a setting: an unknown key
        ("r", "[5e-324,1,1]"),  # R / 2 underflows to a singular matrix
        # the per-degree conversion multiplies Q by about 3,283 and overflows
        ("q", "[1e305,1e305,1e305,1e305,1e305,1e305]"),
        ("q", "[1e308,1e308,1e308,1e308,1e308,1e308]"),
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


@pytest.mark.parametrize(
    "field,value",
    [
        ("q", '"abc"'),
        ("q", "[[1,2],[3]]"),
        ("r", '[1,"x",1]'),
        ("initial_state", '"abc"'),
        ("goal_state", '["a"]'),
        ("sweep.grid", "5"),
        ("convergence_levels", "5"),
        ("lander.initial_position_m", '"x"'),
        ("lander.initial_velocity_mps", "[1,2]"),
    ],
)
def test_malformed_array_is_a_config_error(tmp_path, capsys, field, value):
    scenario = "soft-landing" if field.startswith("lander") else "attitude"
    assert_config_error(tmp_path, capsys, scenario, field, value)


@pytest.mark.parametrize(
    "scenario,value",
    [
        # the radian conversion scales Q by about 3,283
        ("attitude", "[1e-5,1e-5,1e-5,1e-5,1e-5,-5e-13]"),
        # the terminal matrix is 5e4 Q
        ("soft-landing", "[" + "1e-8," * 11 + "-9e-13]"),
    ],
)
def test_indefinite_weight_is_a_config_error_at_any_scale(tmp_path, capsys, scenario, value):
    """An eigenvalue below rounding relative to q's own scale is rejected
    once, by the config, as the scaled Q and terminal matrix built from it
    would be."""
    assert_config_error(tmp_path, capsys, scenario, "q", value)


def assert_config_error(tmp_path, capsys, scenario, field, value):
    """`solve` exits 2 with one JSON line naming `field`, no traceback and
    no output directory."""
    code = main(
        ["solve", "--set", f"scenario={scenario}", "--set", f"{field}={value}", "--out", str(tmp_path / "o")]
    )
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.strip().splitlines()
    assert len(lines) == 1
    out = json.loads(lines[0])
    assert out["status"] == "error" and out["error"] == "config"
    assert out["field"] == field
    assert "Traceback" not in captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "scenario,field,value",
    [
        ("soft-landing", "lander.isp_s", '"x"'),
        ("soft-landing", "lander.g_ref", "[1]"),
        ("soft-landing", "lander.initial_mass_kg", "0"),
        ("soft-landing", "lander.penalty_weight", '"x"'),
        ("soft-landing", "lander.penalty_rate", "NaN"),
        ("soft-landing", "lander.terminal_weight", '"x"'),
        ("soft-landing", "lander.terminal_weight", "-1"),
        ("soft-landing", "lander.terminal_weight", "3e304"),  # the Hessian 2P = weight times q overflows
        ("soft-landing", "lander.terminal_weight", "1e305"),  # P = weight/2 times q overflows too
        ("soft-landing", "lander.terminal_weight", "1e308"),
        ("soft-landing", "lander.penalty_coord_scale", "1"),  # not a setting: penalty_rate is the one knob
        ("soft-landing", "lander.touchdown_speed_limit_mps", "null"),
        ("rendezvous", "rendezvous.mu", '"x"'),
        ("rendezvous", "rendezvous.alpha", "-1"),
        ("rendezvous", "rendezvous.chaser.a_km", '"x"'),
        ("rendezvous", "rendezvous.chaser.e", "1.0"),
        ("rendezvous", "rendezvous.target.i_deg", '"x"'),
        ("rendezvous", "rendezvous.target.nu_deg", "Infinity"),
        ("rendezvous", "horizon", "3"),
        ("attitude", "seed", "-1"),
        ("attitude", "seed", "0.5"),
        ("attitude", "sweep.warm_start", '"yes"'),  # not a setting: an unknown key
        ("attitude", "output_dir", "5"),
    ],
)
def test_malformed_scalar_is_a_config_error(tmp_path, capsys, scenario, field, value):
    assert_config_error(tmp_path, capsys, scenario, field, value)


@pytest.mark.parametrize(
    "field,value",
    [
        ("solver.alpha_factor", "0.7"),
        ("solver.alpha_count", "16"),
        ("solver.reg_init", "1e-6"),
        ("solver.reg_growth", "10"),
        ("solver.reg_shrink", "0.1"),
        ("solver.reg_min", "1e-8"),
        ("solver.reg_max", "1e8"),
        ("sweep.warm_start", "true"),
    ],
)
def test_a_removed_setting_is_a_config_error(tmp_path, capsys, field, value):
    """The line search, the damping schedule and the sweep's warm start are
    fixed: setting one, even to the value it has, exits 2 naming it."""
    assert_config_error(tmp_path, capsys, "attitude", field, value)


def test_a_horizon_whose_shortest_grid_time_underflows_is_a_config_error(tmp_path, capsys):
    """5% of a subnormal horizon is 0, so the default grid has no first
    point: the run exits 2 naming `horizon`, with one JSON line."""
    argv = ["simulate", "--set", "scenario=rendezvous", "--set", "dt=5e-324", "--set", "horizon=5e-324"]
    code = main([*argv, "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["field"] == "horizon"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command,overrides,error",
    [
        # the initial rollout already passes the cost cap
        ("solve", ["scenario=attitude", "horizon=3", "solver.cost_cap=7"], "DivergenceError"),
        ("simulate", ["scenario=soft-landing", "horizon=3", "lander.isp_s=0.5"], "DivergenceError"),
        # a negative penalty weight rewards descending: the control Hessian
        # stays indefinite up to the damping ceiling
        ("simulate", ["scenario=soft-landing", "horizon=3", "lander.penalty_weight=-1e12"], "RegularizationError"),
        # the target orbit dips below the 1000 km guard near step 2,800, so
        # the design at the horizon (6000 s) has no goal state
        ("solve", ["scenario=rendezvous", "rendezvous.target.e=0.9"], "DynamicsDomainError"),
    ],
)
@pytest.mark.filterwarnings("error")  # the failure is reported, not preceded by numpy warnings
def test_runtime_failure_is_machine_readable(tmp_path, capsys, command, overrides, error):
    argv = [command]
    for item in overrides:
        argv += ["--set", item]
    code = main(argv + ["--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 3 and json.loads(captured.out)["error"] == error
    assert "Traceback" not in captured.err


@pytest.mark.filterwarnings("error")
def test_overflowing_penalty_rate_lands_like_a_large_one(tmp_path, capsys):
    """At penalty_rate 1e300 the penalty's derivative coefficients overflow;
    taken in log space they are 0 high above the ground, as at 1e150, so
    the descent is the same."""
    files = {}
    for rate in ("1e150", "1e300"):
        out = tmp_path / rate
        code, _ = run_cli(
            capsys, "simulate", "--set", "scenario=soft-landing", "--set", "horizon=3",
            "--set", f"lander.penalty_rate={rate}", "--out", str(out),
        )
        assert code == 0
        files[rate] = [(out / name).read_bytes() for name in ("trajectory.csv", "iterations.csv")]
    assert files["1e300"] == files["1e150"]


@pytest.mark.filterwarnings("error")
def test_vanishing_penalty_with_overflowing_weights_lands_like_no_penalty(tmp_path, capsys):
    """With rate 0 the penalty is identically 0, whatever the weight: its
    gradient is -weight * rate = -0 and its Hessian weight * (rate * rate)
    = 0, not inf * 0 = NaN, so the descent is the unpenalized one byte for
    byte."""
    files = []
    for overrides in (
        ["lander.penalty_weight=1e300", "lander.penalty_rate=0"],
        ["lander.penalty_weight=0"],
    ):
        out = tmp_path / str(len(files))
        argv = ["simulate", "--set", "scenario=soft-landing", "--set", "horizon=3", "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        files.append([(out / name).read_bytes() for name in ("trajectory.csv", "iterations.csv")])
    assert files[0] == files[1]


def test_dare_near_the_float_limit_prints_no_warning(tmp_path):
    """Weights of 1e300 put P near the float limit; the run exits 3 with its
    JSON line and nothing on stderr (a fresh interpreter, so numpy's
    default warning filter applies)."""
    src = Path(spacetraj.__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "spacetraj.cli", "solve", "--set", "scenario=attitude", "--set", "horizon=3"]
    argv += ["--set", "q=[1e300,1e300,1e300,1e300,1e300,1e300]", "--set", "r=[1e300,1e300,1e300]"]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([*argv, "--out", str(tmp_path / "o")], capture_output=True, text=True, env=env)
    assert run.returncode == 3
    assert json.loads(run.stdout)["status"] == "error"
    assert run.stderr == ""


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.mark.parametrize(
    "overrides,ideal",
    [([], GOLDEN), (["q=[50]", "r=[50]"], 25.0 * GOLDEN), (["initial_state=[2]"], 4.0 * GOLDEN)],
)
def test_custom_linear_solves_with_its_weights_and_initial_state(tmp_path, capsys, overrides, ideal):
    """Stage cost (q x^2 + r u^2) / 2 from x0: the value is (q / 2) phi x0^2
    when q = r."""
    argv = ["solve", "--set", "scenario=custom-linear"]
    for item in overrides:
        argv += ["--set", item]
    code, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "o"))
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert code == 0
    assert summary["total_cost"] == pytest.approx(ideal, rel=1e-12)
    if not overrides:
        assert summary["total_cost"] == 1.618033988749917


@pytest.mark.parametrize("value", ["[1,2,3]", "[0]", '"x"', "null"])
def test_rendezvous_initial_state_is_a_config_error(tmp_path, capsys, value):
    """The chaser and target orbits give the rendezvous initial state; an
    initial_state is rejected, not ignored."""
    assert_config_error(tmp_path, capsys, "rendezvous", "initial_state", value)


def test_sweep_records_a_goal_orbit_that_leaves_the_domain(tmp_path, capsys):
    """The grid point whose goal orbit crosses the radius guard fails on its
    own; the rest of the sweep runs."""
    code, _ = run_cli(
        capsys, "sweep", "--set", "scenario=rendezvous", "--set", "rendezvous.target.e=0.9",
        "--out", str(tmp_path / "o"),
    )
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert code == 0
    assert [f["T"] for f in summary["failures"]] == [6000.0]
    assert summary["failures"][0]["error"].startswith("DynamicsDomainError: goal orbit left")
    assert summary["first_hitting_time"] == 300.0


@pytest.mark.parametrize("kind", ["not-utf-8", "directory", "missing"])
def test_unreadable_config_file_is_a_config_error(tmp_path, capsys, kind):
    path = tmp_path / "cfg.json"
    if kind == "not-utf-8":
        path.write_bytes(b'\xff{"scenario": "attitude"}')
    elif kind == "directory":
        path.mkdir()
    code, out = run_cli(capsys, "solve", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 2
    assert out["error"] == "config" and out["field"] == str(path)


def test_unwritable_output_dir_is_a_config_error(tmp_path, capsys, monkeypatch):
    # a stub stands in for the command, which the unusable directory stops
    import spacetraj.cli as cli

    monkeypatch.setitem(cli.COMMANDS, "solve", lambda cfg, out: ({}, [], 0))
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out = run_cli(capsys, "solve", "--set", "scenario=custom-linear", "--out", str(blocker / "o"))
    assert code == 2
    assert out["error"] == "config" and out["field"] == "output_dir"


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    code, out = run_cli(capsys, "verify", "--set", "scenario=custom-linear", "--seed", "-1", "--out", str(tmp_path / "o"))
    assert code == 2 and out["field"] == "seed"


@pytest.mark.parametrize(
    "command,scenario",
    [
        ("solve", "rendezvous"),
        ("solve", "soft-landing"),
        ("simulate", "custom-linear"),
        ("verify", "rendezvous"),
        ("verify", "custom-linear"),
        ("sweep", "rendezvous"),
        ("sweep", "custom-linear"),
    ],
)
def test_command_runs_on_the_scenario(tmp_path, capsys, command, scenario):
    """The command x scenario pairs no other test runs, on default configs."""
    files = {
        "solve": ["summary.json", "trajectory.csv", "iterations.csv"],
        "simulate": ["summary.json", "trajectory.csv", "iterations.csv"],
        "verify": ["summary.json"],
        "sweep": ["summary.json", "sweep.csv"],
    }[command]
    code, out = run_cli(capsys, command, "--set", f"scenario={scenario}", "--out", str(tmp_path / "o"))
    assert code == 0 and out["status"] == "ok"
    assert out["artifacts"] == [str(tmp_path / "o" / name) for name in files]
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert (summary["command"], summary["scenario"]) == (command, scenario)
    if command == "verify":
        assert summary["passed"] is True
    if command == "sweep":
        assert summary["failures"] == [] and summary["first_hitting_time"] is not None


# Small horizons keep each fuzzed run short; `dt` and `horizon` are drawn
# from values that keep the step count small or are rejected.
FUZZ_BASE = {
    "attitude": ["horizon=3", "sweep.grid=[1,2,3]"],
    "rendezvous": ["horizon=40", "sweep.grid=[20,40]"],
    "soft-landing": ["horizon=3"],
    "custom-linear": ["horizon=5"],
}
FUZZ_KEYS = [
    "initial_state", "goal_state", "q", "r", "seed", "convergence_levels", "output_dir",
    "solver", "solver.max_iterations", "solver.tolerance", "solver.cost_cap",
    "terminal_set.level", "terminal_set.tolerance", "terminal_set.regulation_cap",
    "terminal_set.state_tol", "terminal_set.cost_cap", "sweep.grid",
    "attitude.inertia_diag", "rendezvous.mu", "rendezvous.alpha", "rendezvous.mass_kg", "rendezvous.chaser",
    *[f"rendezvous.{o}.{f}" for o in ("chaser", "target") for f in ("a_km", "e", "i_deg", "raan_deg", "argp_deg", "nu_deg")],
    "lander", "lander.isp_s", "lander.g_ref", "lander.initial_mass_kg", "lander.inertia_diag",
    "lander.penalty_weight", "lander.penalty_rate", "lander.terminal_weight",
    "lander.terminal_sink_rate_mps", "lander.touchdown_speed_limit_mps", "lander.initial_position_m",
    "lander.initial_velocity_mps", "warp_drive", "solver.warp_drive",
]
FUZZ_NUMBERS = ["-1", "0", "0.5", "1", "2", "3", "-2.5", "7", "1e6", "1e-300", "1e300", "-1e300"]
FUZZ_OTHERS = [
    "NaN", "Infinity", "-Infinity", '"x"', "abc", "null", "true", "[]", "[1,2]", "[1,2,3]",
    "[1,2,3,4,5,6]", "[[1]]", "[NaN,1,1]", '{"a":1}',
]
fuzz_override = st.one_of(
    st.tuples(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_NUMBERS + FUZZ_OTHERS)),
    st.tuples(st.sampled_from(["dt", "horizon"]), st.sampled_from(["0.5", "2", "3", "-1", "0"] + FUZZ_OTHERS)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(["solve", "simulate", "verify", "sweep"]),
    st.sampled_from(sorted(FUZZ_BASE)),
    st.lists(fuzz_override, min_size=1, max_size=3),
)
def test_fuzzed_overrides_end_in_a_documented_exit(command, scenario, overrides):
    """Every override set ends in exit 0, 1, 2 or 3 with exactly one JSON
    line on stdout and no traceback."""
    argv = [command, "--set", f"scenario={scenario}"]
    for item in FUZZ_BASE[scenario] + [f"{key}={value}" for key, value in overrides]:
        argv += ["--set", item]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", tmp])
    assert code in (0, 1, 2, 3)
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["status"] in ("ok", "error")
    assert "Traceback" not in err.getvalue()


# The sections each scenario's problem does not read.
UNREAD_SECTIONS = {
    "attitude": ["rendezvous", "lander"],
    "rendezvous": ["attitude", "lander"],
    "soft-landing": ["attitude", "rendezvous", "terminal_set", "sweep"],
    "custom-linear": ["attitude", "rendezvous", "lander"],
}
# Settable values of the echoed default config (a list counts as one).
ECHOED_VALUES = {"attitude": 19, "rendezvous": 33, "soft-landing": 23, "custom-linear": 18}


@pytest.mark.parametrize(
    "scenario,section", [(s, section) for s, sections in UNREAD_SECTIONS.items() for section in sections]
)
def test_an_unread_section_is_a_config_error(tmp_path, capsys, scenario, section):
    """A section the scenario's problem does not read is rejected by name,
    even when it is empty or holds only defaults."""
    assert_config_error(tmp_path, capsys, scenario, section, "{}")


@pytest.mark.parametrize("scenario", sorted(UNREAD_SECTIONS))
def test_summary_echoes_only_the_sections_the_scenario_reads(tmp_path, capsys, scenario):
    code, _ = run_cli(
        capsys, "solve", "--set", f"scenario={scenario}", *[x for o in FUZZ_BASE[scenario] for x in ("--set", o)],
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    echoed = json.loads((tmp_path / "o" / "summary.json").read_text())["config"]
    sections = {"solver", "terminal_set", "sweep", "attitude", "rendezvous", "lander"}
    assert {k for k, v in echoed.items() if isinstance(v, dict)} == sections - set(UNREAD_SECTIONS[scenario])

    def leaves(data):
        return sum(leaves(v) if isinstance(v, dict) else 1 for v in data.values())

    assert leaves(echoed) == ECHOED_VALUES[scenario]


def test_summary_echoes_config(tmp_path, capsys):
    code, _ = run_cli(
        capsys, "solve", "--set", "scenario=custom-linear", "--out", str(tmp_path / "o")
    )
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["scenario"] == "custom-linear"
    assert summary["schema"] == "summary-v1"
    assert summary["wall_clock_s"] > 0.0


def ref_trajectory_lines(dt, states, controls, stage_costs, phases=None):
    """The per-cell writer: rows built one numpy scalar at a time, every
    cell formatted by `_fmt`."""
    n_controls = len(controls)
    lines = []
    for t, x in enumerate(states):
        row = [t * dt] + [float(v) for v in x]
        if t < n_controls:
            row += [float(v) for v in controls[t]]
            row += [float(stage_costs[t]), int(phases[t]) if phases is not None else 1]
        else:
            row += [0.0] * (len(controls[0]) if n_controls else 0)
            row += [0.0, int(phases[-1]) if phases is not None and len(phases) else 1]
        lines.append(",".join(_fmt(v) for v in row))
    return lines


SPECIAL_CELLS = np.array(
    [-0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-300, -1e300, 1.7976931348623157e308,
     math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0, -2.5, 1e16, 123456789.0]
)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("with_phases", [False, True])
def test_trajectory_writer_matches_the_per_cell_writer(tmp_path, seed, with_phases):
    # a drawn horizon, then horizons at and across the writer's block edges
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 14)), int(rng.integers(1, 7))
    horizons = [int(rng.integers(0, 40)), 0, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7]

    def cells(*shape):
        out = rng.normal(0.0, 10.0 ** rng.integers(-300, 300), shape)
        mask = rng.random(shape) < 0.3
        out[mask] = rng.choice(SPECIAL_CELLS, int(mask.sum()))
        return out

    for T in horizons:
        states, controls, costs = cells(T + 1, n), cells(T, m), cells(T)
        phases = rng.integers(1, 3, T) if with_phases else None
        dt = np.float64(0.1) if seed % 2 else 0.2
        path = write_csv(
            tmp_path / "t.csv", "trajectory-v1", ["h"], trajectory_rows(dt, states, controls, costs, phases)
        )
        want = "# schema: trajectory-v1\nh\n" + "".join(
            line + "\n" for line in ref_trajectory_lines(dt, states, controls, costs, phases)
        )
        assert path.read_bytes() == want.encode("utf-8"), T


def test_write_csv_keeps_formatting_mixed_rows(tmp_path):
    path = write_csv(
        tmp_path / "s.csv", "sweep-v1", ["a", "b", "c", "d", "e"],
        [
            [1.0, True, np.float64(2.5), 3, "x"],
            [0.5, False, 7, np.int64(4), -0.0],
            [1.5, True, 2],  # a bool among plain floats and ints
        ],
    )
    assert path.read_text().splitlines()[2:] == ["1.0,1,2.5,3,x", "0.5,0,7,4.0,-0.0", "1.5,1,2"]


def _block_rows(count):
    for i in range(count):
        yield [float(i), 0.5 * i, i]


def test_a_row_that_raises_leaves_the_target_as_it_was(tmp_path):
    path = write_csv(tmp_path / "t.csv", "trajectory-v1", ["a"], [[1.0]])
    before = path.read_bytes()

    def rows():
        yield from _block_rows(2 * BLOCK_ROWS + 3)  # blocks already written to the sibling
        raise ValueError("bad row")

    with pytest.raises(ValueError, match="bad row"):
        write_csv(path, "trajectory-v1", ["a", "b", "c"], rows())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_an_oserror_mid_write_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    import errno
    import io

    import spacetraj.artifacts as artifacts

    class FullDisk(io.FileIO):
        """A file that takes its first 10,000 bytes, then reports a full disk."""

        taken = 0

        def write(self, data):
            if FullDisk.taken + len(data) > 10_000:
                raise OSError(errno.ENOSPC, "No space left on device")
            FullDisk.taken += len(data)
            return super().write(data)

    def full_disk_open(file, mode, encoding, newline):
        return io.TextIOWrapper(io.BufferedWriter(FullDisk(file, mode)), encoding=encoding, newline=newline)

    path = write_csv(tmp_path / "t.csv", "trajectory-v1", ["a"], [[1.0]])
    before = path.read_bytes()
    monkeypatch.setattr(artifacts, "open", full_disk_open, raising=False)
    with pytest.raises(OSError) as failure:
        write_csv(path, "trajectory-v1", ["a", "b", "c"], _block_rows(8 * BLOCK_ROWS))
    assert failure.value.errno == errno.ENOSPC
    assert FullDisk.taken > 0  # part of the rows had reached the sibling
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


@pytest.mark.parametrize("under", ["x", "x/y", ""])
def test_an_unwritable_out_fails_before_the_solve(tmp_path, capsys, monkeypatch, under):
    import spacetraj.cli as cli

    def no_solve(cfg):
        pytest.fail("the problem was built before the output directory was checked")

    monkeypatch.setattr(cli, "build_problem", no_solve)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out = run_cli(capsys, "simulate", "--set", "scenario=attitude", "--out", str(blocker / under))
    assert code == 2
    assert out["error"] == "config" and out["field"] == "output_dir"
