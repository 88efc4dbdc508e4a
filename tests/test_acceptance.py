"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria with long solves share module-scoped fixtures.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from spacetraj.cli import main as cli_main
from spacetraj.config import emit_config, parse_config_dict, scenario_defaults
from spacetraj.cost import (
    AltitudePenaltySpec,
    QuadraticCostSpec,
    TerminalValue,
    cost_derivatives,
    stage_costs,
)
from spacetraj.dynamics import finite_diff_jacobians, jacobians
from spacetraj.ilqr import solve_fhocp
from spacetraj.lqr import regulation_rollout, solve_dare
from spacetraj.models import (
    OrbitalElements,
    RendezvousParams,
    attitude_model,
    kepler_to_cartesian,
    lander_model,
    rendezvous_model,
)
from spacetraj.scenarios import (
    attitude_problem,
    linear_benchmark,
    rendezvous_problem,
    simulate_landing,
    soft_landing_problem,
    solve_landing,
)
from spacetraj.two_phase import (
    bellman_check,
    convergence_study,
    lyapunov_decrease_ratio,
    solve_two_phase,
    two_phase_simulate,
)
from support import double_integrator

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def report(number: int, name: str, passed: bool, budget_s: float, elapsed: float, detail: str):
    line = (
        f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} {name}: "
        f"{detail} ({elapsed:.2f}s / budget {budget_s:.0f}s)"
    )
    print(line)
    assert passed and elapsed < budget_s, line


@pytest.fixture(scope="module")
def attitude_solution():
    """Shared by criteria 5 and 9: first-hitting solve on the {10 s, 80 s} grid."""
    problem = attitude_problem()
    solution = solve_two_phase(dataclasses.replace(problem, grid=(10.0, 80.0)))
    return problem, solution


def test_criterion_1_dare_scalar_oracle():
    t0 = time.perf_counter()
    sol = solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    err = abs(sol.P[0, 0] - GOLDEN)
    passed = err < 1e-10 and sol.spectral_radius < 1.0
    report(
        1,
        "stationary Riccati scalar oracle",
        passed,
        1.0,
        time.perf_counter() - t0,
        f"|P-phi|={err:.2e}, rho={sol.spectral_radius:.4f}",
    )


def test_criterion_2_ilqr_equals_lqr():
    t0 = time.perf_counter()
    dt, T = 0.1, 50
    model = double_integrator(dt)
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.0], [dt]])
    Q, R = np.eye(2), np.eye(1)
    P_inf = solve_dare(A, B, Q / 2, R / 2).P
    spec = QuadraticCostSpec(Q=Q, R=R)
    terminal = TerminalValue(P=P_inf)
    rng = np.random.default_rng(0)
    worst_rel, worst_iters = 0.0, 0
    for _ in range(5):
        x0 = rng.normal(0.0, 2.0, 2)
        # independent finite-horizon backward recursion
        S = 2.0 * P_inf
        for _ in range(T):
            H = R + B.T @ S @ B
            K = np.linalg.solve(H, B.T @ S @ A)
            S = Q + A.T @ S @ (A - B @ K)
        j_star = 0.5 * float(x0 @ S @ x0)
        rep = solve_fhocp(model, spec, terminal, x0, T)
        worst_rel = max(worst_rel, abs(rep.cost - j_star) / j_star)
        worst_iters = max(worst_iters, len(rep.iterations))
        assert rep.converged
    passed = worst_rel < 1e-8 and worst_iters <= 2
    report(
        2,
        "one-iteration equivalence with finite-horizon LQR",
        passed,
        1.0,
        time.perf_counter() - t0,
        f"max rel err={worst_rel:.2e}, max iterations={worst_iters}",
    )


def test_criterion_3_jacobian_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0

    def check(model, sampler):
        nonlocal worst
        for _ in range(100):
            x, u = sampler(rng)
            ja = jacobians(model, x, u)
            jf = finite_diff_jacobians(model, x, u)
            worst = max(
                worst,
                float(np.linalg.norm(ja.A - jf.A) / max(1.0, np.linalg.norm(jf.A))),
                float(np.linalg.norm(ja.B - jf.B) / max(1.0, np.linalg.norm(jf.B))),
            )

    check(
        attitude_model(),
        lambda r: (
            np.concatenate([r.uniform(-1, 1, 3), r.uniform(-0.2, 0.2, 3)]),
            r.normal(0, 5, 3),
        ),
    )
    check(
        rendezvous_model(),
        lambda r: (
            np.concatenate(
                [r.normal(0, 100, 3), r.normal(0, 1, 3), [1000 + r.normal(0, 100)],
                 7000 + r.normal(0, 300, 3), r.normal(0, 4, 3)]
            ),
            r.normal(0, 0.5, 3) + 0.1,
        ),
    )
    check(
        lander_model(),
        lambda r: (
            np.concatenate(
                [r.uniform(-0.5, 0.5, 3), r.uniform(-0.2, 0.2, 3),
                 r.normal(0, 0.05, 3), r.normal(0, 0.05, 3), [r.uniform(500, 1200)]]
            ),
            r.normal(0.1, 0.2, 6),
        ),
    )
    passed = worst < 1e-5
    report(
        3,
        "analytic vs central-difference Jacobians, 3 models x 100 points",
        passed,
        10.0,
        time.perf_counter() - t0,
        f"max relative error={worst:.2e}",
    )


def test_criterion_4_cost_derivative_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    M = rng.normal(size=(4, 4))
    spec = QuadraticCostSpec(
        Q=M @ M.T + np.eye(4),
        R=np.diag(rng.uniform(0.5, 2.0, 3)),
        penalty=AltitudePenaltySpec(weight=100.0, rate=1.0, index=2),
    )

    def stage_cost(x, u, spec):
        return float(stage_costs([x], [u], spec)[0])

    worst_grad, worst_hess = 0.0, 0.0
    for _ in range(100):
        x = rng.normal(0, 1.0, 4)
        u = rng.normal(0, 1.0, 3)
        der = cost_derivatives(x, u, spec)

        hx, hu, hh = 1e-6, 1e-4, 1e-3
        gx = np.array(
            [
                (stage_cost(x + hx * e, u, spec) - stage_cost(x - hx * e, u, spec)) / (2 * hx)
                for e in np.eye(4)
            ]
        )
        gu = np.array(
            [
                (stage_cost(x, u + hu * e, spec) - stage_cost(x, u - hu * e, spec)) / (2 * hu)
                for e in np.eye(3)
            ]
        )
        H = np.empty((4, 4))
        f0 = stage_cost(x, u, spec)
        E = hh * np.eye(4)
        for i in range(4):
            H[i, i] = (
                stage_cost(x + 2 * E[i], u, spec) - 2 * f0 + stage_cost(x - 2 * E[i], u, spec)
            ) / (4 * hh**2)
            for j in range(i + 1, 4):
                pij = (
                    stage_cost(x + E[i] + E[j], u, spec)
                    - stage_cost(x + E[i] - E[j], u, spec)
                    - stage_cost(x - E[i] + E[j], u, spec)
                    + stage_cost(x - E[i] - E[j], u, spec)
                ) / (4 * hh**2)
                H[i, j] = H[j, i] = pij

        scale = max(1.0, abs(f0))
        worst_grad = max(
            worst_grad,
            float(np.linalg.norm(der.l_x - gx) / max(scale, np.linalg.norm(gx))),
            float(np.linalg.norm(der.l_u - gu) / max(1.0, np.linalg.norm(gu))),
        )
        worst_hess = max(
            worst_hess, float(np.linalg.norm(der.l_xx - H) / max(1.0, np.linalg.norm(H)))
        )
        worst_hess = max(
            worst_hess,
            float(np.linalg.norm(der.l_uu - spec.R) / max(1.0, np.linalg.norm(spec.R))),
        )
    passed = worst_grad < 1e-6 and worst_hess < 1e-6
    report(
        4,
        "cost gradients/Hessians vs finite differences, 100 points",
        passed,
        5.0,
        time.perf_counter() - t0,
        f"max grad err={worst_grad:.2e}, max hess err={worst_hess:.2e}",
    )


def test_criterion_5_attitude_trend(attitude_solution):
    t0 = time.perf_counter()
    problem, solution = attitude_solution
    points = {pt.transfer_time: pt for pt in solution.sweep}
    p10, p80 = points[10.0], points[80.0]
    ordering = p80.total_cost < p10.total_cost
    reg_ratio = p80.regulation_cost / p10.regulation_cost
    # regulation from the 80 s terminal state: norm must drop below 1e-3
    x_T = p80.report.trajectory.states[-1]
    rollout = regulation_rollout(problem.model, x_T, solution.design, problem.cost, problem.terminal_set)
    norms = np.linalg.norm(rollout.states, axis=1)
    drives_down = bool(np.any(norms < 1e-3)) and not rollout.diverged
    passed = ordering and reg_ratio < 0.01 and drives_down
    report(
        5,
        "attitude sweep trend at {10 s, 80 s}",
        passed,
        120.0,
        time.perf_counter() - t0,
        f"total(80)={p80.total_cost:.4g} < total(10)={p10.total_cost:.4g}: {ordering}, "
        f"reg ratio={reg_ratio:.2e}, ||x||<1e-3 reached: {drives_down}",
    )


def test_criterion_6_rendezvous_trend():
    t0 = time.perf_counter()
    problem = rendezvous_problem()
    points = dataclasses.replace(problem, grid=(600.0, 2400.0)).sweep()
    err600, err2400 = points[0].error_norm, points[1].error_norm
    ratio = err600 / err2400
    worst_visviva = 0.0
    rng = np.random.default_rng(3)
    mu = RendezvousParams().mu
    elements = [
        OrbitalElements(7200.0, 0.22, *np.deg2rad([64.0, 66.0, 28.0, 81.0])),
        OrbitalElements(7000.0, 0.1, *np.deg2rad([40.0, 35.0, 10.0, 120.0])),
    ] + [
        OrbitalElements(
            rng.uniform(6800, 42000), rng.uniform(0, 0.85),
            rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi),
            rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi),
        )
        for _ in range(20)
    ]
    for el in elements:
        r, v = kepler_to_cartesian(el, mu)
        vis = mu * (2.0 / np.linalg.norm(r) - 1.0 / el.a)
        worst_visviva = max(worst_visviva, abs(float(v @ v) - vis) / vis)
    passed = ratio >= 100.0 and worst_visviva < 1e-10
    report(
        6,
        "rendezvous final-error trend and orbital-element ingestion",
        passed,
        300.0,
        time.perf_counter() - t0,
        f"err(600)={err600:.4g}, err(2400)={err2400:.4g}, ratio={ratio:.1f}, "
        f"vis-viva err={worst_visviva:.2e}",
    )


def test_criterion_7_soft_landing():
    t0 = time.perf_counter()
    problem = soft_landing_problem()
    assert problem.cost.penalty.weight == 100.0 and problem.cost.penalty.rate == 1.0
    rep = solve_landing(problem)
    result = simulate_landing(problem, rep)
    summary = result.summary
    altitudes = result.states[:, 8]  # SI, m
    terminates_at_crossing = bool(
        summary["touched_down"] and altitudes[-1] < 0.0 and np.all(altitudes[:-1] >= 0.0)
    )
    passed = (
        rep.converged
        and summary["touched_down"]
        and summary["touchdown_time_s"] <= 30.0
        and abs(summary["touchdown_speed_mps"]) < problem.touchdown_speed_limit
        and terminates_at_crossing
    )
    report(
        7,
        "soft landing: descent, touchdown, and termination",
        passed,
        120.0,
        time.perf_counter() - t0,
        f"touchdown at {summary['touchdown_time_s']:.2f}s, |v3|={abs(summary['touchdown_speed_mps']):.2f} m/s "
        f"(limit {problem.touchdown_speed_limit}), converged={rep.converged}",
    )


def test_criterion_8_level_convergence_study():
    t0 = time.perf_counter()
    bench = linear_benchmark()
    ideal = GOLDEN
    levels = [ideal * f for f in (0.5, 0.25, 0.1, 0.03, 0.01, 0.001)]
    rows = convergence_study(bench, levels)
    gaps = [r.gap for r in rows]
    passed = all(g >= -1e-9 for g in gaps) and gaps[-1] < 1e-3 * ideal
    report(
        8,
        "objective-to-optimal gap shrinks with the terminal level",
        passed,
        30.0,
        time.perf_counter() - t0,
        f"gaps={['%.2e' % g for g in gaps]}, finest/ideal={gaps[-1] / ideal:.2e}",
    )


def test_criterion_9_bellman_and_lyapunov(attitude_solution):
    t0 = time.perf_counter()
    # exact on the linear instance
    bench = linear_benchmark()
    bench = dataclasses.replace(
        bench, grid=bench.grid[:20], terminal_set=dataclasses.replace(bench.terminal_set, level=0.002)
    )
    bench_sol = solve_two_phase(bench)
    linear_residuals = [c.residual for c in bellman_check(bench, bench_sol, 3) if not c.skipped]
    linear_ok = bool(linear_residuals) and max(linear_residuals) < 1e-6
    # approximate on three early attitude steps; the cold re-solve has to
    # rediscover the tail value from the zero guess
    problem, solution = attitude_solution
    att_checks = bellman_check(problem, solution, 3)
    att_residuals = [c.residual for c in att_checks if not c.skipped]
    attitude_ok = len(att_residuals) == 3 and max(att_residuals) < 1e-3
    # V = z'Pz decreases at every regulation step of the closed loop
    closed = two_phase_simulate(problem, solution)
    low, high = lyapunov_decrease_ratio(closed, solution.design)
    lyap_ok = low > 0.0
    passed = linear_ok and attitude_ok and lyap_ok
    report(
        9,
        "one-step value consistency and Lyapunov decrease",
        passed,
        180.0,
        time.perf_counter() - t0,
        f"linear max={max(linear_residuals):.2e}, attitude max={max(att_residuals):.2e}, "
        f"decrease ratio=[{low:.4f}, {high:.4f}]",
    )


def test_criterion_10_determinism_and_io(tmp_path, capsys):
    t0 = time.perf_counter()
    # byte-identical CSVs across reruns of the same command
    for d in ("a", "b"):
        code = cli_main(
            ["simulate", "--set", "scenario=soft-landing", "--out", str(tmp_path / d)]
        )
        assert code == 0
    capsys.readouterr()
    identical = (tmp_path / "a" / "trajectory.csv").read_bytes() == (
        tmp_path / "b" / "trajectory.csv"
    ).read_bytes()
    # config round trip for every scenario
    round_trips = all(
        parse_config_dict(emit_config(scenario_defaults(s))) == scenario_defaults(s)
        for s in ("attitude", "rendezvous", "soft-landing", "custom-linear")
    )
    # order-1 energy drift halving on the two-body propagation
    mu = RendezvousParams().mu
    r0 = np.array([7000.0, 0.0, 0.0])
    v0 = np.array([0.0, np.sqrt(mu / 7000.0) * 1.05, 0.3])

    def specific_orbital_energy(r, v, mu):
        return 0.5 * float(np.dot(v, v)) - mu / float(np.linalg.norm(r))

    e0 = specific_orbital_energy(r0, v0, mu)

    def drift(dt, total=1000.0):
        r, v = r0.copy(), v0.copy()
        for _ in range(int(total / dt)):
            acc = -mu * r / np.linalg.norm(r) ** 3
            r, v = r + dt * v, v + dt * acc
        return abs(specific_orbital_energy(r, v, mu) - e0)

    ratio = drift(1.0) / drift(2.0)
    halving = 0.4 < ratio < 0.6
    passed = identical and round_trips and halving
    report(
        10,
        "determinism, config round trip, first-order energy drift",
        passed,
        60.0,
        time.perf_counter() - t0,
        f"byte-identical={identical}, round-trips={round_trips}, drift ratio={ratio:.3f}",
    )
