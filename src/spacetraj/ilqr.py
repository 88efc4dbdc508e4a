"""Finite-horizon trajectory optimization by iterative LQR, with Newton
steps where the model states its second partials.

Each iteration expands the cost to second order and the dynamics to first
order around the incumbent trajectory, computes feedforward/feedback gains by
a backward sweep of the state-control value function partials

    Q_x  = l_x  + A' V_x          Q_u  = l_u + B' V_x
    Q_xx = l_xx + A' V_xx A       Q_ux = B' V_xx A
    Q_uu = l_uu + B' V_xx B + lambda I

    k = -Q_uu^-1 Q_u              K = -Q_uu^-1 Q_ux

    V_x  = Q_x  + K'Q_uu k + K'Q_u  + Q_xu k
    V_xx = Q_xx + K'Q_uu K + K'Q_ux + Q_xu K

and rolls the nonlinear dynamics forward under u <- u_nom + alpha * k +
K (x - x_nom) with a backtracking line search on alpha. The damping lambda
shrinks after accepted steps and, as in Tassa, Erez & Todorov (IROS 2012),
grows by compounding factors: the k-th rejected line search in a row
multiplies it by REG_GROWTH**k. The line search and the damping schedule
are constants of this module. On linear-quadratic problems one accepted
iteration reaches the exact finite-horizon LQR optimum. Solves are
deterministic: identical inputs produce bitwise-identical logs.

The recursion above is Gauss-Newton: it drops the dynamics' second-order
term V_x . f_xx (Tassa, Erez & Todorov, IROS 2012) and converges only
linearly on a nonlinear model. A model that states `deriv_hessians` (rates affine in the
control, so f_ux = f_uu = 0) gets the term back in Q_xx, the full DDP step
of Jacobson & Mayne (1970), which converges quadratically near the optimum:
on the default attitude walk each warm-started point up to the first
hitting time stops in 3 passes at max ||Q_u|| below 5e-6, where Gauss-Newton took 4 to 6 and stopped at 5e-3
to 1e-2. Far from the optimum the term can make Q_uu indefinite; the first
curvature pass that fails its Cholesky test is redone without it, and that
solve stays Gauss-Newton (`solve_fhocp`). Other models run the
Gauss-Newton sweep with the same bits as before the term existed.

The sweep runs over z = [u; x; 1]. With the stage expansion packed into
L_t = [[l_uu, 0, l_u], [0, l_xx, l_x], [l_u', l_x', 0]], the dynamics into
F_t = [[B A 0], [0 0 1]] and V = [[V_xx, V_x], [V_x', c]], each step is one
product, one solve and one update:

    H = L_t + F_t' V F_t,  H_uu += lambda I
                                (H_uu = Q_uu, H_u,[x 1] = [Q_ux | Q_u])
    [K | k] = -H_uu^-1 H_u,[x 1]
    V <- S' H S,   S = [[K, k], [I, 0], [0, 1]]

A Newton pass adds V_x . f_xx, formed from step t + 1's V_x, to step t's
Q_xx. Q_xx enters no gain, and S's x rows are [I 0], so it reaches V only
as V_xx's own term: the sweep adds it to V_xx after the update, one add
per step on a block that exists anyway.

This is exact: the damped Q_uu that gives the gains also enters V, so both
are the Riccati recursion with stage weight R + lambda I, and S' H S is the
four-term update above as one product. Unlike the equal two-term form
H_[x1],[x1] - H_[x1],u H_uu^-1 H_u,[x1], its error is second-order in the
gains' error (on the soft-landing trajectory the two-term form's worst
error against long double measured 5.2x the per-step reference's, this
form's 1.6x). The damping is added after the product, as the per-step
reference adds it, so the solve sees the reference's rounding of Q_uu
whenever the products agree. Only V_xx is symmetrized. The batched
Jacobians and cost expansion are packed into F_t and L_t `SWEEP_BLOCK`
steps at a time, in two buffers allocated once per pass, so a pass holds a
block of them rather than the whole horizon; of each H_t only the damped
[Q_uu | Q_u] is kept. The curvature stack, dt times the model's
(T, n, n, n) second partials, is read a block at a time alongside them.
The gradient norm and the predicted change are formed after the sweep from
those, and one batched finiteness and Cholesky test checks every damped
Q_uu (Cholesky alone accepts NaN); on failure of a Gauss-Newton pass the
steps are re-tested from the last, so the error names the step a per-step
test would have named. A failed curvature pass is only redone, so it needs
no step: it tests each block as it is swept and stops at the first that
fails.

The rollouts are `dynamics.simulate` under the open-loop law ``U[t]`` and
the affine `tracking_law`, priced and cut by `cost.priced` after the loop as
its hot-loop contract states: their states and controls are bitwise the
``@`` formulas kept in ``tests/test_bitexact.py``, and they return None
exactly where a test after each step would have stopped. The sweep is held
to measured bounds instead: relative to each quantity's largest entry it
agrees with the per-step reference to 1e-12 on the scenario trajectories
(measured <= 3e-14). Its worst error against long double is within twice the
reference's plus 1e-14 on the scenario trajectories; on rare generated
unstable draws none of the double-precision evaluation orders tried stays
within it (see ``tests/test_bitexact.py``). It calls the gufunc behind
`np.linalg.solve` inside its one `np.errstate`, as the wrapper's own error
state costs several 3x3 solves; a singular Q_uu then gives NaN gains, which
the deferred test rejects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.linalg import _umath_linalg

from .cost import QuadraticCostSpec, TerminalValue, cost_derivatives, priced
from .dynamics import ControlLaw, DiscreteModel, jacobians, simulate
from .errors import DivergenceError, RegularizationError, integer, positive

# Line-search step sizes 0.7**i, i < 16, tried in order.
ALPHAS = tuple(0.7**i for i in range(16))
# Damping schedule: the first lambda, its compounding growth per rejected
# line search, its shrink per accepted step, and its floor and ceiling.
REG_INIT = 1e-6
REG_GROWTH = 10.0
REG_SHRINK = 0.1
REG_MIN = 1e-8
REG_MAX = 1e8
# Steps of the backward sweep packed into F_t and L_t at a time.
SWEEP_BLOCK = 64


@dataclass(frozen=True)
class Trajectory:
    """Dynamically feasible rollout with its cost breakdown."""

    states: np.ndarray  # (T+1, n)
    controls: np.ndarray  # (T, m)
    stage_costs: np.ndarray  # (T,)
    terminal_cost: float

    @property
    def horizon(self) -> int:
        return len(self.controls)

    @property
    def phase_cost(self) -> float:
        """Accumulated stage cost, terminal value excluded."""
        return float(np.sum(self.stage_costs))

    @property
    def total_cost(self) -> float:
        return self.phase_cost + self.terminal_cost


@dataclass(frozen=True)
class GainSchedule:
    feedforward: np.ndarray  # (T, m)
    feedback: np.ndarray  # (T, m, n)
    gradient_norm: float  # max_t ||Q_u(t)||
    change_linear: float  # sum_t k' Q_u        (negative when improving)
    change_quadratic: float  # sum_t k' Q_uu k

    def predicted_change(self, alpha: float) -> float:
        """Quadratic-model cost change for a step of size alpha (< 0 is a decrease)."""
        return alpha * self.change_linear + 0.5 * alpha**2 * self.change_quadratic


@dataclass(frozen=True)
class SolverSettings:
    """iLQR settings, also the config's `solver` section. Each field is
    checked here once (ConfigError naming it); `max_iterations` may be an
    integral float and is stored as int."""

    max_iterations: int = 500
    tolerance: float = 1e-8  # relative cost change / stationarity threshold
    cost_cap: float = 1e30  # rollout divergence threshold

    def __post_init__(self):
        object.__setattr__(self, "max_iterations", integer(self.max_iterations, "max_iterations", 1))
        positive(self.tolerance, "tolerance")
        positive(self.cost_cap, "cost_cap")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    cost: float
    alpha: float  # 0.0 when no step was accepted
    regularization: float
    gradient_norm: float
    accepted: bool


@dataclass(frozen=True)
class SolveReport:
    """A solve's result. `curvature_used` is None for a model without
    `deriv_hessians`, else whether any gains came from a curvature (Newton)
    pass; `curvature_dropped_at` is the iteration whose curvature pass
    failed the Cholesky test, from which on the solve ran Gauss-Newton
    (None when it never did)."""

    trajectory: Trajectory
    iterations: Tuple[IterationRecord, ...]
    converged: bool
    status: str
    curvature_used: Optional[bool] = None
    curvature_dropped_at: Optional[int] = None

    @property
    def cost(self) -> float:
        return self.trajectory.total_cost

    def curvature_summary(self) -> dict:
        """The `summary.json` fields of the curvature, none for a model
        without second partials."""
        if self.curvature_used is None:
            return {}
        return {"curvature_used": self.curvature_used, "curvature_dropped_at": self.curvature_dropped_at}


def rollout(
    model: DiscreteModel,
    x0: np.ndarray,
    controls: np.ndarray,
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    cost_cap: float = 1e30,
) -> Optional[Trajectory]:
    """Roll the nonlinear dynamics under an open-loop control sequence.

    Returns None when the rollout diverges (non-finite state, cost above the
    cap, or the dynamics leave their domain).
    """
    controls = np.asarray(controls, dtype=float)
    simulation = simulate(model, x0, lambda t, x: controls[t], len(controls))
    return _priced(simulation, spec, terminal, cost_cap)


def tracking_law(controls: np.ndarray, feedback: np.ndarray, states: np.ndarray) -> ControlLaw:
    """The affine law ``u_t = controls[t] + feedback[t] (x_t - states[t])``
    that tracks a nominal (`controls` may carry a shifted feedforward)."""
    return lambda t, x: controls[t] + feedback[t].dot(x - states[t])


def _priced(
    simulation: Tuple[np.ndarray, np.ndarray, str],
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    cost_cap: float,
) -> Optional[Trajectory]:
    """The finished rollout with its stage costs, or None when `cost.priced`
    cuts it: a candidate that diverges at any step is rejected whole."""
    states, controls, costs, _, message = priced(simulation, spec, cost_cap)
    return None if message else Trajectory(states, controls, costs, terminal.value(states[-1]))


def _definite(Q_uus: np.ndarray) -> bool:
    """One batched test: every Q_uu is finite and passes Cholesky."""
    if not np.isfinite(Q_uus).all():  # Cholesky lets NaN through
        return False
    try:
        np.linalg.cholesky(Q_uus)
        return True
    except np.linalg.LinAlgError:
        return False


def _first_indefinite_step(Q_uus: np.ndarray) -> int:
    """Latest step whose Q_uu is non-finite or fails the Cholesky test, as a
    per-step test walking back from T - 1 would name it; -1 when every one
    passes. The walk is for a batch that failed `_definite`."""
    for t in range(len(Q_uus) - 1, -1, -1):
        if not np.isfinite(Q_uus[t]).all():
            return t
        try:
            np.linalg.cholesky(Q_uus[t])
        except np.linalg.LinAlgError:
            return t
    return -1


def backward_pass(
    traj: Trajectory,
    model: DiscreteModel,
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    regularization: float,
    curvature: Optional[np.ndarray] = None,
) -> GainSchedule:
    """Backward sweep producing the gain schedule at the given damping.

    A Riccati sweep over z = [u; x; 1] (see the module docstring) on one
    batched Jacobian and one cost-expansion call, packed into F_t and L_t
    one block of steps at a time. `curvature`, the (T, n, n, n) stack of
    the step map's second partials in the state (dt times the model's
    `deriv_hessians`), adds V_x . f_xx to each step's Q_xx (a Newton step);
    without it the sweep is Gauss-Newton.
    Raises RegularizationError if the damped Q_uu is non-finite or fails its
    Cholesky test at any step (the latest such step is named; a pass with
    `curvature` names none); the solve loop escalates lambda, or drops the
    curvature, and retries.
    """
    T = traj.horizon
    n, m = model.state_dim, model.control_dim
    X, U = traj.states[:-1], traj.controls
    u_, x_, one = slice(0, m), slice(m, m + n), m + n
    lin = jacobians(model, X, U)
    der = cost_derivatives(X, U, spec)
    block = min(T, SWEEP_BLOCK)
    F = np.zeros((block, n + 1, m + n + 1))  # [[B A 0], [0 0 1]] of one block
    F[:, n, one] = 1.0
    H = np.empty((block, m + n + 1, m + n + 1))  # L_t of one block, turned into H_t by the sweep
    damped = np.einsum("tii->ti", H[:, u_, u_])  # view of each Q_uu's diagonal
    QU = np.empty((T, m, m + 1))  # the damped [Q_uu | Q_u] of every step
    G = np.empty((T, m, n + 1))  # -[K | k]
    S = np.zeros((m + n + 1, n + 1))  # -S_t of the module docstring
    S[range(m, m + n + 1), range(n + 1)] = -1.0
    V = np.zeros((n + 1, n + 1))
    V[:n, :n] = terminal.hessian()
    V[:n, n] = V[n, :n] = terminal.gradient(traj.states[T])
    solve = _umath_linalg.solve
    # Past an indefinite or singular Q_uu the sweep runs on meaningless values
    # (overflow, NaN gains) until the deferred test below rejects it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for stop in range(T, 0, -block):
            start = max(stop - block, 0)
            k = stop - start
            F[:k, :n, u_] = lin.B[start:stop]
            F[:k, :n, x_] = lin.A[start:stop]
            H[:k] = 0.0
            H[:k, u_, u_] = der.l_uu[start:stop]
            H[:k, x_, x_] = der.l_xx[start:stop]
            H[:k, u_, one] = H[:k, one, u_] = der.l_u[start:stop]
            H[:k, x_, one] = H[:k, one, x_] = der.l_x[start:stop]
            # the block's f_xx, each step's (n, n, n) as n rows of n * n
            C = None if curvature is None else curvature[start:stop].reshape(k, n, n * n)
            for t in range(stop - 1, start - 1, -1):
                F_t, H_t = F[t - start], H[t - start]
                H_t += F_t.T.dot(V).dot(F_t)
                if C is not None:  # V_x . f_xx from V_x(t + 1), before V moves to step t
                    curved = V[:n, n].dot(C[t - start]).reshape(n, n)
                damped[t - start] += regularization
                G[t] = solve(H_t[u_, u_], H_t[u_, m:], out=S[u_])
                V = S.T.dot(H_t).dot(S)
                V_xx = V[:n, :n]
                V_xx[...] = 0.5 * (V_xx + V_xx.T)
                if C is not None:  # Q_xx enters no gain, only V_xx, as itself
                    V_xx += curved
            QU[start:stop, :, :m] = H[:k, u_, u_]
            QU[start:stop, :, m] = H[:k, u_, one]
            # a curvature pass is only redone on failure, so it stops at the
            # first block that fails (on a cold solve, often the first swept)
            if C is not None and not _definite(QU[start:stop, :, :m]):
                raise RegularizationError(
                    f"control Hessian with curvature not positive definite with damping {regularization:.3e}"
                )
        del lin, der, F, H, damped  # before the deferred test's copies of QU
        Q_uus = QU[:, :, :m]
        bad = -1 if curvature is not None or _definite(Q_uus) else _first_indefinite_step(Q_uus)
    if bad >= 0:
        raise RegularizationError(
            f"control Hessian not positive definite at step {bad} "
            f"with damping {regularization:.3e}"
        )
    ks = -G[:, :, n]
    Q_u = QU[:, :, m]
    return GainSchedule(
        feedforward=ks,
        feedback=-G[:, :, :n],
        gradient_norm=math.sqrt(np.einsum("ti,ti->t", Q_u, Q_u).max()),
        # summed in step order: `einsum` would run QU's column as one strided
        # row (H's column went step by step) and round the sum differently
        change_linear=float(np.cumsum(np.einsum("ti,ti->t", ks, Q_u))[-1]),
        change_quadratic=float(np.einsum("ti,tij,tj->", ks, Q_uus, ks)),
    )


def forward_pass(
    traj: Trajectory,
    gains: GainSchedule,
    alpha: float,
    model: DiscreteModel,
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    cost_cap: float = 1e30,
) -> Optional[Trajectory]:
    """Closed-loop rollout of the updated policy from the same initial state.

    Returns the candidate trajectory, or None when it diverges (a rejected
    line-search candidate, not an error).
    """
    # u_t = (u_nom + alpha k)_t + K_t (x_t - x_nom_t); the bracket is
    # elementwise, so it is formed for all steps at once
    shifted = traj.controls + alpha * gains.feedforward
    law = tracking_law(shifted, gains.feedback, traj.states)
    return _priced(simulate(model, traj.states[0], law, traj.horizon), spec, terminal, cost_cap)


def solve_fhocp(
    model: DiscreteModel,
    spec: QuadraticCostSpec,
    terminal: TerminalValue,
    x0: np.ndarray,
    steps: int,
    settings: SolverSettings | None = None,
    initial_controls: Optional[np.ndarray] = None,
) -> SolveReport:
    """Solve the fixed-horizon problem

        min sum_t c(x_t, u_t) + x_T' P x_T   s.t.  x_{t+1} = f(x_t, u_t)

    by iterating backward/forward passes until the relative cost change (or
    the predicted improvement) drops below the tolerance.

    When the model states `deriv_hessians`, each backward pass adds the
    dynamics' second-order term (`backward_pass`'s `curvature`). The first
    curvature pass that fails the Cholesky test is redone at the same
    damping without it, and the solve stays Gauss-Newton from there on: a
    fallback per pass measured more passes on cold solves, not fewer.
    """
    settings = settings or SolverSettings()
    if not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ValueError(f"horizon must be at least one step, got {steps!r}")
    if initial_controls is None:
        initial_controls = np.zeros((steps, model.control_dim))
    else:
        initial_controls = np.asarray(initial_controls, dtype=float)
        if initial_controls.shape != (steps, model.control_dim):
            raise ValueError(
                f"initial controls have shape {initial_controls.shape}, "
                f"expected {(steps, model.control_dim)}"
            )

    traj = rollout(model, x0, initial_controls, spec, terminal, settings.cost_cap)
    if traj is None:
        raise DivergenceError("initial control sequence produces a divergent rollout")

    lam = REG_INIT
    failures = 0  # consecutive rejected line searches
    log: List[IterationRecord] = []
    converged = False
    status = "max_iterations"
    newton = None if model.deriv_hessians is None else False  # a curvature pass gave gains
    dropped = None  # the iteration whose curvature pass failed
    curvature, curvature_of = None, None  # the stack and the trajectory it was formed on

    for it in range(1, settings.max_iterations + 1):
        if newton is not None and dropped is None and curvature_of is not traj:
            curvature, curvature_of = model.deriv_hessians(traj.states[:-1], traj.controls), traj
            curvature *= model.dt
        while True:
            try:
                gains = backward_pass(traj, model, spec, terminal, lam, curvature)
                if curvature is not None:
                    newton = True
                break
            except RegularizationError:
                if curvature is not None:
                    curvature, dropped = None, it
                    continue
                if lam >= REG_MAX:
                    raise
                lam = min(lam * REG_GROWTH, REG_MAX)

        scale = max(abs(traj.total_cost), 1.0)
        if abs(gains.predicted_change(1.0)) < settings.tolerance * scale:
            log.append(
                IterationRecord(it, traj.total_cost, 0.0, lam, gains.gradient_norm, False)
            )
            converged = True
            status = "stationary"
            break

        candidate = None
        accepted_alpha = 0.0
        for alpha in ALPHAS:
            cand = forward_pass(traj, gains, alpha, model, spec, terminal, settings.cost_cap)
            if cand is not None and cand.total_cost < traj.total_cost:
                candidate = cand
                accepted_alpha = alpha
                break

        if candidate is None:
            log.append(
                IterationRecord(it, traj.total_cost, 0.0, lam, gains.gradient_norm, False)
            )
            if lam >= REG_MAX:
                status = "line_search_failed"
                break
            failures += 1
            lam = min(lam * REG_GROWTH**failures, REG_MAX)
            continue

        failures = 0
        rel_change = abs(traj.total_cost - candidate.total_cost) / scale
        traj = candidate
        lam = max(lam * REG_SHRINK, REG_MIN)
        log.append(
            IterationRecord(
                it, traj.total_cost, accepted_alpha, lam, gains.gradient_norm, True
            )
        )
        if rel_change < settings.tolerance:
            converged = True
            status = "cost_change"
            break

    return SolveReport(
        trajectory=traj,
        iterations=tuple(log),
        converged=converged,
        status=status,
        curvature_used=newton,
        curvature_dropped_at=dropped,
    )
