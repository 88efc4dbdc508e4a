"""Stationary LQR design and the terminal-set machinery built on it.

`solve_dare` finds the stabilizing solution of the discrete algebraic Riccati
equation by the structure-preserving doubling algorithm (Chu, Fan, Lin & Wang,
Int. J. Control 2004): each doubling squares the horizon of the backward
Riccati recursion, so it converges quadratically, in tens of doublings even
when the closed loop sits near the stability boundary (where value iteration
needs tens of thousands of steps). `LqrSolution.iterations` counts doublings.
The returned value matrix P satisfies

    P = Q + A'PA - A'PB (R + B'PB)^-1 B'PA

to a small relative residual, with gain K = (R + B'PB)^-1 B'PA and a stable
closed loop A - BK.

`stationary_design` is the one path from a goal to a design: it linearizes
the model at the goal, checks that the regulated block is a fixed point
there (`linearize_at_goal`) and solves the DARE of that block.

A `RegulationDesign` embeds the design into a (possibly larger) simulation
state: the regulated coordinates z = x[indices] feed the feedback u = -K z and
the quadratic predicted cost z' P z. `regulation_rollout` applies that law to
the full nonlinear model; `in_terminal_set` compares predicted and actual
cost to decide terminal-set membership.

The actual cost is tail-closed: the cost rolled up to the stop plus the
quadratic value z_s' P z_s left at the stopping state z_s, the terminal-cost
argument of quasi-infinite-horizon control (Chen & Allgower, Automatica
1998). The membership rollout therefore stops as soon as

    z_s' P z_s <= TAIL_FRACTION * tolerance * max(predicted, floor)

(or at ||z|| < state_tol, the cap, or divergence, whichever comes first).
Error bound: the tail stands in for the cost the loop would still spend
from z_s. If that cost lies between 0 and twice the tail, stopping moves
the actual cost by at most the tail, so the relative error that membership
tests moves by at most TAIL_FRACTION * tolerance (1e-6 at the default
tolerance, a ten-thousandth of the band). If the loop from z_s meets its
own quadratic prediction to a relative error e, the move is at most
e * TAIL_FRACTION * tolerance relative: near the origin, where the loop
matches its linearization, e is tiny (the attitude sweep moves by 1e-13),
while a design with structural prediction error keeps it (rendezvous, whose
design freezes the moving target, has e of about 2 % and moves by 1e-7).
On a linear model rolled cost plus tail equals the prediction at every
stop, up to rounding. The quadratic form is evaluated only once
||z||^2 <= bound / lambda_min(P) (lambda_min is computed once per design),
since z'Pz cannot reach the bound before that.

A non-member needs only its verdict, so the membership rollout also stops
at the first state z_k whose bracket [rolled_k, rolled_k + 2 z_k'Pz_k]
lies wholly outside the band [predicted - band, predicted + band], and
reports rolled_k + z_k'Pz_k there, marked `decided`:

- rolled_k > predicted + band is exact: stage costs and z'Pz are
  non-negative, so no later stop can bring the cost back into the band.
- rolled_k + 2 z_k'Pz_k < predicted - band rests on the same bracket as the
  tail stop (the cost still to come lies in [0, 2 z_k'Pz_k]).

On that bracket, |reported - full roll| <= z_k'Pz_k at the stop. Members
and undecided points roll exactly as without the test.

The rollout is `dynamics.simulate` under `regulation_law` (see its hot-loop
contract), run in chunks of CHUNK_STEPS steps; z is a view when the
regulated block is contiguous. One `stage_costs` call prices each chunk
(rows price alike in any batch, and the running sum carries over in step
order), the bracket is tested over the chunk's states at once, and the
rollout is cut at the step `cost.first_over_cap` names, as one loop priced
once would be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .cost import QuadraticCostSpec, first_over_cap, stage_costs
from .dynamics import ControlLaw, DiscreteModel, Linearization, jacobians, simulate
from .errors import NotAFixedPointError, StabilizabilityError

FIXED_POINT_RTOL = 1e-9

# A membership rollout stops once the tail z'Pz is at most this fraction of
# the tolerance band tolerance * max(predicted, floor).
TAIL_FRACTION = 1e-4

# Steps per `simulate` call of a regulation rollout; each chunk is priced by
# one `stage_costs` call before the verdict is tested on its states. Longer
# chunks price less often, shorter ones overshoot a decided stop by less.
CHUNK_STEPS = 64


def linearize_at_goal(
    model: DiscreteModel,
    x_eq: np.ndarray,
    u_eq: np.ndarray,
    indices: Optional[np.ndarray] = None,
) -> Linearization:
    """Jacobians of the regulated block x[indices] (the whole state by
    default) at an equilibrium of that block.

    Rejects points whose block is not a fixed point of the discrete map (e.g.
    a lander held by nonzero hover thrust, whose mass-flow keeps the state
    moving). The coordinates outside the block may move: the rendezvous
    target orbits while the relative error stays at zero.
    """
    x_eq = np.asarray(x_eq, dtype=float)
    u_eq = np.asarray(u_eq, dtype=float)
    block = np.arange(model.state_dim) if indices is None else np.asarray(indices, dtype=int)
    residual = float(np.linalg.norm((model.step(x_eq, u_eq) - x_eq)[block]))
    bound = FIXED_POINT_RTOL * (1.0 + float(np.linalg.norm(x_eq[block])))
    if residual > bound:
        raise NotAFixedPointError(
            f"linearization point is not an equilibrium (residual {residual:.3e} "
            f"> {bound:.3e})",
            residual=residual,
            state=x_eq,
        )
    lin = jacobians(model, x_eq, u_eq)
    return Linearization(A=lin.A[np.ix_(block, block)], B=lin.B[block])


@dataclass(frozen=True)
class LqrSolution:
    """Stationary Riccati solution: value matrix, gain, and diagnostics."""

    P: np.ndarray
    K: np.ndarray
    spectral_radius: float
    residual: float
    iterations: int


def dare_residual(P: np.ndarray, A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray) -> float:
    """Relative Frobenius residual of the Riccati fixed-point equation. Where
    P is near the float limit the residual is NaN or inf, without numpy
    warnings, and fails every `< tol` test."""
    with np.errstate(over="ignore", invalid="ignore"):
        K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
        rhs = Q + A.T @ P @ A - A.T @ P @ B @ K
        return float(np.linalg.norm(P - rhs) / max(np.linalg.norm(P), 1e-300))


def solve_dare(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int = 64,
) -> LqrSolution:
    """Structure-preserving doubling with relative-change stopping.

    From A_0 = A, G_0 = B R^-1 B', H_0 = Q, each doubling with
    W = I + G H updates

        H <- H + A' H W^-1 A,   G <- G + A W^-1 G A',   A <- A W^-1 A

    and H_k is the Riccati iterate after 2^k steps, so H -> P and
    `max_iterations` doublings cover 2^max_iterations steps. Raises
    StabilizabilityError on non-convergence (the usual symptom of an
    unstabilizable pair) or an unstable resulting closed loop.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    eye = np.eye(A.shape[0])
    A_k = A
    G = B @ np.linalg.solve(R, B.T)
    G = 0.5 * (G + G.T)
    H = Q
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence detected below
        for iterations in range(1, max_iterations + 1):
            try:
                WA, WG = np.hsplit(np.linalg.solve(eye + G @ H, np.hstack((A_k, G))), 2)
            except np.linalg.LinAlgError:
                raise StabilizabilityError("Riccati doubling hit a singular matrix") from None
            H_next = H + A_k.T @ H @ WA
            H_next = 0.5 * (H_next + H_next.T)
            G = G + A_k @ WG @ A_k.T
            G = 0.5 * (G + G.T)
            A_k = A_k @ WA
            if not np.isfinite(H_next).all():
                raise StabilizabilityError("Riccati doubling diverged")
            change = np.linalg.norm(H_next - H) / max(np.linalg.norm(H_next), 1e-300)
            H = H_next
            if change < tol:
                break
        else:
            raise StabilizabilityError(
                f"Riccati doubling did not converge in {max_iterations} doublings"
            )
    P = H
    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    rho = float(np.max(np.abs(np.linalg.eigvals(A - B @ K))))
    if rho >= 1.0:
        raise StabilizabilityError(f"closed loop not stable (spectral radius {rho:.6f})")
    return LqrSolution(
        P=P,
        K=K,
        spectral_radius=rho,
        residual=dare_residual(P, A, B, Q, R),
        iterations=iterations,
    )


@dataclass(frozen=True)
class RegulationDesign:
    """Stationary design acting on a subset of the simulation state.

    `indices` selects the regulated coordinates (the full state for the
    attitude problem; the relative-error block for rendezvous). `P_full`
    is the value matrix embedded into full-state coordinates for use as a
    terminal cost.
    """

    solution: LqrSolution
    indices: np.ndarray
    state_dim: int
    # `indices` as a basic slice when they are a contiguous range (z a view)
    take: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=int)
        object.__setattr__(self, "indices", idx)
        if idx.ndim != 1 or len(idx) != self.solution.P.shape[0]:
            raise ValueError(
                f"indices must select {self.solution.P.shape[0]} coordinates, got shape {idx.shape}"
            )
        start, stop = int(idx[0]), int(idx[0]) + len(idx)
        contiguous = start >= 0 and np.array_equal(idx, np.arange(start, stop))
        object.__setattr__(self, "take", slice(start, stop) if contiguous else idx)

    @property
    def P_full(self) -> np.ndarray:
        P = np.zeros((self.state_dim, self.state_dim))
        P[np.ix_(self.indices, self.indices)] = self.solution.P
        return P

    def regulated(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[self.take]

    def feedback(self, x: np.ndarray) -> np.ndarray:
        return -self.solution.K @ self.regulated(x)

    @cached_property
    def p_min_eigenvalue(self) -> float:
        """Smallest eigenvalue of P, computed once per design."""
        return float(np.linalg.eigvalsh(self.solution.P)[0])

    def predicted_cost(self, x: np.ndarray) -> float:
        z = self.regulated(x)
        return float(z @ self.solution.P @ z)


def stationary_design(
    model: DiscreteModel,
    cost: QuadraticCostSpec,
    x_eq: np.ndarray,
    u_eq: np.ndarray,
    indices: np.ndarray,
) -> RegulationDesign:
    """The stationary LQR design of the block x[indices] about the goal
    (x_eq, u_eq): the DARE of the block's linearization with the block's
    weights Q/2 and R/2 (the stage cost is x'Qx/2 + u'Ru/2)."""
    block = np.asarray(indices, dtype=int)
    lin = linearize_at_goal(model, x_eq, u_eq, block)
    solution = solve_dare(lin.A, lin.B, cost.Q[np.ix_(block, block)] / 2.0, cost.R / 2.0)
    return RegulationDesign(solution=solution, indices=block, state_dim=model.state_dim)


@dataclass(frozen=True)
class TerminalSetSpec:
    """Membership test parameters for the sublevel set {x : z'Pz <= level}.

    `level` may be None, in which case only the predicted-vs-actual cost
    agreement is tested (the level is then reported from the sweep itself).
    """

    level: Optional[float] = None
    tolerance: float = 1e-2
    regulation_cap: int = 20000
    state_tol: float = 1e-6
    cost_cap: float = 1e12
    floor: float = 1e-9

    def __post_init__(self):
        # comparisons are written so that NaN fails them
        if not (self.level is None or 0.0 < self.level < math.inf):
            raise ValueError(f"level must be positive and finite when given, got {self.level!r}")
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if not (isinstance(self.regulation_cap, (int, np.integer)) and self.regulation_cap >= 1):
            raise ValueError(f"regulation_cap must be an integer >= 1, got {self.regulation_cap!r}")
        for name in ("state_tol", "cost_cap", "floor"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class RegulationRollout:
    """Nonlinear closed loop under u = -K z from one state.

    `stage_costs` holds the cost of each applied control, `cost` their
    running sum (on a cost-cap divergence it also holds the step that tripped
    the cap, which is not applied), and `tail` the quadratic value z'Pz at the
    state the rollout stopped at (0 when it diverged). `decided` says the
    rollout stopped because its tail-closed cost was settled outside the
    membership band, neither converged nor diverged.
    """

    states: np.ndarray
    controls: np.ndarray
    stage_costs: np.ndarray
    cost: float
    tail: float
    converged: bool
    diverged: bool
    message: str = ""
    decided: bool = False

    @property
    def steps(self) -> int:
        return len(self.controls)


def regulation_law(design: RegulationDesign, state_tol: float, tail_bound: float = 0.0) -> ControlLaw:
    """u = -K z, stopping once ||z|| < `state_tol` or, when `tail_bound` is
    positive, once the tail z'Pz is at most `tail_bound`."""
    take, gain = design.take, -design.solution.K  # u = (-K) z, as `feedback`
    P = design.solution.P
    # z'Pz >= lambda_min(P) |z|^2, so z'Pz can reach the bound only once
    # |z|^2 <= bound / lambda_min(P); the quadratic form waits until then
    near = -1.0
    if tail_bound > 0.0:
        p_min = design.p_min_eigenvalue
        near = tail_bound / p_min if p_min > 0.0 else math.inf

    def law(t: int, x: np.ndarray) -> Optional[np.ndarray]:
        z = x[take]
        zz = z.dot(z)
        if math.sqrt(zz) < state_tol or (zz <= near and z.dot(P).dot(z) <= tail_bound):
            return None
        return gain.dot(z)

    return law


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends the rollout as diverged
def regulation_rollout(
    model: DiscreteModel,
    x0: np.ndarray,
    design: RegulationDesign,
    spec: QuadraticCostSpec,
    stop: TerminalSetSpec,
    tail_bound: float = 0.0,
    band: Optional[Tuple[float, float]] = None,
) -> RegulationRollout:
    """Simulate the nonlinear model under u = -K z until the regulated state
    norm drops below `state_tol`, or, when `tail_bound` is positive, the
    tail z'Pz drops to `tail_bound` or below, or the step cap is reached.
    With a `band` (low, high), the rollout also stops, `decided`, at the
    first state whose bracket [rolled, rolled + 2 z'Pz] lies wholly outside
    it (see the module docstring). Divergence (cost cap, non-finite state,
    singular kinematics) is reported in the result, not raised, and without
    numpy warnings."""
    law = regulation_law(design, stop.state_tol, tail_bound)
    take, P = design.take, design.solution.P
    x = np.array(x0, dtype=float)
    X, U, costs = [x[None]], [], []
    rolled, applied, decided, message = 0.0, 0, None, ""
    while applied < stop.regulation_cap and decided is None:
        steps = min(CHUNK_STEPS, stop.regulation_cap - applied)
        Xc, Uc, message = simulate(model, x, law, steps)
        costs_c = stage_costs(Xc[: len(Uc)], Uc, spec)
        running, over = first_over_cap(costs_c, stop.cost_cap, rolled)
        if band is not None:
            # state j of the chunk has rolled running[j - 1]; the states
            # past a cap trip are not tested, the trip decides them
            last = len(Xc) - 1 if over is None else over
            Z = Xc[1 : last + 1, take]
            rolled_at, tails = running[:last], np.einsum("ij,jk,ik->i", Z, P, Z)
            outside = (rolled_at > band[1]) | (rolled_at + 2.0 * tails < band[0])
            if outside.any():
                decided = applied + int(np.argmax(outside)) + 1
        X.append(Xc[1:])
        U.append(Uc)
        costs.append(costs_c)
        applied += len(Uc)
        if message or over is not None or len(Uc) < steps:
            break
        x, rolled = Xc[-1], float(running[-1])
    X, U, costs = np.concatenate(X), np.concatenate(U), np.concatenate(costs)
    running, over = first_over_cap(costs, stop.cost_cap)
    if decided is not None:
        z = X[decided][take]
        return RegulationRollout(
            states=X[: decided + 1],
            controls=U[:decided],
            stage_costs=costs[:decided],
            cost=float(running[decided - 1]),
            tail=float(z.dot(P).dot(z)),
            converged=False,
            diverged=False,
            decided=True,
        )
    converged = not message and len(U) < stop.regulation_cap
    message = message and f"regulation rollout left the dynamics domain: {message}"
    k = len(U) - 1  # the running sum that `cost` reports
    if over is not None:
        # the tripping control is priced but not applied, as a failed step's is
        k = over
        X, U, costs, converged = X[: k + 1], U[:k], costs[:k], False
        message = f"regulation cost exceeded cap ({running[k]:.3e})"
    elif message:
        U, costs = U[:-1], costs[:-1]
    cost = float(running[k]) if k >= 0 else 0.0
    z = X[-1][take]
    return RegulationRollout(
        states=X,
        controls=U,
        stage_costs=costs,
        cost=cost,
        tail=0.0 if message else float(z.dot(P).dot(z)),
        converged=converged,
        diverged=bool(message),
        message=message,
    )


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    predicted_cost: float
    actual_cost: float  # rollout.cost + rollout.tail
    within_tolerance: bool
    within_level: bool
    rollout: RegulationRollout

    def __bool__(self) -> bool:
        return self.member


def in_terminal_set(
    model: DiscreteModel,
    x: np.ndarray,
    design: RegulationDesign,
    spec: QuadraticCostSpec,
    stop: TerminalSetSpec,
) -> MembershipResult:
    """True iff the tail-closed regulation cost (rolled cost plus the z'Pz
    left where the rollout stopped) matches the quadratic prediction within
    the relative tolerance and, when a level is set, the prediction lies
    below it. The rollout stops once the tail is at most TAIL_FRACTION of
    the tolerance band, or once the verdict is decided outside the band (see
    the module docstring). A divergent or decided rollout is never a
    member."""
    predicted = design.predicted_cost(x)
    band = stop.tolerance * max(predicted, stop.floor)
    rollout = regulation_rollout(
        model, x, design, spec, stop, TAIL_FRACTION * band, (predicted - band, predicted + band)
    )
    actual = rollout.cost + rollout.tail
    within_tol = not (rollout.diverged or rollout.decided) and abs(actual - predicted) <= band
    within_level = stop.level is None or predicted <= stop.level
    return MembershipResult(
        member=bool(within_tol and within_level),
        predicted_cost=predicted,
        actual_cost=actual,
        within_tolerance=bool(within_tol),
        within_level=bool(within_level),
        rollout=rollout,
    )
