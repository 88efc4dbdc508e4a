"""Stationary LQR design and the terminal-set machinery built on it.

`solve_dare` finds the stabilizing solution of the discrete algebraic Riccati
equation by the structure-preserving doubling algorithm (Chu, Fan, Lin & Wang,
Int. J. Control 2004): each doubling squares the horizon of the backward
Riccati recursion, so it converges quadratically, in tens of doublings even
when the closed loop sits near the stability boundary (where value iteration
needs tens of thousands of steps). `LqrSolution.iterations` counts doublings.
The doubling stops on a relative change, which on an ill-conditioned P
(cond 1e6 to 1e10) can leave a Riccati residual well above it (5.8e-3 on
one unstable single-input draw). So the residual is checked: above
DARE_REFINE_ABOVE the doubling's P is refined by Newton-Kleinman (Hewer)
steps, and a P still above DARE_RESIDUAL_MAX raises StabilizabilityError.
The returned value matrix P satisfies

    P = Q + A'PA - A'PB (R + B'PB)^-1 B'PA

to a relative residual of at most DARE_RESIDUAL_MAX, with gain
K = (R + B'PB)^-1 B'PA and a stable closed loop A - BK.

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

    z_s' P z_s <= TAIL_FRACTION * tolerance * max(predicted, PREDICTION_FLOOR)

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
contract), one call, or with a band chunks of CHUNK_STEPS steps; z is a
view when the regulated block is contiguous. `cost.priced` prices and cuts
each call, with the running sum carried over in step order (rows price
alike in any batch), so the rollout keeps what one loop priced once keeps:
a control that tripped the cost cap stays with its cost and the state it
led to, one that left the dynamics domain with its cost and no successor
state, and `cost` is always the last running sum. The bracket is then
tested over the cut chunk's states at once, except the state after a trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .cost import QuadraticCostSpec, priced
from .dynamics import ControlLaw, DiscreteModel, Linearization, jacobians, simulate
from .errors import NotAFixedPointError, StabilizabilityError, integer, positive

FIXED_POINT_RTOL = 1e-9

# Largest relative Riccati residual (`dare_residual`) of a P that
# `solve_dare` returns. Above DARE_REFINE_ABOVE the doubling's P is refined,
# by at most NEWTON_STEPS Newton-Kleinman steps: a residual of 3.9e-10 with
# cond(P) = 3.3e6 still misses a closed-loop step's prediction by 1.7e-9
# relative, while the default designs' residuals are at most 2.5e-16.
DARE_RESIDUAL_MAX = 1e-9
DARE_REFINE_ABOVE = 1e-10
NEWTON_STEPS = 8

# The membership band is tolerance * max(predicted, PREDICTION_FLOOR), so a
# prediction near zero still leaves an absolute band.
PREDICTION_FLOOR = 1e-9

# A membership rollout stops once the tail z'Pz is at most this fraction of
# the tolerance band.
TAIL_FRACTION = 1e-4

# Steps per `simulate` call of a regulation rollout with a band; each chunk is
# priced by one `cost.priced` call before the verdict is tested on its states.
# Longer chunks price less often, shorter ones overshoot a decided stop by less.
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


def _newton_kleinman(
    P: np.ndarray, A: np.ndarray, B: np.ndarray, Q: np.ndarray, R: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Newton-Kleinman (Hewer) steps from a stabilizing P, in correction
    form: with K and A_c = A - BK of the current P and F(P) the Riccati
    right-hand side minus P, each step solves the Stein equation

        D - A_c' D A_c = F(P)

    (as one Kronecker system of n^2 unknowns) and sets P <- P + D. Stops
    once the residual is at most DARE_REFINE_ABOVE or after NEWTON_STEPS
    steps, and returns the P of the smallest residual met (the given P
    included), with it."""
    n = A.shape[0]
    eye = np.eye(n * n)
    residual = dare_residual(P, A, B, Q, R)
    best = (P, residual if math.isfinite(residual) else math.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite P fails the test after
        for _ in range(NEWTON_STEPS):
            K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
            A_c = A - B @ K
            F = Q + A.T @ P @ A - A.T @ P @ B @ K - P
            D = np.linalg.solve(eye - np.kron(A_c.T, A_c.T), (0.5 * (F + F.T)).ravel()).reshape(n, n)
            P = P + 0.5 * (D + D.T)
            residual = dare_residual(P, A, B, Q, R)
            if residual < best[1]:
                best = (P, residual)
            if residual <= DARE_REFINE_ABOVE:
                break
    return best


def solve_dare(
    A: np.ndarray,
    B: np.ndarray,
    Q: np.ndarray,
    R: np.ndarray,
    tol: float = 1e-12,
    max_iterations: int = 64,
) -> LqrSolution:
    """Structure-preserving doubling with relative-change stopping, then a
    check of the Riccati residual.

    From A_0 = A, G_0 = B R^-1 B', H_0 = Q, each doubling with
    W = I + G H updates

        H <- H + A' H W^-1 A,   G <- G + A W^-1 G A',   A <- A W^-1 A

    and H_k is the Riccati iterate after 2^k steps, so H -> P and
    `max_iterations` doublings cover 2^max_iterations steps. A P whose
    residual exceeds DARE_REFINE_ABOVE is refined by `_newton_kleinman`; a
    P within it is returned as the doubling left it. Raises
    StabilizabilityError on non-convergence (the usual symptom of an
    unstabilizable pair), an unstable resulting closed loop, or a residual
    still above DARE_RESIDUAL_MAX.
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
    residual = dare_residual(P, A, B, Q, R)
    if not residual <= DARE_REFINE_ABOVE:  # NaN is refined too
        try:
            P, residual = _newton_kleinman(P, A, B, Q, R)
        except np.linalg.LinAlgError:
            raise StabilizabilityError("Newton-Kleinman refinement hit a singular matrix") from None
    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    rho = float(np.max(np.abs(np.linalg.eigvals(A - B @ K))))
    if rho >= 1.0:
        raise StabilizabilityError(f"closed loop not stable (spectral radius {rho:.6f})")
    if not residual <= DARE_RESIDUAL_MAX:
        raise StabilizabilityError(
            f"Riccati residual {residual:.3e} above {DARE_RESIDUAL_MAX:.0e} after Newton-Kleinman refinement"
        )
    return LqrSolution(P=P, K=K, spectral_radius=rho, residual=residual, iterations=iterations)


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
    Each field is checked here once (ConfigError naming it); the count may
    be an integral float and is stored as int.
    """

    level: Optional[float] = None
    tolerance: float = 1e-2
    regulation_cap: int = 20000
    state_tol: float = 1e-6
    cost_cap: float = 1e12

    def __post_init__(self):
        if self.level is not None:
            positive(self.level, "level")
        positive(self.tolerance, "tolerance")
        object.__setattr__(self, "regulation_cap", integer(self.regulation_cap, "regulation_cap", 1))
        positive(self.state_tol, "state_tol")
        positive(self.cost_cap, "cost_cap")


@dataclass(frozen=True)
class RegulationRollout:
    """Nonlinear closed loop under u = -K z from one state.

    `stage_costs` holds the cost of each applied control, `cost` their
    running sum, and `tail` the quadratic value z'Pz at the state the
    rollout stopped at (0 when it diverged). A diverged rollout keeps its
    last control (see `cost.priced`); when that one left the dynamics
    domain it has no successor state, so `states` has `steps` rows, not
    `steps + 1`. `decided` says the rollout stopped because its tail-closed
    cost was settled outside the membership band, neither converged nor
    diverged.
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
    take, gain = design.take, -design.solution.K  # u = (-K) z
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
    start: Tuple[float, int] = (0.0, 0),
) -> RegulationRollout:
    """Simulate the nonlinear model under u = -K z until the regulated state
    norm drops below `state_tol`, or, when `tail_bound` is positive, the
    tail z'Pz drops to `tail_bound` or below, or the step cap is reached.
    With a `band` (low, high), the rollout also stops, `decided`, at the
    first state whose bracket [rolled, rolled + 2 z'Pz] lies wholly outside
    it (see the module docstring). Divergence (cost cap, non-finite state,
    singular kinematics) is reported in the result, not raised, and without
    numpy warnings. `start` = (cost, steps) resumes a rollout stopped at
    `x0`: both caps, `cost` and `converged` count from it, in step order, and
    the result holds the resumed steps only (none once `steps` is the cap)."""
    law = regulation_law(design, stop.state_tol, tail_bound)
    take, P = design.take, design.solution.P
    (rolled, applied), decided = start, False
    chunk = CHUNK_STEPS if band is not None else stop.regulation_cap - applied
    x = np.array(x0, dtype=float)
    X, U, costs = [x[None]], [], []
    while True:
        steps = min(chunk, stop.regulation_cap - applied)
        Xc, Uc, costs_c, running, message = priced(simulate(model, x, law, steps), spec, stop.cost_cap, rolled)
        if band is not None:
            # state j of the chunk has rolled running[j - 1]; a diverged
            # chunk's last control led to no state to test
            Z = Xc[1 : len(Uc) + (not message), take]
            rolled_at, tails = running[: len(Z)], np.einsum("ij,jk,ik->i", Z, P, Z)
            outside = (rolled_at > band[1]) | (rolled_at + 2.0 * tails < band[0])
            if outside.any():
                k = int(np.argmax(outside)) + 1
                Xc, Uc, costs_c, running, message, decided = Xc[: k + 1], Uc[:k], costs_c[:k], running[:k], "", True
        X.append(Xc[1:])
        U.append(Uc)
        costs.append(costs_c)
        applied += len(Uc)
        if len(Uc):
            rolled = float(running[-1])
        if decided or message or len(Uc) < steps or applied >= stop.regulation_cap:
            break
        x = Xc[-1]
    X, U, costs = np.concatenate(X), np.concatenate(U), np.concatenate(costs)
    z = X[-1][take]
    return RegulationRollout(
        states=X,
        controls=U,
        stage_costs=costs,
        cost=rolled,
        tail=0.0 if message else float(z.dot(P).dot(z)),
        converged=not (message or decided) and applied < stop.regulation_cap,
        diverged=bool(message),
        message=message and f"regulation rollout {message}",
        decided=decided,
    )


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    predicted_cost: float
    actual_cost: float  # rollout.cost + rollout.tail
    within_tolerance: bool
    within_level: bool
    rollout: RegulationRollout


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
    band = stop.tolerance * max(predicted, PREDICTION_FLOOR)
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
