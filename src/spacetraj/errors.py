"""Exception types shared across the toolkit."""

from __future__ import annotations

import numpy as np


class SpacetrajError(Exception):
    """Base class for all toolkit errors."""


class SingularityError(SpacetrajError, ValueError):
    """A dynamics evaluation hit a kinematic singularity or produced non-finite values."""

    def __init__(self, message: str, state: np.ndarray | None = None):
        super().__init__(message)
        self.state = None if state is None else np.array(state, dtype=float)


class DynamicsDomainError(SpacetrajError, ValueError):
    """A state left the domain where the dynamics are defined (radius, mass, ...)."""


class NotAFixedPointError(SpacetrajError, ValueError):
    """Requested linearization point is not an equilibrium of the discrete map."""

    def __init__(self, message: str, residual: float, state: np.ndarray):
        super().__init__(message)
        self.residual = float(residual)
        self.state = np.array(state, dtype=float)


class DivergenceError(SpacetrajError, ValueError):
    """A rollout diverged before any optimization: its running cost tripped
    the cap or a step left the dynamics domain."""


class StabilizabilityError(SpacetrajError, RuntimeError):
    """Riccati value iteration failed to converge (system likely not stabilizable)."""


class RegularizationError(SpacetrajError, RuntimeError):
    """Control Hessian could not be made positive definite within the damping range."""


class HittingTimeNotFoundError(SpacetrajError, RuntimeError):
    """No horizon on the sweep grid produced a terminal state inside the terminal set."""

    def __init__(self, message: str, sweep):
        super().__init__(message)
        self.sweep = sweep


class UnsupportedOrbitError(SpacetrajError, ValueError):
    """Orbital elements describe a non-elliptical orbit."""


class ConfigError(SpacetrajError, ValueError):
    """Configuration failed validation; `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
