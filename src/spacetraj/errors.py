"""Exception types shared across the toolkit, and the checked-number rules
every parameter object and the config apply (each raises ConfigError naming
its field)."""

from __future__ import annotations

import math
import numbers
from typing import Any, Optional

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
        self.message = message

    def within(self, section: str) -> "ConfigError":
        """The same error, its field named inside `section`."""
        return ConfigError(f"{section}.{self.field}", self.message)


def number(value: Any, field: str, kind: str = "a number") -> float:
    """`value` as a float (an infinity past the float range); booleans and
    strings are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(field, f"expected {kind}, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def real(value: Any, field: str) -> float:
    """A finite real number."""
    out = number(value, field)
    if not math.isfinite(out):
        raise ConfigError(field, f"must be finite, got {value!r}")
    return out


# comparisons are written so that NaN fails them
def positive(value: Any, field: str) -> None:
    if not 0.0 < number(value, field) < math.inf:
        raise ConfigError(field, f"must be positive and finite, got {value!r}")


def in_unit_interval(value: Any, field: str) -> None:
    if not 0.0 < number(value, field) < 1.0:
        raise ConfigError(field, f"must lie in (0, 1), got {value!r}")


def integer(value: Any, field: str, minimum: int, maximum: Optional[int] = None) -> int:
    """An integral number (2 or 2.0, not 2.5) within [minimum, maximum], as
    an int."""
    out = number(value, field, "an integer")
    if not isinstance(value, numbers.Integral) and not out.is_integer():
        raise ConfigError(field, f"must be an integer, got {value!r}")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f"at least {minimum}" if maximum is None else f"between {minimum} and {maximum}"
        raise ConfigError(field, f"must be {bound}, got {value!r}")
    return int(value)
