"""Models the tests share that the program itself does not use."""

from spacetraj.dynamics import DiscreteModel, lti_model


def double_integrator(dt: float = 0.1) -> DiscreteModel:
    """Euler-discretized double integrator: position/velocity state, force control."""
    return lti_model([[1.0, dt], [0.0, 1.0]], [[0.0], [dt]], dt)
