"""Two-phase trajectory optimization for space scenarios.

Solves regulation-to-origin problems with nonlinear dynamics by a
finite-horizon iterative-LQR leg whose terminal cost is the stationary
Riccati value, followed by stationary LQR regulation inside a terminal set.
Ships three ready-made scenarios (spacecraft attitude, orbital rendezvous,
Mars soft landing) and a CLI that runs, sweeps, and verifies them.
"""

__version__ = "0.1.0"
