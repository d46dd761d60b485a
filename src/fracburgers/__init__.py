"""Pseudo-spectral simulator for the fractional dissipative Burgers equation.

The equation u_t + u u_x = -gamma * Lambda^alpha u is advanced on the
2*pi-periodic interval with spectral space derivatives and explicit RK4,
while a diagnostics engine tracks mass, L2/L-infinity/H^3 norms, the minimum
slope and its closed-form blow-up law, the integral of ||u_x||_inf, and a
spectral resolution monitor, all checkable against independent analytic
oracles.
"""

from .diagnostics import (
    DetectionThresholds,
    DiagnosticsRecord,
    SingularTimeError,
    check_blowup,
    extrema,
    observe,
    predicted_blowup_time,
    slope_closed_form,
)
from .dynamics import InstabilityError, SimParams, rk4_step, stable_dt
from .oracles import (
    ConvergenceError,
    InitialCondition,
    characteristics_solution,
    cole_hopf_solution,
    linear_decay_solution,
    shock_time,
)
from .cli import (
    RunConfig,
    RunResult,
    UsageError,
    main,
    parse_config,
    run_simulation,
    write_outputs,
)
from .spectral import (
    SymmetryError,
    band_limit,
    dealias,
    forward_dft,
    fractional_laplacian,
    inverse_dft,
    nodal_pair,
    nodes,
    spectral_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DetectionThresholds", "DiagnosticsRecord",
    "InitialCondition", "InstabilityError", "RunConfig", "RunResult", "SimParams",
    "SingularTimeError", "SymmetryError", "UsageError",
    "band_limit", "characteristics_solution", "check_blowup",
    "cole_hopf_solution", "dealias", "extrema", "forward_dft",
    "fractional_laplacian", "inverse_dft", "linear_decay_solution", "main",
    "nodal_pair", "nodes", "observe", "parse_config", "predicted_blowup_time",
    "rk4_step", "run_simulation", "shock_time", "slope_closed_form",
    "spectral_derivative", "stable_dt", "write_outputs",
]
