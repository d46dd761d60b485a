"""Pseudo-spectral simulator for the fractional dissipative Burgers equation.

The equation u_t + u u_x = -gamma * Lambda^alpha u is advanced on the
2*pi-periodic interval with spectral space derivatives and explicit RK4,
while a diagnostics engine tracks mass, L2/L-infinity/H^3 norms, the slope
extrema, the integral of ||u_x||_inf, and a spectral resolution monitor, all
checkable against independent analytic oracles, among them the inviscid
slope law and shock time.
"""

from .diagnostics import (
    DetectionThresholds,
    DiagnosticsRecord,
    check_blowup,
    observe,
)
from .dynamics import InstabilityError, SimParams, rk4_step, stable_dt
from .oracles import (
    ConvergenceError,
    InitialCondition,
    breaking_time,
    characteristics_solution,
    cole_hopf_solution,
    linear_decay_solution,
    shock_time,
    slope_closed_form,
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
    "SymmetryError", "UsageError",
    "band_limit", "breaking_time", "characteristics_solution", "check_blowup",
    "cole_hopf_solution", "dealias", "forward_dft",
    "fractional_laplacian", "inverse_dft", "linear_decay_solution", "main",
    "nodal_pair", "nodes", "observe", "parse_config",
    "rk4_step", "run_simulation", "shock_time", "slope_closed_form",
    "spectral_derivative", "stable_dt", "write_outputs",
]
