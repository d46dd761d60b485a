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
    bkm_accumulate,
    check_blowup,
    extrema,
    l2_norm,
    mass,
    observe,
    predicted_blowup_time,
    slope_closed_form,
    sobolev_norm,
    tail_fraction,
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
    GridSpec,
    SymmetryError,
    band_limit,
    dealias,
    forward_dft,
    fractional_laplacian,
    inverse_dft,
    make_grid,
    nodal_pair,
    spectral_derivative,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "DetectionThresholds", "DiagnosticsRecord", "GridSpec",
    "InitialCondition", "InstabilityError", "RunConfig", "RunResult", "SimParams",
    "SingularTimeError", "SymmetryError", "UsageError",
    "band_limit", "bkm_accumulate", "characteristics_solution", "check_blowup",
    "cole_hopf_solution", "dealias", "extrema", "forward_dft",
    "fractional_laplacian", "inverse_dft", "l2_norm", "linear_decay_solution",
    "main", "make_grid", "mass", "nodal_pair", "observe", "parse_config",
    "predicted_blowup_time", "rk4_step", "run_simulation", "shock_time",
    "slope_closed_form", "sobolev_norm", "spectral_derivative", "stable_dt",
    "tail_fraction", "write_outputs",
]
