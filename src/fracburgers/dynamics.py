"""Semi-discrete tendency and explicit fourth-order Runge-Kutta stepping.

The evolved equation is

    u_t + u u_x = -gamma * Lambda^alpha u

on the periodic interval, discretized pseudo-spectrally: derivatives and the
fractional laplacian are multipliers in coefficient space, the quadratic
term is the plain nodal (collocation) product u * (D_N u). The conservative
form -0.5*(u^2)_x is deliberately not used; instead the zero mode of the
product's transform is zeroed outright, which keeps the tendency mass-neutral
by construction (analytically that coefficient is the integral of a perfect
derivative and vanishes anyway). The product's unpaired Nyquist mode is
dropped too, as the derivative drops it, so the state's c_{N/2} only decays
under gamma, and its zero mode is never changed, so the mass is constant to
the bit. RK4 advances the rfft half-spectrum: a step takes and returns a
coefficient array, and only the product needs the nodes.

The stages apply the operators as multipliers built once per
(rows, alpha, dealias rule), the values they are built from, the row count
N/2 + 1 being the array's only record of N: the public operators applied to
a vector of ones. The public operators stay the only definition of the
derivative, the fractional laplacian and the 2/3 rule, and the multipliers
reproduce them to the bit.
A step costs 12 transforms, or 10 when the caller hands over u and u_x of
the state, which its diagnostics record needs anyway. Every transform and
multiplier acts on the last axis, so a stack of states of shape
(B, N/2 + 1) that shares one SimParams and one dt advances in one rk4_step
call, with the transform calls of one step.

stable_dt bounds an automatic step by an advective CFL limit and a
dissipative one. RK4 multiplies a mode that decays at rate lam by
R(-lam dt), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, and |R| < 1 on the
negative real axis down to -RK4_REAL_LIMIT = -2.785. The dissipative step
keeps lam dt for the fastest-decaying mode at CFL_DISSIPATION = 2, that
limit less DISSIPATIVE_MARGIN = 28% rounded down to a whole number. R(-2)
is 1/3, so every mode is damped, and none changes sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    DEALIAS_RULES,
    as_float,
    dealias,
    fractional_laplacian,
    spectral_derivative,
    validate_alpha,
    validate_n,
    validate_spectrum,
)

# RK4's stable interval on the negative real axis ends at -RK4_REAL_LIMIT,
# the real root of z^3 - 4 z^2 + 12 z - 24, where R(-z) = 1 again; the
# dissipative step keeps DISSIPATIVE_MARGIN of it in reserve.
RK4_REAL_LIMIT = 2.785293563405282
DISSIPATIVE_MARGIN = 0.28
# CFL-style safety factors and divide-by-zero guard for stable_dt.
CFL_ADVECTION = 0.5
CFL_DISSIPATION = float(math.floor((1.0 - DISSIPATIVE_MARGIN) * RK4_REAL_LIMIT))  # 2.0
DT_GUARD = 1e-12


class InstabilityError(RuntimeError):
    """A step went non-finite: the step is unstable or the solution is blowing up."""


@dataclass(frozen=True)
class SimParams:
    """The evolved equation u_t + u u_x = -gamma Lambda^alpha u.

    dealias_rule filters its quadratic term; linear_only drops it (test
    mode). The step and the end time belong to the run (cli.RunConfig).
    """

    gamma: float = 0.0
    alpha: float = 1.0
    dealias_rule: str = "off"
    linear_only: bool = False

    def __post_init__(self) -> None:
        gamma = as_float(self.gamma)
        if not 0.0 <= gamma < np.inf:
            raise ValueError(f"gamma: must be finite and >= 0, got {self.gamma!r}")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "alpha", validate_alpha(self.alpha))
        if self.dealias_rule not in DEALIAS_RULES:
            raise ValueError(
                f"unknown dealias rule {self.dealias_rule!r}, expected one of {DEALIAS_RULES}"
            )
        if not isinstance(self.linear_only, (bool, np.bool_)):  # "no" would be truthy
            raise ValueError(f"linear_only: must be a bool, got {self.linear_only!r}")
        object.__setattr__(self, "linear_only", bool(self.linear_only))


@lru_cache(maxsize=16)
def _plan(rows: int, alpha: float, rule: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multipliers (derivative, product, laplacian) on rows = N/2 + 1: the
    public operators applied to a vector of ones, the product being minus the
    dealias rule with its mean and Nyquist rows zeroed. They are read-only,
    since every step on these three values shares them."""
    ones = np.ones(rows, dtype=complex)
    product = -dealias(ones, rule)
    product[0] = product[-1] = 0.0
    plan = (spectral_derivative(ones), product, fractional_laplacian(ones, alpha))
    for a in plan:
        a.flags.writeable = False
    return plan


def _tendency(c: np.ndarray, p: SimParams,
              nodal: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Coefficients of F for the state c: 3 transforms, 1 if the nodal u and
    u_x of c are handed in, none with linear_only."""
    derivative, product, laplacian = _plan(c.shape[-1], p.alpha, p.dealias_rule)
    if p.linear_only:
        hat = np.zeros_like(c)
    else:
        if nodal is None:
            u = np.fft.irfft(c, norm="forward")
            ux = np.fft.irfft(c * derivative, norm="forward")
        else:
            u, ux = nodal
        hat = np.fft.rfft(u * ux, norm="forward") * product
    if p.gamma > 0.0:
        hat -= p.gamma * (laplacian * c)
    return hat


def rk4_step(c: np.ndarray, p: SimParams, dt: float, *,
             nodal: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Advance the half-spectra c, shape (..., N/2 + 1), one RK4 step.

    Stages:
        K1 = F(U_s),  K2 = F(U_s + dt/2 K1),  K3 = F(U_s + dt/2 K2),
        K4 = F(U_s + dt K3),
        U_{s+1} = U_s + dt/6 (K1 + 2 K2 + 2 K3 + K4).

    Each stage costs 3 transforms, 12 per step, none with linear_only.
    nodal, if given, must be nodal_pair(c): stage 1 then reuses u and u_x
    and the step costs 10. The product's unpaired Nyquist mode is dropped.
    Finiteness is checked once, on the result: a non-finite result, in any
    row of a stack, raises InstabilityError, so a returned array is always
    finite.
    """
    dt = float(dt)
    if dt <= 0.0 or not np.isfinite(dt):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    validate_spectrum(c)

    with np.errstate(over="ignore", invalid="ignore"):
        k1 = _tendency(c, p, nodal)
        k2 = _tendency(c + 0.5 * dt * k1, p)
        k3 = _tendency(c + 0.5 * dt * k2, p)
        k4 = _tendency(c + dt * k3, p)
        out = c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # A non-finite input or stage enters this sum with a positive weight, so the sum is too.
    if not np.isfinite(out).all():
        raise InstabilityError("non-finite RK4 step: unstable, or the solution is blowing up")
    return out


def stable_dt(u_max: float, n: int, p: SimParams) -> float:
    """CFL-style step bound from u_max = max|u|, recomputed each "auto" step.

    min( C_adv/(max|u|*k_max + eps), C_diff/(gamma*k_max^alpha + eps) ) with
    k_max = n/2 on n nodes, C_adv = CFL_ADVECTION = 0.5 and C_diff =
    CFL_DISSIPATION = 2.0. C_diff is RK4's real-axis stability limit 2.785
    less a 28% margin (DISSIPATIVE_MARGIN), rounded down: the fastest mode
    then decays by R(-2) = 1/3 per step, without changing sign. Degenerate
    inputs (zero field, gamma 0) give a huge value that the run loop caps at
    the distance to the next stop time. A non-finite
    u_max, a diverged state, raises InstabilityError; a negative u_max, or
    an n that spectral.validate_n refuses, raises ValueError, so the bound
    is never negative.
    """
    u_max = float(u_max)
    if not abs(u_max) < np.inf:
        raise InstabilityError(f"non-finite max|u| handed to stable_dt: {u_max!r}")
    if u_max < 0.0:
        raise ValueError(f"u_max: must be >= 0, got {u_max!r}")
    k_max = validate_n(n) / 2.0
    advective = CFL_ADVECTION / (u_max * k_max + DT_GUARD)
    dissipative = CFL_DISSIPATION / (p.gamma * k_max**p.alpha + DT_GUARD)
    return min(advective, dissipative)
