"""Semi-discrete tendency and explicit fourth-order Runge-Kutta stepping.

The evolved equation is

    u_t + u u_x = -gamma * Lambda^alpha u

on the periodic interval, discretized pseudo-spectrally: derivatives and the
fractional laplacian are multipliers in coefficient space, and the quadratic
term is formed at the nodes. Its form follows the dealias rule:

- "off": the plain nodal (collocation) product u * (D_N u). The zero mode of
  the product's transform is zeroed outright, which keeps the tendency
  mass-neutral by construction (analytically that coefficient is the
  integral of a perfect derivative and vanishes anyway).
- "two-thirds": the conservative form 0.5 * (u^2)_x, with u^2 formed at the
  nodes and differentiated in coefficient space. On a state with no rows
  above K = spectral.band_limit(N, "two-thirds"), the largest K with 3K < N,
  u u_x and u^2 hold no wavenumber above 2K, and the grid folds those above
  N/2 onto |k| >= N - 2K > K, where the filter removes them. So the
  filtered product is the Galerkin projection of u u_x (Orszag's rule),
  and the two forms give the same tendency to rounding. The conservative
  one needs u alone. A run starts from the projected spectrum (cli's
  run_simulation), and both the product and the laplacian keep zeros above
  K, so its state has no rows above K at any stage.

The product's unpaired Nyquist mode is dropped, as the derivative drops it,
so the state's c_{N/2} only decays under gamma, and its zero mode is never
changed, so the mass is constant to the bit. RK4 advances the rfft
half-spectrum: a step takes and returns a coefficient array, and only the
product needs the nodes.

The stages apply the operators as multipliers built once per
(rows, alpha, dealias rule), the values they are built from, the row count
N/2 + 1 being the array's only record of N: the public operators applied to
a vector of ones. The public operators stay the only definition of the
derivative, the fractional laplacian and the 2/3 rule, and the multipliers
reproduce them to the bit.
A step costs 12 transforms under "off" and 8 under "two-thirds", or 10 and
7 when the caller hands over u and u_x of the state, which its diagnostics
record needs anyway. Every transform and multiplier acts on the last axis,
so a stack of states of shape (B, N/2 + 1) that shares one SimParams and
one dt advances in one rk4_step call, with the transform calls of one step.

stable_dt bounds an automatic step by an advective CFL limit and a
dissipative one. RK4 multiplies a mode whose frozen-coefficient tendency is
lam by R(lam dt), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24. Mode k has
lam = -gamma |k|^alpha - i u k, so at the bounds below every lam dt lies in
the box [-CFL_DISSIPATION, 0] x [-CFL_ADVECTION, CFL_ADVECTION] i, and the
whole box has to lie in |R| <= 1, not each axis alone. |R| < 1 on the
negative real axis down to -RK4_REAL_LIMIT = -2.785. The dissipative step
keeps lam dt for the fastest-decaying mode at CFL_DISSIPATION = 2, that
limit less DISSIPATIVE_MARGIN = 28% rounded down. R(-2) is 1/3, so every
mode is damped, and none changes sign. With that real extent the box stays
in the region up to the half-height RK4_BOX_LIMIT = 1.856, where its corners
-2 +- 1.856i reach |R| = 1 (|R(-2 + 2i)| = 1.20). The advective step keeps
the same margin: CFL_ADVECTION = floor(0.72 * 1.856) = 1. Both bounds span
the kept band K = spectral.band_limit(N, rule), N/2 under "off": under
"two-thirds" the quadratic term's Jacobian v -> -i k P_K(u v) has norm at
most K max|u| (P_K has norm 1), and a state with no rows above K has no
mode faster than gamma K^alpha to damp. linear_only has no advection, so
its advective bound is taken at max|u| = 0, as RunConfig's budget takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    as_float,
    band_limit,
    dealias,
    flag,
    fractional_laplacian,
    real,
    spectral_derivative,
    validate_alpha,
    validate_n,
    validate_rule,
    validate_spectrum,
)

# RK4's stable interval on the negative real axis ends at -RK4_REAL_LIMIT,
# the real root of z^3 - 4 z^2 + 12 z - 24, where R(-z) = 1 again; the
# dissipative step keeps DISSIPATIVE_MARGIN of it in reserve.
RK4_REAL_LIMIT = 2.785293563405282
DISSIPATIVE_MARGIN = 0.28
# CFL-style safety factors and divide-by-zero guard for stable_dt.
CFL_DISSIPATION = float(math.floor((1.0 - DISSIPATIVE_MARGIN) * RK4_REAL_LIMIT))  # 2.0
# The largest C for which the box [-CFL_DISSIPATION, 0] x [-C, C] i lies in
# |R(z)| <= 1: the positive root of |R(-2 + i C)| = 1, set at the corners.
# The advective step keeps the same margin in reserve.
RK4_BOX_LIMIT = 1.855981142056663
CFL_ADVECTION = float(math.floor((1.0 - DISSIPATIVE_MARGIN) * RK4_BOX_LIMIT))  # 1.0
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
        object.__setattr__(self, "gamma", real("gamma", self.gamma, 0.0, ends="[)"))
        object.__setattr__(self, "alpha", validate_alpha(self.alpha))
        validate_rule(self.dealias_rule)
        object.__setattr__(self, "linear_only", flag("linear_only", self.linear_only))


@lru_cache(maxsize=16)
def _plan(rows: int, alpha: float, rule: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multipliers (derivative, product, laplacian) on rows = N/2 + 1: the
    public operators applied to a vector of ones, the product being minus the
    dealias rule with its mean and Nyquist rows zeroed. Under "two-thirds"
    the product also holds half the derivative, since the tendency then
    transforms u^2, not u u_x. They are read-only, since every step on these
    three values shares them."""
    ones = np.ones(rows, dtype=complex)
    derivative = spectral_derivative(ones)
    product = -dealias(ones, rule)
    product[0] = product[-1] = 0.0
    if rule == "two-thirds":
        product *= 0.5 * derivative
    plan = (derivative, product, fractional_laplacian(ones, alpha))
    for a in plan:
        a.flags.writeable = False
    return plan


def _tendency(c: np.ndarray, p: SimParams,
              nodal: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Coefficients of F for the state c: 3 transforms under "off" (u, u_x
    and u u_x), 2 under "two-thirds" (u and u^2), 1 if the nodal u and u_x
    of c are handed in, none with linear_only."""
    derivative, product, laplacian = _plan(c.shape[-1], p.alpha, p.dealias_rule)
    if p.linear_only:
        hat = np.zeros_like(c)
    else:
        u = np.fft.irfft(c, norm="forward") if nodal is None else nodal[0]
        if p.dealias_rule == "two-thirds":
            other = u  # product holds the 0.5 i k of 0.5 (u^2)_x
        elif nodal is None:
            other = np.fft.irfft(c * derivative, norm="forward")
        else:
            other = nodal[1]
        hat = np.fft.rfft(u * other, norm="forward") * product
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

    Each stage costs 3 transforms under "off", 12 per step, and 2 under
    "two-thirds", 8 per step; none with linear_only. nodal, if given, must
    be nodal_pair(c): stage 1 then reuses u (and u_x under "off"), and the
    step costs 10 or 7. The product's unpaired Nyquist mode is dropped.
    dt is refused unless finite and > 0 (spectral.real). Finiteness is
    checked once, on the result: a non-finite result, in any row of a
    stack, raises InstabilityError, so a returned array is always finite.
    """
    dt = real("dt", dt, 0.0)
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

    min( C_adv/(max|u|*K + eps), C_diff/(gamma*K^alpha + eps) ) with
    C_adv = CFL_ADVECTION = 1.0, C_diff = CFL_DISSIPATION = 2.0 and K =
    band_limit(n, p.dealias_rule); the module docstring derives each. Under
    p.linear_only max|u| is taken as 0: no advection. The bound holds for
    states with no rows above K, as run_simulation's are. Degenerate inputs
    (zero field, gamma 0) give a huge value that the run loop caps at the
    distance to the next stop time. A u_max that is not a finite number
    (NaN or inf from a diverged state, or no number at all) raises
    InstabilityError; a negative u_max, or an n that spectral.validate_n
    refuses, raises ValueError, so the bound is never negative.
    """
    if not abs(as_float(u_max)) < np.inf:
        raise InstabilityError(f"non-finite max|u| handed to stable_dt: {u_max!r}")
    u_max = real("u_max", u_max, 0.0, ends="[)")
    n = validate_n(n)
    k = band_limit(n, p.dealias_rule)
    advective = CFL_ADVECTION / ((0.0 if p.linear_only else u_max) * k + DT_GUARD)
    dissipative = CFL_DISSIPATION / (p.gamma * k**p.alpha + DT_GUARD)
    return min(advective, dissipative)
