"""Per-step observables, blow-up prediction, and detection policy.

Everything the run loop watches lives here: conserved mass, the L2 norm
(constant without dissipation before the shock, non-increasing with it),
nodal extrema (maximum principle), the slope extrema and the minimum's
closed-form law m(t) = m0/(1 + t*m0), the accumulated integral of ||u_x||_inf
(the continuation monitor: the solution persists while it stays finite),
a discrete H^3 norm (recorded qualitatively; the a-priori bound's constant
is not available), and the spectral tail fraction used as a resolution
monitor. The tail is the top third of the band the run's dealias rule keeps,
rows ceil(2K/3) .. K with K = spectral.band_limit(N, rule): with the rule
off, |k| >= N/3; under the 2/3 rule, about 2N/9 <= |k| < N/3, the rows the
filter leaves the solution.

Norm conventions: l2 = sqrt(2*pi * sum_{k=-N/2}^{N/2-1} |c_k|^2) (Parseval on
the interpolant) and sobolev s uses (1 + k^2)^s weights under the same 2*pi
factor. The spectrum is stored as the half c_0 .. c_{N/2}, so each row
0 < k < N/2 counts twice, for itself and its conjugate c_{-k}, while c_0 and
c_{N/2} count once.

Every observable reads the last axis, as the spectral operators do: mass,
the norms and the tail take a half-spectrum of shape (..., N/2 + 1), its
last axis their only record of N, and cost no transform; extrema takes
nodal values of shape (..., N). Each returns one value per state, a
numpy.float64 for one state and an array of the leading shape for a stack,
and checks its spectrum with spectral.validate_spectrum, so a non-real c_0
or c_{N/2} raises SymmetryError; like observe, they give inf or NaN
unwarned where the arithmetic overflows. observe assembles a record from
the half-spectrum state, checked once: u and u_x (nodal_pair, or the pair
the run loop hands in) for their extrema, the spectral observables for the
rest, and the BKM integral, which it sums from the previous record. The
norms and the tail are each defined once, on the paired power
|c_k|^2 + |c_{-k}|^2, which observe computes once per record; the Sobolev
weights are built once per (rows, order).
check_blowup returns the detection cause one state's record fires, or None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spectral import as_float, band_limit, nodal_pair, validate_spectrum

TAIL_GUARD = 1e-300  # keeps the tail ratio defined for the zero field


class SingularTimeError(ValueError):
    """The closed-form slope was evaluated exactly at its blow-up time."""


class DiagnosticsRecord(NamedTuple):
    """The observables of one time point, in diagnostics.csv's column
    order: a record is its CSV row, and _fields is the header.

    Each field is a float (numpy.float64) for one state and a (B,) array
    for a (B, N/2 + 1) stack, row b being the record of state b.
    check_blowup reads one state's record.
    """

    t: float
    mass: float
    l2: float
    max_u: float
    min_u: float
    min_slope: float
    max_slope: float
    bkm_integral: float
    h3: float
    tail_fraction: float


@dataclass(frozen=True)
class DetectionThresholds:
    slope_limit: float = 100.0
    tail_limit: float = 0.1

    def __post_init__(self) -> None:
        slope_limit, tail_limit = as_float(self.slope_limit), as_float(self.tail_limit)
        if not 0.0 < slope_limit < np.inf:
            raise ValueError(f"slope_limit: must be finite and > 0, got {self.slope_limit!r}")
        if not 0.0 < tail_limit < 1.0:
            raise ValueError(f"tail_limit: must lie in (0, 1), got {self.tail_limit!r}")
        object.__setattr__(self, "slope_limit", slope_limit)
        object.__setattr__(self, "tail_limit", tail_limit)


def mass(c: np.ndarray) -> float | np.ndarray:
    """Integral of u over the interval: 2*pi times the zero coefficient.

    On a uniform periodic grid this is identical to the trapezoid rule.
    """
    validate_spectrum(c)
    with np.errstate(over="ignore"):
        return _mass_of(c)


def l2_norm(c: np.ndarray) -> float | np.ndarray:
    validate_spectrum(c)
    with np.errstate(over="ignore", invalid="ignore"):
        return _l2_of(_paired_power(c))


def sobolev_norm(c: np.ndarray, order: float) -> float | np.ndarray:
    """sqrt(2*pi * sum (1 + k^2)^order |c_k|^2); order 0 reduces to l2_norm."""
    order = float(order)
    if not 0.0 <= order < math.inf:
        raise ValueError(f"sobolev order must be >= 0 and finite, got {order!r}")
    validate_spectrum(c)
    with np.errstate(over="ignore", invalid="ignore"):
        return _sobolev_of(_paired_power(c), order)


def extrema(u: np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Nodal (max, min) over the last axis."""
    u = np.asarray(u)
    return u.max(axis=-1), u.min(axis=-1)


def predicted_blowup_time(m0: float) -> float | None:
    """Closed-form shock time -1/m0 from the initial minimum slope m0.

    Meaningful as a prediction only without dissipation; callers running
    gamma > 0 label it an inviscid prediction. None when no slope is
    negative (such data never steepens into a shock).
    """
    if m0 < 0.0:
        return -1.0 / m0
    return None


def slope_closed_form(m0: float, t: float) -> float:
    """Slope law m(t) = m0/(1 + t*m0) for the undissipated equation."""
    m0 = float(m0)
    t = float(t)
    denom = 1.0 + t * m0
    if denom == 0.0:
        raise SingularTimeError(f"slope law is singular at t = {t} for m0 = {m0}")
    return m0 / denom


def tail_fraction(c: np.ndarray, *, rule: str = "off") -> float | np.ndarray:
    """Share of (non-mean) spectral energy in the top third of the kept band.

    The band rule keeps is 0 .. K, K = band_limit(N, rule), and its top
    third the rows ceil(2K/3) .. K: |k| >= N/3 with rule "off", about
    2N/9 <= |k| < N/3 with "two-thirds". Approaching 1 means that top
    third carries the field: the grid has stopped resolving the solution.
    """
    validate_spectrum(c)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite tail gives NaN (inf / inf)
        return _tail_of(_paired_power(c), rule)


def check_blowup(rec: DiagnosticsRecord,
                 thresholds: DetectionThresholds | None) -> str | None:
    """Detection policy for one state's record: the cause that fires, or None.

    "non_finite" (any field NaN/Inf) outranks "slope_threshold"
    (|min_slope| > slope_limit), which outranks "resolution_loss"
    (tail_fraction > tail_limit). With thresholds None only the
    non-finite rule applies.
    """
    if not all(math.isfinite(v) for v in rec):
        return "non_finite"
    if thresholds is None:
        return None
    if abs(rec.min_slope) > thresholds.slope_limit:
        return "slope_threshold"
    if rec.tail_fraction > thresholds.tail_limit:
        return "resolution_loss"
    return None


def observe(c: np.ndarray, t: float, *, prev: DiagnosticsRecord | None = None,
            nodal: tuple[np.ndarray, np.ndarray] | None = None,
            rule: str = "off") -> DiagnosticsRecord:
    """Assemble the full record for the half-spectrum c at time t.

    For a (B, N/2 + 1) stack each field is a (B,) array, row b equal to
    the record of c[b]; t is repeated in every row. prev is the record one
    step earlier: bkm_integral, the integral of ||u_x||_inf up to t, adds to
    prev.bkm_integral the trapezoid panel of max(max_slope, -min_slope) over
    t - prev.t, row by row, and is 0.0 without prev. rule is the run's
    dealias rule: tail_fraction reads the top third of the band it keeps.

    Two inverse transforms (u and u_x) for the whole stack, none if nodal,
    the nodal_pair(c) the caller already holds, is handed in.
    """
    validate_spectrum(c)
    states = c.shape[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        u, slope = nodal_pair(c) if nodal is None else nodal
        max_u, min_u = extrema(u)
        max_slope, min_slope = extrema(slope)
        if prev is None:
            bkm = np.zeros(states)[()]
        else:
            norms = np.maximum(prev.max_slope, -prev.min_slope) + np.maximum(max_slope, -min_slope)
            bkm = prev.bkm_integral + (t - prev.t) * norms / 2.0
        power = _paired_power(c)
        return DiagnosticsRecord(
            t=np.full(states, t, dtype=float)[()],
            mass=_mass_of(c),
            l2=_l2_of(power),
            max_u=max_u,
            min_u=min_u,
            min_slope=min_slope,
            max_slope=max_slope,
            bkm_integral=bkm,
            h3=_sobolev_of(power, 3.0),
            tail_fraction=_tail_of(power, rule),
        )


def _mass_of(c: np.ndarray) -> float | np.ndarray:
    return 2.0 * np.pi * c[..., 0].real


def _paired_power(c: np.ndarray) -> np.ndarray:
    """|c_k|^2 + |c_{-k}|^2 per stored row; c_0 and c_{N/2} have no partner.

    The power is laid out in C order whatever the layout of c, so each
    state's sums run over contiguous rows, in the order of a single state's.
    """
    power = 2.0 * np.abs(c, order="C") ** 2
    power[..., ::power.shape[-1] - 1] *= 0.5
    return power


def _l2_of(power: np.ndarray) -> float | np.ndarray:
    return np.sqrt(2.0 * np.pi * power.sum(axis=-1))


def _sobolev_of(power: np.ndarray, order: float) -> float | np.ndarray:
    weights = _sobolev_weights(power.shape[-1], order)
    return np.sqrt(2.0 * np.pi * (weights * power).sum(axis=-1))


def _tail_of(power: np.ndarray, rule: str) -> float | np.ndarray:
    k = band_limit(2 * (power.shape[-1] - 1), rule)
    tail = power[..., k - k // 3:k + 1].sum(axis=-1)  # rows ceil(2K/3) .. K
    total = power[..., 1:].sum(axis=-1)
    return tail / (total + TAIL_GUARD)


@lru_cache(maxsize=16)
def _sobolev_weights(rows: int, order: float) -> np.ndarray:
    """(1 + k^2)^order for k = 0 .. rows - 1, shared and read-only."""
    w = (1.0 + np.arange(rows).astype(float) ** 2) ** order
    w.flags.writeable = False
    return w
