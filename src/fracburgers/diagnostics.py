"""Per-step observables, blow-up prediction, and detection policy.

Everything the run loop watches lives here: conserved mass, the L2 norm
(constant without dissipation before the shock, non-increasing with it),
nodal extrema (maximum principle), the minimum slope and its closed-form
evolution m(t) = m0/(1 + t*m0), the accumulated integral of ||u_x||_inf
(the continuation monitor: the solution persists while it stays finite),
a discrete H^3 norm (recorded qualitatively; the a-priori bound's constant
is not available), and the spectral tail fraction used as a resolution
monitor. The tail is the top third of the band the run's dealias rule keeps,
rows ceil(2K/3) .. K with K = spectral.band_limit(N, rule): with the rule
off, |k| >= N/3; under the 2/3 rule, 2N/9 <= |k| <= N/3, the rows the
filter leaves the solution.

Norm conventions: l2 = sqrt(2*pi * sum_{k=-N/2}^{N/2-1} |c_k|^2) (Parseval on
the interpolant) and sobolev s uses (1 + k^2)^s weights under the same 2*pi
factor. The spectrum is stored as the half c_0 .. c_{N/2}, so each row
0 < k < N/2 counts twice, for itself and its conjugate c_{-k}, while c_0 and
c_{N/2} count once.

Mass, the norms and the tail are read from one half-spectrum, a 1-D
coefficient array of length N/2 + 1 that is its own record of N (nothing
here takes a grid), and cost no transform; extrema takes nodal values.
They refuse a stack of states (any other ndim) with ValueError rather than
fold its rows into one number. observe assembles a run's record from the
half-spectrum state: u and u_x (nodal_pair, two inverse transforms, or the
pair the run loop hands in) for the extrema and the slope, the spectral
observables for the rest, and the BKM integral as the run loop hands it
in: the loop sums it with bkm_accumulate from the slope norms of
consecutive states. The norms and the tail are each defined once, on the
paired power |c_k|^2 + |c_{-k}|^2, which observe computes once per record;
the Sobolev weights are built once per (rows, order).
check_blowup returns the detection cause one record fires, or None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from typing import ClassVar

import numpy as np

from .spectral import as_float, band_limit, nodal_pair

TAIL_GUARD = 1e-300  # keeps the tail ratio defined for the zero field


class SingularTimeError(ValueError):
    """The closed-form slope was evaluated exactly at its blow-up time."""


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar observables of one time point."""

    t: float
    mass: float
    l2: float
    max_u: float
    min_u: float
    min_slope: float
    bkm_integral: float
    h3: float
    tail_fraction: float

    FIELDS: ClassVar[tuple[str, ...]]  # the field names in order: the CSV header

    def astuple(self) -> tuple[float, ...]:
        return _record_values(self)


DiagnosticsRecord.FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))
_record_values = attrgetter(*DiagnosticsRecord.FIELDS)  # no deep copy, unlike dataclasses.astuple


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


def mass(c: np.ndarray) -> float:
    """Integral of u over the interval: 2*pi times the zero coefficient.

    On a uniform periodic grid this is identical to the trapezoid rule.
    """
    return 2.0 * np.pi * float(_one_spectrum(c)[0].real)


def l2_norm(c: np.ndarray) -> float:
    return _l2_of(_paired_power(c))


def sobolev_norm(c: np.ndarray, order: float) -> float:
    """sqrt(2*pi * sum (1 + k^2)^order |c_k|^2); order 0 reduces to l2_norm."""
    order = float(order)
    if not 0.0 <= order < math.inf:
        raise ValueError(f"sobolev order must be >= 0 and finite, got {order!r}")
    return _sobolev_of(_paired_power(c), order)


def extrema(u: np.ndarray) -> tuple[float, float]:
    """Nodal (max, min)."""
    return float(np.max(u)), float(np.min(u))


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


def bkm_accumulate(prev_integral: float, prev_norm: float, new_norm: float,
                   dt: float) -> float:
    """One trapezoid increment of the integral of ||u_x||_inf over time."""
    return prev_integral + dt * (prev_norm + new_norm) / 2.0


def tail_fraction(c: np.ndarray, *, rule: str = "off") -> float:
    """Share of (non-mean) spectral energy in the top third of the kept band.

    The band rule keeps is 0 .. K, K = band_limit(N, rule), and its top
    third the rows ceil(2K/3) .. K: |k| >= N/3 with rule "off",
    2N/9 <= |k| <= N/3 with "two_thirds". Approaching 1 means that top
    third carries the field: the grid has stopped resolving the solution.
    """
    return _tail_of(_paired_power(c), rule)


def check_blowup(rec: DiagnosticsRecord,
                 thresholds: DetectionThresholds) -> str | None:
    """Detection policy for one record: the cause that fires, or None.

    "non_finite" (any field NaN/Inf) outranks "slope_threshold"
    (|min_slope| > slope_limit), which outranks "resolution_loss"
    (tail_fraction > tail_limit).
    """
    if not all(math.isfinite(v) for v in rec.astuple()):
        return "non_finite"
    if abs(rec.min_slope) > thresholds.slope_limit:
        return "slope_threshold"
    if rec.tail_fraction > thresholds.tail_limit:
        return "resolution_loss"
    return None


def observe(c: np.ndarray, t: float, *, bkm: float = 0.0,
            nodal: tuple[np.ndarray, np.ndarray] | None = None,
            rule: str = "off") -> DiagnosticsRecord:
    """Assemble the full record for the half-spectrum c at time t.

    bkm is the integral of ||u_x||_inf up to t, which the caller sums
    (bkm_accumulate) and the record carries as it is. rule is the run's
    dealias rule: tail_fraction reads the top third of the band it keeps.

    Two inverse transforms (u and u_x), none if nodal, the nodal_pair(c)
    the caller already holds, is handed in.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u, slope = nodal_pair(c) if nodal is None else nodal
        max_u, min_u = extrema(u)
        power = _paired_power(c)
        return DiagnosticsRecord(
            t=float(t),
            mass=mass(c),
            l2=_l2_of(power),
            max_u=max_u,
            min_u=min_u,
            min_slope=float(slope.min()),
            bkm_integral=bkm,
            h3=_sobolev_of(power, 3.0),
            tail_fraction=_tail_of(power, rule),
        )


def _one_spectrum(c: np.ndarray) -> np.ndarray:
    """c itself, after checking that it is one half-spectrum, not a stack."""
    if c.ndim != 1 or len(c) < 3:
        raise ValueError(f"coefficient array must be 1-D with length >= 3, got shape {c.shape}")
    return c


def _paired_power(c: np.ndarray) -> np.ndarray:
    """|c_k|^2 + |c_{-k}|^2 per stored row; c_0 and c_{N/2} have no partner."""
    power = 2.0 * np.abs(_one_spectrum(c)) ** 2
    power[0] *= 0.5
    power[-1] *= 0.5
    return power


def _l2_of(power: np.ndarray) -> float:
    return math.sqrt(2.0 * np.pi * float(np.sum(power)))


def _sobolev_of(power: np.ndarray, order: float) -> float:
    return math.sqrt(2.0 * np.pi * float(np.sum(_sobolev_weights(len(power), order) * power)))


def _tail_of(power: np.ndarray, rule: str) -> float:
    k = band_limit(2 * (len(power) - 1), rule)
    tail = float(np.sum(power[k - k // 3:k + 1]))  # rows ceil(2K/3) .. K
    total = float(np.sum(power[1:]))
    return tail / (total + TAIL_GUARD)


@lru_cache(maxsize=16)
def _sobolev_weights(rows: int, order: float) -> np.ndarray:
    """(1 + k^2)^order for k = 0 .. rows - 1, shared and read-only."""
    w = (1.0 + np.arange(rows).astype(float) ** 2) ** order
    w.flags.writeable = False
    return w
