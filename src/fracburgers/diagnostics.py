"""Per-step observables and detection policy.

Everything the run loop watches lives here: conserved mass, the L2 norm
(constant without dissipation before the shock, non-increasing with it),
nodal extrema (maximum principle), the slope extrema, the accumulated
integral of ||u_x||_inf (the continuation monitor: the solution persists
while it stays finite), a discrete H^3 norm (recorded qualitatively; the
a-priori bound's constant is not available), and the spectral tail fraction
used as a resolution monitor. The tail is the top third of the band the
run's dealias rule keeps, rows ceil(2K/3) .. K with
K = spectral.band_limit(N, rule): with the rule off, |k| >= N/3; under the
2/3 rule, about 2N/9 <= |k| < N/3, the rows the filter leaves the solution.

Conventions: mass = 2*pi * c_0 (on the uniform periodic grid, the trapezoid
rule), l2 = sqrt(2*pi * sum_{k=-N/2}^{N/2-1} |c_k|^2) (Parseval on the
interpolant), and h3 uses (1 + k^2)^3 weights under the same 2*pi factor.
The spectrum is stored as the half c_0 .. c_{N/2}, so each row 0 < k < N/2
counts twice, for itself and its conjugate c_{-k}, while c_0 and c_{N/2}
count once.

observe is where each of these is defined. It checks the half-spectrum
state once (spectral.validate_spectrum: a non-real c_0 or c_{N/2} raises
SymmetryError), takes u and u_x (nodal_pair, or the pair the run loop hands
in) for their extrema, computes the paired power |c_k|^2 + |c_{-k}|^2 once
for the norms and the tail, and sums the BKM integral from the previous
record. It reads the last axis, as the spectral operators do, so a stack of
shape (..., N/2 + 1) gives one value per state in every field, and it gives
inf or NaN unwarned where the arithmetic overflows.
check_blowup returns the detection cause one state's record fires, or None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spectral import band_limit, nodal_pair, real, validate_spectrum

TAIL_GUARD = 1e-300  # keeps the tail ratio defined for the zero field


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
        object.__setattr__(self, "slope_limit", real("slope_limit", self.slope_limit, 0.0))
        object.__setattr__(self, "tail_limit", real("tail_limit", self.tail_limit, 0.0, 1.0))


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
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf or NaN, flagged later
        u, slope = nodal_pair(c) if nodal is None else nodal
        max_u, min_u = np.max(u, axis=-1), np.min(u, axis=-1)
        max_slope, min_slope = np.max(slope, axis=-1), np.min(slope, axis=-1)
        if prev is None:
            bkm = np.zeros(states)[()]
        else:
            norms = np.maximum(prev.max_slope, -prev.min_slope) + np.maximum(max_slope, -min_slope)
            bkm = prev.bkm_integral + (t - prev.t) * norms / 2.0
        # |c_k|^2 + |c_{-k}|^2 per stored row (c_0 and c_{N/2} have no
        # partner), in C order whatever the layout of c, so each state's sums
        # run over contiguous rows in the order of a single state's.
        power = 2.0 * np.abs(c, order="C") ** 2
        rows = power.shape[-1]
        power[..., ::rows - 1] *= 0.5
        k = band_limit(2 * (rows - 1), rule)
        tail = power[..., k - k // 3:k + 1].sum(axis=-1)  # rows ceil(2K/3) .. K
        return DiagnosticsRecord(
            t=np.full(states, t, dtype=float)[()],
            mass=2.0 * np.pi * c[..., 0].real,
            l2=np.sqrt(2.0 * np.pi * power.sum(axis=-1)),
            max_u=max_u,
            min_u=min_u,
            min_slope=min_slope,
            max_slope=max_slope,
            bkm_integral=bkm,
            h3=np.sqrt(2.0 * np.pi * (_h3_weights(rows) * power).sum(axis=-1)),
            tail_fraction=tail / (power[..., 1:].sum(axis=-1) + TAIL_GUARD),
        )


@lru_cache(maxsize=16)
def _h3_weights(rows: int) -> np.ndarray:
    """(1 + k^2)^3 for k = 0 .. rows - 1, shared and read-only."""
    w = (1.0 + np.arange(rows).astype(float) ** 2) ** 3.0
    w.flags.writeable = False
    return w
