"""Discrete torus geometry and spectral operators.

The domain is the 2*pi-periodic interval sampled at N uniform nodes
x_j = pi*(2j - N)/N for j = 0..N-1 (N even), i.e. the grid starts at -pi
and excludes +pi. A nodal field is represented spectrally by the
coefficients of its trigonometric interpolant, measured from the first node:

    u(x) = sum_{k=-N/2}^{N/2-1} c_k exp(i k (x + pi)),
    c_k  = (1/N) sum_j u(x_j) exp(-2 pi i j k / N),

so c is numpy's rfft(u, norm="forward") bit for bit, and the Fourier
coefficients in x are (-1)^k c_k. Nothing needs those: the derivative and
the fractional laplacian are the diagonal multipliers i*k and |k|**alpha
(defined spectrally, with no convolution kernel), and every observable
reads c_0 or |c_k|.

Nodal data are real, so c_{-k} = conj(c_k) and only the half-spectrum is
stored: a coefficient array is a complex ndarray of shape (..., N/2 + 1) whose
last axis holds c_k for k = 0 .. N/2. The Nyquist row c_{N/2}, which equals
c_{-N/2} on the grid, is stored once. c_0 and c_{N/2} are real; they are the
only rows without a partner.

The transforms and the operators read only the last axis, so a stack of
states of shape (B, N/2 + 1) on one grid is transformed and multiplied row
by row in one call. That axis alone carries N = 2 * (rows - 1), so none of
them takes the grid: nodes(n) is called only to sample a profile and to
label snapshots.

Which rows a run keeps is decided once, by band_limit: K, the highest
wavenumber a dealias rule keeps on N nodes. dealias zeroes the rows above K,
and the resolution monitor (the tail_fraction that diagnostics.observe
records) reads the top third of the rows 0 .. K.

A run's state is such an array and carries no time; the run loop keeps the
clock. Nodal values are float arrays of shape (..., N), formed where the
nodes are needed: the product in the tendency, the extrema and slope of a
record, and snapshots.

Every scalar a caller hands the package is converted and checked by the
rule for its type, real(), whole() or flag(), which reads text as well and
refuses a value as "<key>: <rule>, got <input>", naming it as given. A
run's dt alone keeps its own check, as it may also be "auto".
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

DEALIAS_RULES = ("off", "two-thirds")
# A step holds about 16 arrays of n float64 values (state, stages,
# temporaries, nodal u, u_x and their product): 2**27 values, 1 GiB, at
# n = 2**23, the largest n validate_n accepts.
MAX_N = 2**23


class SymmetryError(ValueError):
    """Spectral coefficients do not describe real data."""


def as_float(value: object) -> float:
    """float(value), or NaN if value is not a number.

    Every range rule of real() rejects NaN, so a string such as "fast", None
    or an int beyond float range is reported like any other value outside
    the range.
    """
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):  # an int beyond float range overflows
        return float("nan")


def real(key: str, value: object, low: float = -math.inf, high: float = math.inf,
         ends: str = "()") -> float:
    """as_float(value) after checking it lies between low and high.

    ends marks the closed ends as an interval does: "()" open, "[)" closed
    at low, "(]" closed at high. An infinite end is always given open, so
    the value returned is finite. Any other value raises ValueError
    "<key>: <rule>, got <value!r>", naming the value as the caller passed
    it, with the rule worded from the interval: "must be finite",
    "must be finite and >= 0" for [0, inf), "must lie in (0, 2]" for (0, 2].
    """
    v = as_float(value)
    if (low <= v if ends[0] == "[" else low < v) and (v <= high if ends[1] == "]" else v < high):
        return v
    if high < math.inf:
        rule = f"must lie in {ends[0]}{low:g}, {high:g}{ends[1]}"
    elif low > -math.inf:
        rule = f"must be finite and {'>=' if ends[0] == '[' else '>'} {low:g}"
    else:
        rule = "must be finite"
    raise ValueError(f"{key}: {rule}, got {value!r}")


def whole(key: str, value: object, low: int, even: bool = False) -> int:
    """value as an int >= low (and even, if asked): an int however large, a
    number without a fraction, or text as int() reads it (" 8" and "1_0",
    not "4.0"). Anything else raises ValueError
    "<key>: must be an [even ]integer >= <low>, got <value!r>"."""
    exact = isinstance(value, (str, int, np.integer)) or as_float(value).is_integer()
    try:
        v = int(value) if exact else None
    except (TypeError, ValueError):  # text int() does not read, or a float-only object
        v = None
    if v is None or v < low or (even and v % 2):
        raise ValueError(f"{key}: must be an {'even ' if even else ''}integer >= {low}, "
                         f"got {value!r}")
    return v


def flag(key: str, value: object) -> bool:
    """value as a bool: a bool, a numpy bool, "true" or "false". Any other
    value, "no" or 0 among them, raises ValueError
    "<key>: must be true or false, got <value!r>"."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, str) and value in ("true", "false"):
        return value == "true"
    raise ValueError(f"{key}: must be true or false, got {value!r}")


def validate_alpha(alpha: float) -> float:
    """Return alpha as float after checking 0 < alpha <= 2."""
    return real("alpha", alpha, 0.0, 2.0, ends="(]")


def validate_n(n: int) -> int:
    """Return n as int after checking it is an even integer, 4 <= n <= MAX_N,
    before any array is formed. Above MAX_N the ValueError names n as read,
    so text and an int get the same words."""
    v = whole("n", n, 4, even=True)
    if v > MAX_N:
        raise ValueError("n: must be at most 2**23 (a step holds about 16 * n float64 values, "
                         f"1 GiB at 2**23), got {v}")
    return v


def nodes(n: int) -> np.ndarray:
    """The n grid nodes x_j = pi*(2j - n)/n, j = 0 .. n-1 (n even, >= 4):
    strictly increasing from -pi, +pi excluded."""
    n = validate_n(n)
    return np.pi * (2.0 * np.arange(n) - n) / n


def make_grid(n: int) -> SimpleNamespace:
    """Deprecated: use nodes(n). Kept only because perfbench/workloads.py,
    which the benchmark runs as committed, reads make_grid(n).nodes."""
    return SimpleNamespace(n=validate_n(n), nodes=nodes(n))


def forward_dft(u: np.ndarray) -> np.ndarray:
    """Interpolant coefficients of nodal data, 1/N normalization.

    c_k = (1/N) sum_j u(x_j) exp(-2 pi i j k / N) for k = 0 .. N/2: numpy's
    rfft(u, norm="forward") over the last axis, whose length is N (even,
    >= 4). Complex u is refused, since its imaginary part has no place in
    a half-spectrum. u is not checked for finiteness, so a diverged field
    can still be transformed and reported.
    """
    u = np.asarray(u)
    if np.iscomplexobj(u):
        raise ValueError(f"nodal data must be real, got dtype {u.dtype}")
    u = u.astype(float, copy=False)
    if u.ndim == 0 or u.shape[-1] % 2 or u.shape[-1] < 4:
        raise ValueError(f"field needs an even last axis of length >= 4, got shape {u.shape}")
    return np.fft.rfft(u, norm="forward")


def validate_spectrum(c: np.ndarray) -> None:
    """Check that c holds half-spectra of real data.

    The last axis of c must hold N/2 + 1 >= 3 rows. A non-zero imaginary
    part in c_0 or c_{N/2} has no real nodal representative and raises
    SymmetryError; NaN passes, so a diverged state still reaches the
    non-finite checks.
    """
    if c.ndim == 0 or c.shape[-1] < 3:
        raise ValueError(f"a half-spectrum needs a last axis of >= 3 rows, got shape {c.shape}")
    edges = c[..., ::c.shape[-1] - 1].imag  # c_0 and c_{N/2} of every row
    # The first count settles the usual all-zero case cheaply; NaN fails the second.
    if np.count_nonzero(edges) and np.count_nonzero(abs(edges) > 0.0):
        raise SymmetryError(
            f"c_0 = {c[..., 0]} and c_N/2 = {c[..., -1]} must be real; "
            "coefficients do not describe real data"
        )


def inverse_dft(c: np.ndarray) -> np.ndarray:
    """Evaluate the interpolant at the nodes: u(x_l) = sum_k c_k exp(i k (x_l + pi)).

    The negative wavenumbers enter as the conjugates of the stored rows, so
    the result is real by construction; c is checked by validate_spectrum.
    """
    validate_spectrum(c)
    return np.fft.irfft(c, norm="forward")


def nodal_pair(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u and u_x at the nodes: two inverse transforms.

    A run forms this pair once per state and shares it between the state's
    record, its snapshot and the first stage of the step that leaves it.
    c is checked once, by inverse_dft: the derivative of a valid
    half-spectrum has c_0 = c_{N/2} = 0.
    """
    return inverse_dft(c), np.fft.irfft(spectral_derivative(c), norm="forward")


def spectral_derivative(c: np.ndarray) -> np.ndarray:
    """Differentiate the interpolant: c_k -> i*k*c_k, Nyquist mode dropped.

    The mode k = N/2 is its own conjugate partner, so i*(N/2)*c_{N/2} is
    imaginary and has no real nodal representative; it is set to 0.
    """
    out = 1j * np.arange(c.shape[-1]) * c
    out[..., -1] = 0.0
    return out


def fractional_laplacian(c: np.ndarray, alpha: float) -> np.ndarray:
    """Apply the multiplier |k|**alpha, alpha in (0, 2]. Zero mode maps to 0."""
    a = validate_alpha(alpha)
    mult = np.arange(c.shape[-1]).astype(float) ** a
    return mult * c


def validate_rule(rule: str) -> str:
    """Return rule after checking it is one of DEALIAS_RULES."""
    if rule not in DEALIAS_RULES:
        raise ValueError(f"dealias: expected {' or '.join(DEALIAS_RULES)}, got {rule!r}")
    return rule


def band_limit(n: int, rule: str) -> int:
    """K, the highest wavenumber that rule keeps on n nodes.

    "off" keeps the whole grid band, K = n/2. "two-thirds" keeps |k| < n/3,
    K = (n - 1) // 3, the largest K with 3K < n: Orszag's 2/3 rule for the
    quadratic term, whose wavenumbers up to 2K fold onto |k| >= n - 2K > K
    (at K = n/3, onto row K itself). dealias zeroes the rows above K; the
    resolution monitor reads the top third of the rows 0 .. K.
    """
    return n // 2 if validate_rule(rule) == "off" else (n - 1) // 3


def dealias(c: np.ndarray, rule: str) -> np.ndarray:
    """A copy of c with every row above band_limit(N, rule) zeroed.

    rule "off" keeps every row; "two-thirds" zeroes |k| >= N/3, the
    aliasing-prone tail of a product.
    """
    k = band_limit(2 * (c.shape[-1] - 1), rule)
    out = c.copy()
    out[..., k + 1:] = 0.0
    return out
