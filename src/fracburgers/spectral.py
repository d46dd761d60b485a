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
and the resolution monitor (diagnostics.tail_fraction) reads the top third of
the rows 0 .. K.

A run's state is such an array and carries no time; the run loop keeps the
clock. Nodal values are float arrays of shape (..., N), formed where the
nodes are needed: the product in the tendency, the extrema and slope of a
record, and snapshots.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

DEALIAS_RULES = ("off", "two_thirds")


class SymmetryError(ValueError):
    """Spectral coefficients do not describe real data."""


def as_float(value: object) -> float:
    """float(value), or NaN if value is not a number.

    Every range rule rejects NaN, so a string such as "fast" is reported
    like any other value outside the range.
    """
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):  # an int beyond float range overflows
        return float("nan")


def validate_alpha(alpha: float) -> float:
    """Return alpha as float after checking 0 < alpha <= 2."""
    a = as_float(alpha)
    if not 0.0 < a <= 2.0:
        raise ValueError(f"alpha: must lie in (0, 2], got {alpha!r}")
    return a


def validate_n(n: int) -> int:
    """Return n as int after checking it is an even integer >= 4."""
    # A huge int has no float (as_float gives NaN), so an int is taken as it is.
    if not (isinstance(n, int) or as_float(n).is_integer()) or n != int(n):
        raise ValueError(f"n: must be an integer, got {n!r}")
    n = int(n)
    if n % 2 or n < 4:
        raise ValueError(f"n: must be even and >= 4, got {n}")
    return n


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
    """
    return inverse_dft(c), inverse_dft(spectral_derivative(c))


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


def band_limit(n: int, rule: str) -> int:
    """K, the highest wavenumber that rule keeps on n nodes.

    "off" keeps the whole grid band, K = n/2. "two_thirds" keeps |k| <= n/3,
    K = floor(n/3): Orszag's 2/3 rule for the quadratic term. dealias zeroes
    the rows above K; the resolution monitor reads the top third of the rows
    0 .. K.
    """
    if rule not in DEALIAS_RULES:
        raise ValueError(f"unknown dealias rule {rule!r}, expected one of {DEALIAS_RULES}")
    return n // 2 if rule == "off" else n // 3


def dealias(c: np.ndarray, rule: str) -> np.ndarray:
    """A copy of c with every row above band_limit(N, rule) zeroed.

    rule "off" keeps every row; "two_thirds" zeroes |k| > N/3, the
    aliasing-prone tail of a product.
    """
    k = band_limit(2 * (c.shape[-1] - 1), rule)
    out = c.copy()
    out[..., k + 1:] = 0.0
    return out
