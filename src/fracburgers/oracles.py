"""Analytic reference solutions, independent of the solver.

Five oracles back the test suite and the acceptance criteria. For the
undissipated equation, data whose minimum slope m0 is negative breaks at
t* = -1/m0 (breaking_time; shock_time reads m0 from a profile), and until
then its minimum slope follows m(t) = m0/(1 + t*m0) (slope_closed_form).
Before t*, smooth data rides its characteristics: u(x, t) is the unique
root of the implicit equation u = f(x - u*t), solved here by damped
fixed-point iteration with a bisection fallback. For the purely linear
equation u_t = -gamma*Lambda^alpha u, every coefficient decays exactly by
exp(-gamma*|k|^alpha * t). For alpha = 2 the equation is viscous Burgers,
which the Cole-Hopf transform solves exactly; cole_hopf_solution evaluates
that solution for u0 = -a sin x.

Initial-condition catalogue by --ic selector and factory (all exactly
2*pi-periodic and smooth):

    neg-sine              neg_sine()             -sin(x)
    scaled-neg-sine:a     scaled_neg_sine(a)     -a*sin(x)
    gaussian:w            gaussian_bump(w)       exp((cos(x) - 1)/w^2), a bump of width ~w
    random:m:seed         random_band(m, seed)   sum_{k=1..m} (a_k cos(kx) + b_k sin(kx))

random draws a_k, b_k from numpy's PCG64 generator seeded with `seed`:
standard normal pairs in increasing-k order, each scaled by 1/k. The same
seed always reproduces the same field; max_mode = 0 gives the zero field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .spectral import as_float, validate_alpha

RESIDUAL_TOL = 1e-12
_MAX_FIXED_POINT = 500
_MAX_BISECTION = 200
_DENSE_SAMPLES = 8192  # for the shock-time guard and the bisection bracket
_BLOCK = 2**20  # (x, k) or (x, s) pairs that one block of a sum over x holds
# Narrowest gaussian_bump: below it w**2 is subnormal, and (cos x - 1)/w**2
# can overflow to -inf (and 0/0 gives NaN at x = 0).
_MIN_WIDTH = float(np.sqrt(np.finfo(float).tiny))
# cole_hopf_solution: its weight is cut where its exponent has fallen by
# _COLE_HOPF_CUT, sampled _COLE_HOPF_PER_WIDTH times per narrowest width, at
# no more than 2 * _COLE_HOPF_MAX_HALF + 1 points.
_COLE_HOPF_CUT = 60.0
_COLE_HOPF_PER_WIDTH = 8
_COLE_HOPF_MAX_HALF = 2**20


class ConvergenceError(RuntimeError):
    """The implicit characteristics equation did not reach the residual tolerance."""


@dataclass(frozen=True)
class InitialCondition:
    """A 2*pi-periodic initial profile, evaluable at any real x. kind is its
    --ic selector name: label() writes the selector, parse() reads it back."""

    # The --ic grammar, one selector per kind with its parameters: the CLI's
    # help text and parse()'s refusal both name these.
    SELECTORS: ClassVar[tuple[str, ...]] = (
        "neg-sine", "scaled-neg-sine:a", "gaussian:w", "random:kmax:seed")

    kind: str
    params: tuple = ()

    @classmethod
    def neg_sine(cls) -> "InitialCondition":
        return cls("neg-sine")

    @classmethod
    def scaled_neg_sine(cls, amplitude: float) -> "InitialCondition":
        a = as_float(amplitude)
        if not np.isfinite(a):
            raise ValueError(f"amplitude must be finite, got {amplitude!r}")
        return cls("scaled-neg-sine", (a,))

    @classmethod
    def gaussian_bump(cls, width: float) -> "InitialCondition":
        w = as_float(width)
        if not _MIN_WIDTH <= w < np.inf:
            raise ValueError(f"width must be finite and >= {_MIN_WIDTH:.6g}, got {width!r}")
        return cls("gaussian", (w,))

    @classmethod
    def random_band(cls, max_mode: int, seed: int) -> "InitialCondition":
        # int() would raise OverflowError on inf, and alone would turn 2.5 into 2;
        # an int beyond float range is whole although as_float gives NaN.
        whole = all(isinstance(v, int) or as_float(v).is_integer() for v in (max_mode, seed))
        m, s = (int(max_mode), int(seed)) if whole else (None, None)
        if m != max_mode or s != seed:
            raise ValueError(f"max_mode and seed must be integers, got {max_mode!r}, {seed!r}")
        if m < 0:
            raise ValueError(f"max_mode must be >= 0, got {max_mode!r}")
        if s < 0:  # numpy's seed sequence takes non-negative integers only
            raise ValueError(f"seed must be >= 0, got {seed!r}")
        return cls("random", (m, s))

    @classmethod
    def parse(cls, text: str) -> "InitialCondition":
        """The profile an --ic selector names, the inverse of label(); each
        refusal is a ValueError worded "ic: <reason>"."""
        kind, *args = text.split(":")
        try:
            if kind == "neg-sine" and not args:
                return cls.neg_sine()
            if kind == "scaled-neg-sine" and len(args) == 1:
                return cls.scaled_neg_sine(*args)
            if kind == "gaussian" and len(args) == 1:
                return cls.gaussian_bump(*args)
            if kind == "random" and len(args) == 2:
                return cls.random_band(*map(_as_int, args))
        except ValueError as err:
            raise ValueError(f"ic: {err}") from None
        *others, last = cls.SELECTORS
        raise ValueError(f"ic: {text!r} (expected {', '.join(others)}, or {last})")

    @property
    def seed(self) -> int | None:
        return self.params[1] if self.kind == "random" else None

    def label(self) -> str:
        """The --ic selector, each parameter as text that reads back as it."""
        return ":".join([self.kind, *map(_round_trip, self.params)])

    def __call__(self, x):
        return self._evaluate(x, derivative=False)

    def derivative(self, x):
        return self._evaluate(x, derivative=True)

    def _evaluate(self, x, derivative: bool):
        xv = np.asarray(x, dtype=float)
        if self.kind == "random":
            out = _band_sum(xv, *self.params, derivative)
        elif self.kind == "gaussian":
            w = self.params[0]
            out = np.exp((np.cos(xv) - 1.0) / w**2)
            if derivative:
                out = out * (-np.sin(xv) / w**2)
        else:  # neg-sine and scaled-neg-sine: -a sin(x)
            a = self.params[0] if self.params else 1.0
            out = -a * (np.cos(xv) if derivative else np.sin(xv))
        return out if out.ndim else float(out)


def _as_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None


def _round_trip(v: float | int) -> str:
    """An int in full, a float in the fewest significant digits, at least 6,
    that read back as v: 17 read back as every finite float64."""
    if isinstance(v, int):
        return str(v)
    for digits in range(6, 17):
        text = f"{v:.{digits}g}"
        if float(text) == v:
            return text
    return f"{v:.17g}"


# A run samples one profile, and a characteristics grading evaluates one
# profile at every node, so one entry serves every repeat. Each holds
# 2 * max_mode floats, up to 64 MB at the command line's largest kmax.
@lru_cache(maxsize=1)
def _band_coeffs(max_mode: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(seed))
    scale = np.arange(1, max_mode + 1)[:, None]
    a, b = (rng.standard_normal((max_mode, 2)) / scale).T.copy()
    return a, b


def _band_sum(x: np.ndarray, max_mode: int, seed: int, derivative: bool) -> np.ndarray:
    """random or its derivative at x, summed in blocks of at most 2**20
    (x, k) pairs, so memory stays bounded for any max_mode."""
    a, b = _band_coeffs(max_mode, seed)
    k = np.arange(1, max_mode + 1)

    def block(xb: np.ndarray) -> np.ndarray:
        arg = np.multiply.outer(xb, k)
        if derivative:
            return -np.sin(arg) @ (k * a) + np.cos(arg) @ (k * b)
        return np.cos(arg) @ a + np.sin(arg) @ b

    return _blockwise(block, x, max_mode)


def _blockwise(block, x: np.ndarray, width: int) -> np.ndarray:
    """block(xb) over runs xb of at most _BLOCK // width values of x, so a
    (len(xb), width) array fits in _BLOCK entries, filled into x's shape."""
    flat = x.ravel()
    out = np.empty(flat.size)
    rows = max(1, _BLOCK // max(1, width))
    for i in range(0, flat.size, rows):
        out[i:i + rows] = block(flat[i:i + rows])
    return out.reshape(x.shape)


@lru_cache(maxsize=None)
def _slope_floor(f: InitialCondition) -> float:
    xs = np.linspace(-np.pi, np.pi, _DENSE_SAMPLES, endpoint=False)
    return float(np.min(f.derivative(xs)))


@lru_cache(maxsize=None)
def _value_range(f: InitialCondition) -> tuple[float, float]:
    xs = np.linspace(-np.pi, np.pi, _DENSE_SAMPLES, endpoint=False)
    vals = f(xs)
    return float(np.min(vals)), float(np.max(vals))


def breaking_time(m0: float) -> float:
    """Shock time t* = -1/m0 of the undissipated equation from the minimum
    initial slope m0; inf where that is not a finite time: m0 >= 0 (such
    data never steepens into a shock), NaN, or a subnormal m0 whose
    reciprocal overflows (Python float division, so unwarned)."""
    m0 = float(m0)
    return -1.0 / m0 if m0 < 0.0 else np.inf


def shock_time(f: InitialCondition) -> float:
    """First time a characteristic crossing can occur, -1/min f'; inf if none."""
    return breaking_time(_slope_floor(f))


def slope_closed_form(m0, t):
    """Slope law m(t) = m0/(1 + t*m0) of the undissipated equation,
    elementwise over the broadcast of m0 and t; a float for scalars.
    ValueError where a denominator is 0, at the pole t = -1/m0."""
    m0 = np.asarray(m0, dtype=float)
    t = np.asarray(t, dtype=float)
    denom = 1.0 + t * m0
    if (denom == 0.0).any():
        raise ValueError(f"slope law is singular at t = {t} for m0 = {m0}")
    out = m0 / denom
    return out if out.ndim else float(out)


def characteristics_solution(f: InitialCondition, x: float, t: float) -> float:
    """Solve u = f(x - u*t) for t before the shock time.

    Seeded at f(x), iterated as u <- u + (f(x - u*t) - u)/2; the damping
    keeps the map contractive wherever t*f' lies in (-1, 3) around the root,
    which holds pre-shock for every profile in the catalogue. If the
    iteration stalls, bisection on [min f, max f] takes over (the root lies
    in that interval because u equals a value of f). Converged when
    |u - f(x - u*t)| <= 1e-12.
    """
    x = float(x)
    t = float(t)
    if not np.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if t < 0.0 or not np.isfinite(t):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    if t == 0.0:
        return float(f(x))
    t_star = shock_time(f)
    if t >= t_star:
        raise ValueError(
            f"t={t:g} is at or after the shock time {t_star:g}; "
            "characteristics cross and the implicit equation loses uniqueness"
        )

    u = float(f(x))
    for _ in range(_MAX_FIXED_POINT):
        r = float(f(x - u * t)) - u
        if abs(r) <= RESIDUAL_TOL:
            return u
        u += 0.5 * r

    # Fixed point stalled; fall back to bisection. The root is bracketed by
    # the range of f, padded a hair because the range itself was sampled.
    lo, hi = _value_range(f)
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    a, b = lo - pad, hi + pad
    ga = a - float(f(x - a * t))
    gb = b - float(f(x - b * t))
    if ga > 0.0 or gb < 0.0:
        raise ConvergenceError(
            f"bisection bracket [{a:g}, {b:g}] does not straddle the root at x={x:g}, t={t:g}"
        )
    for _ in range(_MAX_BISECTION):
        mid = 0.5 * (a + b)
        r = mid - float(f(x - mid * t))
        if abs(r) <= RESIDUAL_TOL:
            return mid
        if r <= 0.0:
            a = mid
        else:
            b = mid
        if b - a <= 1e-16 * max(1.0, abs(a), abs(b)):
            break
    u = 0.5 * (a + b)
    if abs(u - float(f(x - u * t))) <= RESIDUAL_TOL:
        return u
    raise ConvergenceError(f"no root to residual {RESIDUAL_TOL:g} at x={x:g}, t={t:g}")


def linear_decay_solution(c0: np.ndarray, t: float, gamma: float,
                          alpha: float) -> np.ndarray:
    """Exact solution of u_t = -gamma*Lambda^alpha u from the half-spectra
    c0, shape (..., N/2 + 1): modewise decay."""
    t = float(t)
    gamma = float(gamma)
    a = validate_alpha(alpha)
    if t < 0.0 or not np.isfinite(t):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    if gamma < 0.0 or not np.isfinite(gamma):
        raise ValueError(f"gamma: must be finite and >= 0, got {gamma!r}")
    decay = np.exp(-gamma * np.arange(c0.shape[-1]) ** a * t)
    return c0 * decay


def cole_hopf_solution(a: float, gamma: float, x, t: float, *,
                       h: float | None = None):
    """Exact solution of u_t + u u_x = gamma u_xx from u0 = -a sin x.

    The Cole-Hopf transform (Hopf 1950, Cole 1951) gives

        u(x, t) = int ((x - y)/t) W dy / int W dy,   W = exp(-G/(2 gamma)),
        G(y) = a (cos y - 1) + (x - y)^2 / (2t).

    Since (x - y)/t = u0(y) - dG/dy and W vanishes at both ends, the same
    ratio is int u0(y) W dy / int W dy, the W-weighted mean of u0: that form
    keeps its rounding at the size of u0 even as t -> 0, where (x - y)/t
    does not. Both integrals use the trapezoid rule in s = x - y with step h
    (default: 1/8 of sqrt(2 gamma / (1/t + |a|)), the narrowest width of W),
    over |s| <= sqrt(2t (2|a| + 120 gamma)), beyond which W < exp(-60)
    of its peak, with G - min G in the exponent. No heat-equation series is
    used: its terms cancel as a/gamma grows. x may have any shape; t = 0
    returns u0.
    """
    a, gamma, t = as_float(a), as_float(gamma), as_float(t)
    if not np.isfinite(a):
        raise ValueError(f"a must be finite, got {a!r}")
    if not 0.0 < gamma < np.inf:
        raise ValueError(f"gamma: must be finite and > 0, got {gamma!r}")
    if not 0.0 <= t < np.inf:
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    xv = np.asarray(x, dtype=float)
    if not np.isfinite(xv).all():
        raise ValueError("x must be finite")
    if t == 0.0:
        out = -a * np.sin(xv)
        return out if out.ndim else float(out)
    if h is None:
        h = np.sqrt(2.0 * gamma / (1.0 / t + abs(a))) / _COLE_HOPF_PER_WIDTH
    elif not 0.0 < as_float(h) < np.inf:
        raise ValueError(f"h must be finite and > 0, got {h!r}")
    h = float(h)
    reach = np.sqrt(2.0 * t * (2.0 * abs(a) + 2.0 * gamma * _COLE_HOPF_CUT))
    if not reach / h <= _COLE_HOPF_MAX_HALF:  # also catches an overflow to inf
        raise ValueError(f"h = {h:g} over |s| <= {reach:g} takes more than "
                         f"2**21 quadrature points")
    m = int(np.ceil(reach / h))
    s = h * np.arange(-m, m + 1)
    trapezoid = np.ones_like(s)
    trapezoid[[0, -1]] = 0.5

    def block(xb: np.ndarray) -> np.ndarray:
        y = xb[:, None] - s
        g = s**2 / (2.0 * t) - 2.0 * a * np.sin(0.5 * y) ** 2  # a (cos y - 1) = -2a sin^2(y/2)
        w = np.exp((g.min(axis=1, keepdims=True) - g) / (2.0 * gamma)) * trapezoid
        return -a * (w * np.sin(y)).sum(axis=1) / w.sum(axis=1)

    out = _blockwise(block, xv, s.size)
    return out if out.ndim else float(out)
