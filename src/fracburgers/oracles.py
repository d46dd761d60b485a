"""Analytic reference solutions, independent of the solver.

Five oracles back the test suite and the acceptance criteria. For the
undissipated equation, data whose minimum slope m0 is negative breaks at
t* = -1/m0 (breaking_time; shock_time reads m0 from a profile), and until
then its minimum slope follows m(t) = m0/(1 + t*m0) (slope_closed_form).
Before t*, smooth data rides its characteristics: u(x, t) is the unique
root of the implicit equation u = f(x - u*t). characteristics_solution
solves it at every x of an array at once, by one safeguarded Newton
iteration: each element keeps a bracket on its root, first the range of f
(sampled, then padded by the sampling bound), and bisects it wherever a
Newton step would leave it. For the purely linear
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

A profile is checked however it is built: InitialCondition's constructor
owns the catalogue's rules, and the factories and parse build through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .spectral import real, validate_alpha, whole

RESIDUAL_TOL = 1e-12
_MAX_ITERATIONS = 100  # bisection alone halves the bracket to rounding in ~60
_DENSE_SAMPLES = 8192  # for the slope floor and the characteristics bracket
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
    --ic selector name: label() writes the selector, parse() reads it back.
    However it is built, it refuses a kind, a number of params or a value
    outside the catalogue with ValueError, and stores the params
    normalised: floats, or ints for random."""

    # The --ic grammar, one selector per kind with its parameters: the CLI's
    # help text and the refusal of an unknown kind or arity both name these.
    SELECTORS: ClassVar[tuple[str, ...]] = (
        "neg-sine", "scaled-neg-sine:a", "gaussian:w", "random:kmax:seed")

    kind: str
    params: tuple = ()

    def __post_init__(self) -> None:
        kind, params = self.kind, self.params
        if not isinstance(params, tuple):
            raise TypeError(f"params must be a tuple, got {params!r}")
        arity = {sel.split(":")[0]: sel.count(":") for sel in self.SELECTORS}
        if arity.get(kind) != len(params):
            *others, last = self.SELECTORS
            text = ":".join(map(str, (kind, *params)))
            raise ValueError(f"{text!r} (expected {', '.join(others)}, or {last})")
        if kind == "scaled-neg-sine":
            params = (real("amplitude", params[0]),)
        elif kind == "gaussian":
            params = (real("width", params[0], _MIN_WIDTH, ends="[)"),)
        elif kind == "random":  # numpy's seed sequence takes non-negative integers only
            params = (whole("max_mode", params[0], 0), whole("seed", params[1], 0))
        object.__setattr__(self, "params", params)

    @classmethod
    def neg_sine(cls) -> "InitialCondition":
        return cls("neg-sine")

    @classmethod
    def scaled_neg_sine(cls, amplitude: float) -> "InitialCondition":
        return cls("scaled-neg-sine", (amplitude,))

    @classmethod
    def gaussian_bump(cls, width: float) -> "InitialCondition":
        return cls("gaussian", (width,))

    @classmethod
    def random_band(cls, max_mode: int, seed: int) -> "InitialCondition":
        return cls("random", (max_mode, seed))

    @classmethod
    def parse(cls, text: str) -> "InitialCondition":
        """The profile an --ic selector names, the inverse of label(); each
        refusal is the constructor's, worded "ic: <reason>"."""
        kind, *args = text.split(":")
        try:
            return cls(kind, tuple(args))
        except ValueError as err:
            raise ValueError(f"ic: {err}") from None

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


# Three floats per entry; a shock_time call and a characteristics grading
# each read one profile, so one entry serves every node of a grading.
@lru_cache(maxsize=1)
def _dense_sampling(f: InitialCondition) -> tuple[float, float, float]:
    """min f' over _DENSE_SAMPLES nodes, and the sampled range of f padded
    by h*max|f'| (h the node spacing) so it holds the true range: a true
    extremum lies within h/2 of a node, and the factor 2 allows for the
    sampled max|f'| falling short of the true one."""
    xs = np.linspace(-np.pi, np.pi, _DENSE_SAMPLES, endpoint=False)
    slopes = f.derivative(xs)
    vals = f(xs)
    pad = 2.0 * np.pi / _DENSE_SAMPLES * float(np.max(np.abs(slopes)))
    return float(np.min(slopes)), float(np.min(vals)) - pad, float(np.max(vals)) + pad


def _floats(key: str, value, finite: bool = False) -> np.ndarray:
    """value as a float array. None, text and other non-numbers raise
    ValueError "<key>: must be a number, got <value!r>"; with finite, they
    and NaN and inf raise "<key>: must be finite, got <value!r>"."""
    v = np.asarray(value)
    if v.dtype.kind in "biuf":
        v = v.astype(float, copy=False)
        if not finite or np.isfinite(v).all():
            return v
    raise ValueError(f"{key}: must be {'finite' if finite else 'a number'}, got {value!r}")


def breaking_time(m0: float) -> float:
    """Shock time t* = -1/m0 of the undissipated equation from the minimum
    initial slope m0; inf where that is not a finite time: m0 >= 0 (such
    data never steepens into a shock), NaN, or a subnormal m0 whose
    reciprocal overflows (Python float division, so unwarned); None or text
    is refused."""
    m0 = float(_floats("m0", m0))
    return -1.0 / m0 if m0 < 0.0 else np.inf


def shock_time(f: InitialCondition) -> float:
    """First time a characteristic crossing can occur, -1/min f'; inf if none."""
    return breaking_time(_dense_sampling(f)[0])


def slope_closed_form(m0, t):
    """Slope law m(t) = m0/(1 + t*m0) of the undissipated equation,
    elementwise over the broadcast of m0 and t; a float for scalars.
    ValueError where a denominator is 0, at the pole t = -1/m0, and where
    m0 or t is not a number (None or text); NaN and inf are numbers."""
    m0, t = _floats("m0", m0), _floats("t", t)
    denom = 1.0 + t * m0
    if (denom == 0.0).any():
        raise ValueError(f"slope law is singular at t = {t} for m0 = {m0}")
    out = m0 / denom
    return out if out.ndim else float(out)


def characteristics_solution(f: InitialCondition, x, t: float):
    """Solve u = f(x - u*t) at each x for t before the shock time.

    g(u) = u - f(x - u*t) increases strictly before the shock time (g' =
    1 + t*f' > 0), so the root is unique, and it lies in the range of f,
    since u is a value of f. Every element starts from u = f(x) with that
    range as its bracket [a, b], g(a) <= 0 <= g(b): the range sampled at
    8192 nodes, padded by the sampling bound h*max|f'| (h = 2*pi/8192) so it
    holds the true range. Each then takes Newton steps, bisecting its
    bracket instead wherever a step would leave it, and stops once
    |g(u)| <= 1e-12, so it does not depend on the other elements. x may
    have any shape; a scalar x returns a float. ConvergenceError where the
    bracket does not straddle the root or the residual is not met.
    """
    xv = _floats("x", x, finite=True)
    t = real("t", t, 0.0, ends="[)")
    if t == 0.0:
        return f(xv)
    t_star = shock_time(f)
    if t >= t_star:
        raise ValueError(
            f"t={t:g} is at or after the shock time {t_star:g}; "
            "characteristics cross and the implicit equation loses uniqueness"
        )

    _, lo, hi = _dense_sampling(f)
    # One evaluation gives the start u = f(x) and g at both ends of the bracket.
    u, f_lo, f_hi = f(np.stack([xv, xv - lo * t, xv - hi * t]))
    straddles = (lo <= f_lo) & (f_hi <= hi)
    if not straddles.all():
        raise ConvergenceError(f"bracket [{lo:g}, {hi:g}] does not straddle the root at "
                               f"x={xv[~straddles][0]:g}, t={t:g}")
    a, b = lo, hi
    with np.errstate(divide="ignore", invalid="ignore"):  # a non-finite step bisects
        for _ in range(_MAX_ITERATIONS):
            y = xv - u * t
            r = u - f(y)
            live = ~(np.abs(r) <= RESIDUAL_TOL)  # converged elements stay as they are
            if not live.any():
                return u if u.ndim else float(u)
            below = r < 0.0
            a, b = np.where(below, u, a), np.where(below, b, u)
            step = u - r / (1.0 + t * f.derivative(y))
            step = np.where((a < step) & (step < b), step, 0.5 * (a + b))
            u = np.where(live, step, u)
    raise ConvergenceError(f"no root to residual {RESIDUAL_TOL:g} at x={xv[live][0]:g}, t={t:g}")


def linear_decay_solution(c0: np.ndarray, t: float, gamma: float,
                          alpha: float) -> np.ndarray:
    """Exact solution of u_t = -gamma*Lambda^alpha u from the half-spectra
    c0 (np.asarray of it), shape (..., N/2 + 1): modewise decay."""
    a = validate_alpha(alpha)
    t = real("t", t, 0.0, ends="[)")
    gamma = real("gamma", gamma, 0.0, ends="[)")
    c0 = np.asarray(c0)
    decay = np.exp(-gamma * np.arange(c0.shape[-1]) ** a * t)
    return c0 * decay


def cole_hopf_solution(a: float, gamma: float, x, t: float):
    """Exact solution of u_t + u u_x = gamma u_xx from u0 = -a sin x.

    The Cole-Hopf transform (Hopf 1950, Cole 1951) gives

        u(x, t) = int ((x - y)/t) W dy / int W dy,   W = exp(-G/(2 gamma)),
        G(y) = a (cos y - 1) + (x - y)^2 / (2t).

    Since (x - y)/t = u0(y) - dG/dy and W vanishes at both ends, the same
    ratio is int u0(y) W dy / int W dy, the W-weighted mean of u0: that form
    keeps its rounding at the size of u0 even as t -> 0, where (x - y)/t
    does not. Both integrals use the trapezoid rule in s = x - y with step h,
    1/8 of sqrt(2 gamma / (1/t + |a|)), the narrowest width of W,
    over |s| <= sqrt(2t (2|a| + 120 gamma)), beyond which W < exp(-60)
    of its peak, with G - min G in the exponent. No heat-equation series is
    used: its terms cancel as a/gamma grows. x may have any shape; t = 0
    returns u0.
    """
    a, gamma, t = real("a", a), real("gamma", gamma, 0.0), real("t", t, 0.0, ends="[)")
    xv = _floats("x", x, finite=True)
    if t == 0.0:
        out = -a * np.sin(xv)
        return out if out.ndim else float(out)
    h = np.sqrt(2.0 * gamma / (1.0 / t + abs(a))) / _COLE_HOPF_PER_WIDTH
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
