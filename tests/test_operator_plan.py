"""Bit-for-bit test of the stepper's fast path against the public operators.

rk4_step applies the operators as multipliers built once per (rows, alpha,
rule), the state's row count N/2 + 1, the fractional order and the dealias
rule, and can reuse a handed-over u and u_x in its first stage. The slow path
here composes the public operators (inverse_dft, spectral_derivative,
forward_dft, dealias, fractional_laplacian) call by call, as the stepper did
before the multipliers were cached: -dealias(u u_x) under "off" and
-0.5 dealias(D(u^2)) under "two-thirds". The fast path must reproduce it
exactly, not only to rounding: the run outputs are byte-identical across
that change.
"""

import numpy as np
import pytest

from fracburgers.dynamics import SimParams, _plan, _tendency, rk4_step
from fracburgers.spectral import (
    dealias,
    forward_dft,
    fractional_laplacian,
    inverse_dft,
    nodal_pair,
    spectral_derivative,
)

CASES = {
    "inviscid": dict(gamma=0.0),
    "dissipative": dict(gamma=0.37),
    "linear_only": dict(gamma=0.37, linear_only=True),
}


def slow_tendency(c, p):
    """Coefficients of F for the state c, one public operator at a time."""
    hat = np.zeros_like(c)
    if not p.linear_only:
        u = inverse_dft(c)
        if p.dealias_rule == "two-thirds":
            hat = -0.5 * dealias(spectral_derivative(forward_dft(u * u)), p.dealias_rule)
        else:
            ux = inverse_dft(spectral_derivative(c))
            hat = -dealias(forward_dft(u * ux), p.dealias_rule)
        hat[0] = hat[-1] = 0.0
    if p.gamma > 0.0:
        hat -= p.gamma * fractional_laplacian(c, p.alpha)
    return hat


def slow_rk4_step(c, p, dt):
    def f(state):
        return slow_tendency(state, p)

    k1 = f(c)
    k2 = f(c + 0.5 * dt * k1)
    k3 = f(c + 0.5 * dt * k2)
    k4 = f(c + dt * k3)
    return c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def random_states(n, seed, count=3):
    rng = np.random.default_rng(seed)
    return [forward_dft(rng.standard_normal(n)) for _ in range(count)]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("rule", ["off", "two-thirds"], ids=["off", "two_thirds"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_tendency_and_step_equal_public_operators(n, rule, case):
    states = random_states(n, seed=4000 + n)
    rng = np.random.default_rng(5000 + n)
    for s in states:
        alpha = 2.0 - rng.uniform(0.0, 2.0)  # (0, 2]
        p = SimParams(alpha=alpha, dealias_rule=rule, **CASES[case])
        want = slow_tendency(s, p)
        assert np.array_equal(_tendency(s, p), want)
        assert np.array_equal(_tendency(s, p, nodal_pair(s)), want)

        want = slow_rk4_step(s, p, 1e-3)
        assert np.array_equal(rk4_step(s, p, 1e-3), want)
        assert np.array_equal(rk4_step(s, p, 1e-3, nodal=nodal_pair(s)), want)


def test_plan_multipliers_equal_public_operators():
    """Multiplying by the plan's arrays is applying the public operators."""
    rng = np.random.default_rng(6000)
    for _ in range(12):
        n = 2 * int(rng.integers(2, 300))
        alpha = 2.0 - rng.uniform(0.0, 2.0)
        rule = str(rng.choice(["off", "two-thirds"]))
        (c,) = random_states(n, seed=int(rng.integers(1 << 30)), count=1)
        derivative, product, laplacian = _plan(len(c), alpha, rule)
        assert np.array_equal(c * derivative, spectral_derivative(c))
        assert np.array_equal(c * laplacian, fractional_laplacian(c, alpha))
        want = -dealias(c, rule)
        want[0] = want[-1] = 0.0
        if rule == "two-thirds":  # the tendency transforms u^2: 0.5 (u^2)_x
            want = 0.5 * spectral_derivative(want)
        assert np.array_equal(c * product, want)
        assert not any(a.flags.writeable for a in (derivative, product, laplacian))


@pytest.mark.parametrize("case", CASES)
def test_two_sizes_alternate_through_one_params(case):
    """The plan cache is keyed by the row count as well as alpha and the
    rule: states of two sizes stepped alternately through one SimParams each
    get the multipliers of their own N."""
    p = SimParams(alpha=1.3, dealias_rule="two-thirds", **CASES[case])
    small, large = random_states(16, seed=7016), random_states(24, seed=7024)
    for s in (small[0], large[0], small[1], large[1], small[2], large[2]):
        assert np.array_equal(rk4_step(s, p, 1e-3), slow_rk4_step(s, p, 1e-3))


def test_params_differing_in_gamma_share_one_plan():
    """The plan holds only what alpha and the rule decide, so SimParams that
    differ in gamma or linear_only share it: each step, through either,
    still equals the slow path bit for bit."""
    base = dict(alpha=0.7, dealias_rule="two-thirds")
    pairs = [(SimParams(gamma=0.0, **base), SimParams(gamma=0.9, **base)),
             (SimParams(gamma=0.3, **base), SimParams(gamma=0.3, linear_only=True, **base))]
    (start,) = random_states(32, seed=7032, count=1)
    for first, second in pairs:
        _plan.cache_clear()
        s = start
        for p in (first, second, first, second):
            want = slow_rk4_step(s, p, 1e-3)
            s = rk4_step(s, p, 1e-3)
            assert np.array_equal(s, want)
        assert _plan.cache_info().currsize == 1
