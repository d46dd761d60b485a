"""Differential test of the tendency, one RK4 step and the spectral norms
against a dense DFT.

The reference builds the full spectrum c_k, k = -N/2 .. N/2-1, from the
explicit sum (1/N) sum_j u(x_j) exp(-i k x_j) and evaluates the interpolant
by the explicit sum back, with no FFT and no half-spectrum. The phase k*x_j
= pi*k*(2j - N)/N is reduced modulo 2*pi in integers first, so the dense
matrices are exact to rounding. These are the Fourier coefficients in x,
(-1)^k times the stored ones (the rfft of the node values); they are
compared only through nodal values and |c_k|^2, so the test does not depend
on that convention.
"""

import math

import numpy as np
import pytest

from fracburgers.diagnostics import observe
from fracburgers.dynamics import SimParams, _tendency, rk4_step
from fracburgers.spectral import forward_dft, inverse_dft

RTOL = 1e-12


def dense_basis(n):
    """Wavenumbers -n/2 .. n/2-1 and the matrix exp(i k x_j), rows j."""
    k = np.arange(-(n // 2), n // 2)
    turns = np.outer(2 * np.arange(n) - n, k) % (2 * n)  # k*x_j = pi*turns/n
    return k, np.exp(1j * np.pi * turns / n)


def dense_forward(u, n):
    k, e = dense_basis(n)
    return k, e.conj().T @ u / n


def dense_inverse(c, n):
    return (dense_basis(n)[1] @ c).real


def dense_derivative(k, c, n):
    dc = 1j * k * c
    dc[k == -(n // 2)] = 0.0  # the unpaired mode has no real derivative
    return dc


def dense_rhs(u, n, gamma, alpha, rule, linear_only):
    """Under "off" the collocation product u u_x; under "two-thirds" the
    conservative form 0.5 (u^2)_x, then the rule's filter."""
    k, c = dense_forward(u, n)
    if linear_only:
        return -gamma * dense_inverse(np.abs(k) ** alpha * c, n)
    if rule == "two-thirds":
        prod = 0.5 * dense_derivative(k, dense_forward(u * u, n)[1], n)
        prod[np.abs(k) > n / 3.0] = 0.0
    else:
        prod = dense_forward(u * dense_inverse(dense_derivative(k, c, n), n), n)[1]
    prod[k == 0] = 0.0
    prod[k == -(n // 2)] = 0.0  # dropped from the product too, so c_{N/2} only decays
    out = -dense_inverse(prod, n)
    if gamma > 0.0:
        out -= gamma * dense_inverse(np.abs(k) ** alpha * c, n)
    return out


def relative(got, want):
    # A zero reference (linear_only with gamma = 0) leaves no scale: demand exact zeros.
    scale = max(float(np.max(np.abs(want))), np.finfo(float).tiny)
    return float(np.max(np.abs(np.subtract(got, want)))) / scale


def rhs(u, p):
    """The tendency F(u) at the nodes: rk4_step's coefficient kernel between
    a forward and an inverse transform."""
    c = forward_dft(u)
    return inverse_dft(_tendency(c, p))


def check_rhs(n, rule, linear_only):
    rng = np.random.default_rng(1000 + n)
    for gamma in (0.0, *rng.uniform(0.0, 1.0, 3)):
        alpha = 2.0 - rng.uniform(0.0, 2.0)  # (0, 2]
        u = rng.standard_normal(n)
        p = SimParams(gamma=gamma, alpha=alpha, dealias_rule=rule, linear_only=linear_only)
        want = dense_rhs(u, n, gamma, alpha, rule, linear_only)
        err = relative(rhs(u, p), want)
        assert err <= RTOL, f"gamma={gamma:.3f} alpha={alpha:.3f}: {err:.2e}"


@pytest.mark.parametrize("rule", ["off", "two-thirds"], ids=["off", "two_thirds"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_rhs_matches_dense_reference(n, rule):
    check_rhs(n, rule, linear_only=False)


@pytest.mark.parametrize("rule", ["off", "two-thirds"], ids=["off", "two_thirds"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_linear_rhs_matches_dense_reference(n, rule):
    check_rhs(n, rule, linear_only=True)


@pytest.mark.parametrize("rule", ["off", "two-thirds"], ids=["off", "two_thirds"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_rk4_step_matches_dense_reference(n, rule):
    """One step against classic RK4 built from the nodal dense tendency."""
    rng = np.random.default_rng(3000 + n)
    dt = 1e-3
    for gamma in (0.0, *rng.uniform(0.0, 1.0, 3)):
        alpha = 2.0 - rng.uniform(0.0, 2.0)  # (0, 2]
        u = rng.standard_normal(n)

        def f(v):
            return dense_rhs(v, n, gamma, alpha, rule, linear_only=False)

        k1 = f(u)
        k2 = f(u + 0.5 * dt * k1)
        k3 = f(u + 0.5 * dt * k2)
        k4 = f(u + dt * k3)
        want = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        p = SimParams(gamma=gamma, alpha=alpha, dealias_rule=rule)
        s = rk4_step(forward_dft(u), p, dt)
        err = relative(inverse_dft(s), want)
        assert err <= RTOL, f"gamma={gamma:.3f} alpha={alpha:.3f}: {err:.2e}"


@pytest.mark.parametrize("rule", ["off", "two-thirds"], ids=["off", "two_thirds"])
@pytest.mark.parametrize("n", [16, 64, 256])
def test_norms_match_dense_reference(n, rule):
    """The tail against the top third of the band the rule keeps: with K the
    largest kept |k|, the kept rows with 3|k| >= 2K."""
    rng = np.random.default_rng(2000 + n)
    for _ in range(4):
        u = rng.standard_normal(n)
        k, c = dense_forward(u, n)
        power = np.abs(c) ** 2
        l2 = math.sqrt(2.0 * np.pi * np.sum(power))
        h3 = math.sqrt(2.0 * np.pi * np.sum((1.0 + k**2.0) ** 3 * power))
        kept = np.abs(k) <= (n / 3.0 if rule == "two-thirds" else n / 2.0)
        top = kept & (3 * np.abs(k) >= 2 * np.abs(k[kept]).max())
        tail = np.sum(power[top]) / np.sum(power[k != 0])
        rec = observe(forward_dft(u), 0.0, rule=rule)
        assert rec.l2 == pytest.approx(l2, rel=RTOL, abs=0)
        assert rec.h3 == pytest.approx(h3, rel=RTOL, abs=0)
        assert rec.tail_fraction == pytest.approx(tail, rel=RTOL, abs=0)
