"""Fractional alpha graded by the scheme's own convergence.

No oracle covers Burgers at 0 < alpha < 2 with gamma > 0 and the nonlinear
term: characteristics needs gamma = 0, Cole-Hopf alpha = 2, and the linear
decay solution drops the product. So -sin x with gamma = 0.2 and dealiasing
off is run at alpha = 0.5, 1 and 1.5 and compared with finer runs of the
same scheme, in space (spectral convergence) and in time (RK4's fourth
order). Errors are max nodal differences; a ratio is only read while the
error is above the rounding floor.
"""

import numpy as np
import pytest

from fracburgers.dynamics import SimParams, rk4_step
from fracburgers.spectral import forward_dft, inverse_dft, nodes

ALPHAS = [0.5, 1.0, 1.5]
FLOOR = 1e-13  # rounding: below this an error says nothing about the order


def solve(n, alpha, dt, t_final):
    """Nodal values at t_final of -sin x on n nodes, stepped with a fixed dt."""
    p = SimParams(gamma=0.2, alpha=alpha)
    c = forward_dft(-np.sin(nodes(n)))
    for _ in range(round(t_final / dt)):
        c = rk4_step(c, p, dt)
    return inverse_dft(c)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_spectral_convergence_in_n(alpha):
    """At t = 1 and dt = 2.5e-3, the error of N = 64 / 128 / 256 against
    N = 512 at the coarse nodes (nodes(n) is every (512/n)-th node of
    nodes(512)) measured 6.8e-3 / 8.1e-4 / 2.1e-5 at alpha = 0.5,
    7.5e-4 / 1.4e-5 / 1.0e-8 at alpha = 1 and 1.2e-6 / 2.2e-11 / 2.2e-16 at
    alpha = 1.5: every doubling cuts it by at least 8 until rounding."""
    dt, t_final, ref_n = 2.5e-3, 1.0, 512
    ref = solve(ref_n, alpha, dt, t_final)
    errors = [float(np.max(np.abs(solve(n, alpha, dt, t_final) - ref[::ref_n // n])))
              for n in (64, 128, 256)]
    assert errors[0] > FLOOR, errors
    for coarse, fine in zip(errors, errors[1:]):
        if coarse > FLOOR:
            assert coarse >= 6.0 * fine, errors


@pytest.mark.parametrize("alpha", ALPHAS)
def test_fourth_order_in_dt(alpha):
    """At N = 64 and t = 0.2, the error of dt = 2e-2 / 1e-2 / 5e-3 against
    dt = 1.25e-3 measured 5.6e-9 to 2.2e-11, and every halving divided it by
    16.0 to 16.2 at each alpha."""
    t_final = 0.2
    ref = solve(64, alpha, 1.25e-3, t_final)
    errors = [float(np.max(np.abs(solve(64, alpha, dt, t_final) - ref)))
              for dt in (2e-2, 1e-2, 5e-3)]
    assert errors[-1] > FLOOR, errors
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 18.0, errors
