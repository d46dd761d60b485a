"""alpha = 2 runs with --dt auto graded against the Cole-Hopf solution.

With alpha = 2 the equation is viscous Burgers with viscosity gamma, and
oracles.cole_hopf_solution gives its exact solution from u0 = -sin x. These
are the acceptance suite's criterion 3 and criterion 8 runs and the stiff
benchmark run, all bound by the dissipative step. Every snapshot is graded.
Each tolerance is about three times the worst error measured with
CFL_DISSIPATION = 2, or 1e-14 where that error is rounding; the error of the
gamma = 0.1 and 0.05 runs is RK4's time error.
"""

import numpy as np
import pytest

from fracburgers.cli import parse_config, run_simulation
from fracburgers.oracles import cole_hopf_solution
from fracburgers.spectral import nodes


@pytest.mark.parametrize("args, tol", [
    # criterion 3: 8200 steps, worst error 1.3e-15
    (["--gamma", "0.5", "--alpha", "2", "--t-final", "2"], 1e-14),
    # criterion 8: 1968 / 984 / 492 steps, worst 7.8e-15 / 4.4e-13 / 6.1e-11
    (["--gamma", "0.2", "--alpha", "2", "--t-final", "1.2"], 2.5e-14),
    (["--gamma", "0.1", "--alpha", "2", "--t-final", "1.2"], 1.5e-12),
    (["--gamma", "0.05", "--alpha", "2", "--t-final", "1.2"], 2e-10),
    # the stiff-256 benchmark run: 205 steps, worst 8.9e-16
    (["--gamma", "0.5", "--alpha", "2", "--t-final", "0.05", "--snapshot-every", "0.01"],
     1e-14),
], ids=["criterion-3", "criterion-8-gamma-0.2", "criterion-8-gamma-0.1",
        "criterion-8-gamma-0.05", "stiff-256"])
def test_auto_step_run_matches_cole_hopf(args, tol):
    cfg = parse_config([*args, "--output", "unused"])
    res = run_simulation(cfg)
    assert res.status == "completed" and res.snapshots[-1][0] == cfg.t_final
    errors = [float(np.max(np.abs(u - cole_hopf_solution(1.0, cfg.params.gamma,
                                                         nodes(cfg.n), t))))
              for t, u in res.snapshots]
    assert max(errors) <= tol, (len(res.records) - 1, errors)
