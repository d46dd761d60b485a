"""alpha = 2 runs with --dt auto graded against the Cole-Hopf solution.

With alpha = 2 the equation is viscous Burgers with viscosity gamma, and
oracles.cole_hopf_solution gives its exact solution from u0 = -sin x. These
are the acceptance suite's criterion 3 and criterion 8 runs and the stiff
benchmark run, all bound by the dissipative step, and two of them under the
2/3 rule. Every snapshot is graded, and each run's step count is pinned, so
a smaller step bound cannot come back unseen.
Each tolerance is about three times the worst error measured with
CFL_DISSIPATION = 2, or 1e-14 where that error is rounding; the error of the
gamma = 0.1 and 0.05 runs is RK4's time error. The runs come from conftest's
session cache, so the acceptance suite's criteria 3 and 8 share them.
"""

import numpy as np
import pytest

from fracburgers.cli import parse_config
from fracburgers.oracles import cole_hopf_solution
from fracburgers.spectral import nodes


@pytest.mark.parametrize("args, steps, tol", [
    # criterion 3: worst error 1.3e-15
    (["--gamma", "0.5", "--alpha", "2", "--t-final", "2"], 8200, 1e-14),
    # criterion 8: worst 7.8e-15 / 4.4e-13 / 6.1e-11
    (["--gamma", "0.2", "--alpha", "2", "--t-final", "1.2"], 1968, 2.5e-14),
    (["--gamma", "0.1", "--alpha", "2", "--t-final", "1.2"], 984, 1.5e-12),
    (["--gamma", "0.05", "--alpha", "2", "--t-final", "1.2"], 492, 2e-10),
    # the stiff-256 benchmark run: worst 8.9e-16
    (["--gamma", "0.5", "--alpha", "2", "--t-final", "0.05", "--snapshot-every", "0.01"],
     205, 1e-14),
    # Under the 2/3 rule both step bounds read K = 85 in place of 128, so a
    # dealiased run takes (128 / 85)^2 = 2.27 times fewer steps: worst
    # 2.0e-13 and 8.5e-15.
    (["--gamma", "0.2", "--alpha", "2", "--t-final", "1.2", "--dealias", "two-thirds"],
     876, 6e-13),
    (["--gamma", "0.5", "--alpha", "2", "--t-final", "0.05", "--snapshot-every", "0.01",
      "--dealias", "two-thirds"], 95, 3e-14),
], ids=["criterion-3", "criterion-8-gamma-0.2", "criterion-8-gamma-0.1",
        "criterion-8-gamma-0.05", "stiff-256", "criterion-8-gamma-0.2-two-thirds",
        "stiff-256-two-thirds"])
def test_auto_step_run_matches_cole_hopf(args, steps, tol, timed_run):
    cfg = parse_config([*args, "--output", "unused"])
    res, _ = timed_run(args)
    assert res.status == "completed" and res.snapshots[-1][0] == cfg.t_final
    assert len(res.records) - 1 == steps
    errors = [float(np.max(np.abs(u - cole_hopf_solution(1.0, cfg.params.gamma,
                                                         nodes(cfg.n), t))))
              for t, u in res.snapshots]
    assert max(errors) <= tol, (len(res.records) - 1, errors)
