"""alpha = 2 runs with --dt auto graded against the Cole-Hopf solution,
and the slope comparison bounds read from their records.

With alpha = 2 the equation is viscous Burgers with viscosity gamma, and
oracles.cole_hopf_solution gives its exact solution from u0 = -sin x. These
are the acceptance suite's criterion 3 and criterion 8 runs and the stiff
benchmark run, all bound by the dissipative step, and two of them under the
2/3 rule. Every snapshot is graded, and each run's step count is pinned, so
a smaller step bound cannot come back unseen.
Each tolerance is about three times the worst error measured with
CFL_DISSIPATION = 2, or 1e-14 where that error is rounding; the error of the
gamma = 0.1 and 0.05 runs is RK4's time error. The runs come from conftest's
session cache, so the acceptance suite's criteria 3 and 8 share them, and
criterion 1's conservation run is graded here on its slope floor alone. A
fractional run at two sizes shows a ceiling break that refinement removes.
"""

import numpy as np
import pytest

from fracburgers.cli import parse_config
from fracburgers.oracles import cole_hopf_solution, slope_closed_form
from fracburgers.spectral import nodes

RUNS = [
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
]
RUN_IDS = ["criterion-3", "criterion-8-gamma-0.2", "criterion-8-gamma-0.1",
           "criterion-8-gamma-0.05", "stiff-256", "criterion-8-gamma-0.2-two-thirds",
           "stiff-256-two-thirds"]


@pytest.mark.parametrize("args, steps, tol", RUNS, ids=RUN_IDS)
def test_auto_step_run_matches_cole_hopf(args, steps, tol, timed_run):
    cfg = parse_config([*args, "--output", "unused"])
    res, _ = timed_run(args)
    assert res.status == "completed" and res.snapshots[-1][0] == cfg.t_final
    assert len(res.records) - 1 == steps
    errors = [float(np.max(np.abs(u - cole_hopf_solution(1.0, cfg.params.gamma,
                                                         nodes(cfg.n), t))))
              for t, u in res.snapshots]
    assert max(errors) <= tol, (len(res.records) - 1, errors)


@pytest.mark.parametrize("args", [args for args, _, _ in RUNS], ids=RUN_IDS)
def test_slope_extrema_within_the_comparison_bounds(args, timed_run):
    """The recorded slope extrema keep the comparison bounds that dissipation
    only strengthens: max u_x <= M0/(1 + t M0) at every record and, while
    1 + t m0 > 0, min u_x >= m0/(1 + t m0), M0 and m0 read from the t = 0
    record. Past t = 0 the closest approach measured is 1.2e-4 relative, or
    2.8e-4 under the 2/3 rule, so no tolerance is allowed."""
    res, _ = timed_run(args)
    t, lo, hi = np.array([(r.t, r.min_slope, r.max_slope) for r in res.records]).T
    m0, big_m0 = lo[0], hi[0]
    assert np.all(hi <= slope_closed_form(big_m0, t))
    before = 1.0 + t * m0 > 0.0
    assert np.all(lo[before] >= slope_closed_form(m0, t[before]))


def test_conservation_run_keeps_the_slope_floor(timed_run):
    """Criterion 1's run (gamma = 0.1, alpha = 1) keeps the floor
    min u_x >= m0/(1 + t m0) while 1 + t m0 > 0: closest approach 7.9e-4
    relative. Its ceiling max u_x <= M0/(1 + t M0) is not asserted: the run
    breaks it by up to 2.37 relative from t = 1.1 on, a numerical break
    (ringing at the steep front). The same configuration at N = 1024 and
    4096 breaks it by at most 0.52 and 0 before its slope threshold stops it."""
    res, _ = timed_run(["--gamma", "0.1", "--alpha", "1", "--n", "256",
                        "--dt", "auto", "--t-final", "2"])
    t, lo = np.array([(r.t, r.min_slope) for r in res.records]).T
    m0 = lo[0]
    before = 1.0 + t * m0 > 0.0
    assert np.all(lo[before] >= slope_closed_form(m0, t[before]))


def test_refinement_removes_a_ceiling_break(timed_run):
    """A break of the ceiling max u_x <= M0/(1 + t M0) that refinement
    removes, so it is numerical: alpha = 1.5, gamma = 0.05, random:8:0,
    dealiasing off, no slope limit. At N = 256 the break passes 1e-3
    relative at t = 0.285 and peaks at +1.70 at t = 0.51; at N = 1024 the
    ceiling holds at every record (closest approach past t = 0: 1.6e-3
    relative). The floor min u_x >= m0/(1 + t m0) holds at both sizes while
    1 + t m0 > 0 (closest 5.6e-3 and 1.6e-3)."""
    worst = {}
    for n in ("256", "1024"):
        res, _ = timed_run(["--n", n, "--gamma", "0.05", "--alpha", "1.5", "--ic", "random:8:0",
                            "--dt", "auto", "--t-final", "1", "--slope-limit", "1e300"])
        assert res.status == "completed"
        t, lo, hi = np.array([(r.t, r.min_slope, r.max_slope) for r in res.records]).T
        m0, big_m0 = lo[0], hi[0]
        ceiling = slope_closed_form(big_m0, t)
        worst[n] = float(np.max((hi - ceiling) / ceiling))
        before = 1.0 + t * m0 > 0.0
        assert np.all(lo[before] >= slope_closed_form(m0, t[before])), n
    assert worst["256"] > 1.0 and worst["1024"] <= 0.0, worst
