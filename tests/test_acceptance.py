"""Acceptance suite: every shipped guarantee, one pass/fail line per criterion.

Every run goes through conftest's session-scoped timed_run, so the
heavyweight ones (the viscous conservation run, the N = 1024 shock run and
the alpha = 2 runs of criteria 3 and 8, which tests/test_viscous_runs.py also
grades) are computed once and shared by the tests that grade them.
"""

import numpy as np
import pytest

from conftest import write_run
from fracburgers.cli import parse_config
from fracburgers.diagnostics import DetectionThresholds, check_blowup
from fracburgers.dynamics import SimParams, rk4_step
from fracburgers.oracles import InitialCondition, characteristics_solution, slope_closed_form
from fracburgers.spectral import (
    forward_dft,
    fractional_laplacian,
    inverse_dft,
    nodes,
    spectral_derivative,
)

CONSERVATION_ARGS = ["--gamma", "0.1", "--alpha", "1", "--n", "256",
                     "--dt", "auto", "--t-final", "2"]


@pytest.fixture(scope="module")
def conservation_run(timed_run):
    """Criterion 1 config; criteria 1 and 2 grade it."""
    return timed_run(CONSERVATION_ARGS)


@pytest.fixture(scope="module")
def shock_run(timed_run):
    """Inviscid N = 1024 shock run; criteria 4 and 7 grade it."""
    return timed_run(["--gamma", "0", "--n", "1024", "--dt", "0.0001",
                      "--t-final", "1.2"])


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return _announce


def test_criterion_01_mass_conservation(conservation_run, announce):
    res, sink, elapsed = conservation_run
    worst = max(abs(r.mass) for r in sink.records)
    ok = res.status == "completed" and worst <= 1e-10 and elapsed < 10.0
    announce(1, "mass conserved to 1e-10",
             ok, f"max |mass| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_l2_principle(conservation_run, timed_run, announce):
    _, sink, _ = conservation_run
    l2 = np.array([r.l2 for r in sink.records])
    worst_rise = float(np.max(np.diff(l2)))

    _, inviscid, _ = timed_run(["--gamma", "0", "--n", "256", "--t-final", "0.5"])
    li = np.array([r.l2 for r in inviscid.records])
    drift = float(np.max(np.abs(li - li[0])) / li[0])

    ok = worst_rise <= 1e-10 and drift <= 1e-6
    announce(2, "L2 nonincreasing when damped, constant when inviscid",
             ok, f"worst step rise = {worst_rise:.2e}, inviscid drift = {drift:.2e}")


def test_criterion_03_linf_principle(timed_run, announce):
    res, sink, elapsed = timed_run(["--gamma", "0.5", "--alpha", "2", "--t-final", "2"])
    hi = max(r.max_u for r in sink.records)
    lo = min(r.min_u for r in sink.records)
    ok = res.status == "completed" and hi <= 1.0 + 1e-6 and lo >= -1.0 - 1e-6
    announce(3, "extrema bounded by the initial range",
             ok, f"max = {hi:.9f}, min = {lo:.9f}, {elapsed:.1f} s")


def test_criterion_04_blowup_law(shock_run, announce):
    res, sink, elapsed = shock_run
    at_08 = min(sink.records, key=lambda r: abs(r.t - 0.8))
    target = slope_closed_form(-1.0, 0.8)  # -5
    rel_dev = abs(at_08.min_slope - target) / abs(target)
    window = (res.status == "blowup_detected"
              and check_blowup(res.last, DetectionThresholds()) == "slope_threshold"
              and 0.9 <= res.last.t <= 1.05)
    ok = abs(at_08.t - 0.8) <= 1e-9 and rel_dev <= 0.02 and window and elapsed < 60.0
    announce(4, "slope follows the breaking law and detection fires near t*",
             ok, f"slope(0.8) = {at_08.min_slope:.4f}, detected_t = "
                 f"{res.last.t:.4f}, {elapsed:.1f} s")


def test_criterion_05_characteristics_equivalence(timed_run, announce):
    _, sink, _ = timed_run(["--gamma", "0", "--n", "512", "--dt", "0.0001",
                            "--t-final", "0.5"])
    t_end, final = sink.snapshots[-1]
    xs = nodes(512)
    f = InitialCondition.neg_sine()
    exact = characteristics_solution(f, xs, t_end)
    err = float(np.max(np.abs(final - exact)))
    ok = t_end == 0.5 and err <= 1e-6
    announce(5, "simulated field matches the implicit characteristics solution",
             ok, f"max nodal error = {err:.2e}")


def test_criterion_06_linear_exactness_and_order(announce):
    x = nodes(16)

    def terminal_amplitude(alpha, dt):
        p = SimParams(gamma=1.0, alpha=alpha, linear_only=True)
        s = forward_dft(np.cos(2.0 * x))
        for _ in range(round(1.0 / dt)):
            s = rk4_step(s, p, dt)
        return 2.0 * abs(s[2])

    worst_err = 0.0
    worst_ratio_lo, worst_ratio_hi = np.inf, 0.0
    for alpha in (0.5, 1.0, 2.0):
        target = np.exp(-(2.0**alpha))
        worst_err = max(worst_err, abs(terminal_amplitude(alpha, 1.0 / 512) - target))
        errs = [abs(terminal_amplitude(alpha, 0.05 / 2**i) - target) for i in range(4)]
        for a, b in zip(errs, errs[1:]):
            worst_ratio_lo = min(worst_ratio_lo, a / b)
            worst_ratio_hi = max(worst_ratio_hi, a / b)
    ok = worst_err <= 1e-8 and worst_ratio_lo >= 12.0 and worst_ratio_hi <= 20.0
    announce(6, "mode k = 2 decays exactly and converges at order 4",
             ok, f"worst amplitude error = {worst_err:.2e}, halving ratios in "
                 f"[{worst_ratio_lo:.1f}, {worst_ratio_hi:.1f}]")


def test_criterion_07_bkm_monitor(shock_run, announce):
    """The BKM integral tracks its closed form -ln(1 - t) up to t = 0.95.

    For -sin x the slope law m(t) = m0/(1 + t m0), m0 = -1, makes
    ||u_x||_inf = 1/(1 - t) (the largest positive slope, 1/(1 + t), is
    smaller), so the integral is -ln(1 + m0 t). The 5e-4 tolerance is about
    4x the spatial-resolution error at t = 0.95 (1.3e-4) and below the
    9.5e-4 a left-endpoint quadrature would miss by.
    """
    _, sink, _ = shock_run
    bkm = np.array([r.bkm_integral for r in sink.records])
    monotone = bool(np.all(np.diff(bkm) >= 0.0))
    t = np.array([r.t for r in sink.records])
    upto = t <= 0.95 + 1e-9
    m0 = -1.0
    dev = np.abs(bkm[upto] - (-np.log1p(m0 * t[upto])))
    worst = int(np.argmax(dev))
    ok = monotone and bool(np.all(dev <= 5e-4))
    announce(7, "BKM integral nondecreasing and within 5e-4 of -ln(1 - t) "
                "up to t = 0.95",
             ok, f"monotone = {monotone}, worst deviation = {dev[worst]:.2e} "
                 f"at t = {t[upto][worst]:.4f}")


def test_criterion_08_vanishing_viscosity(timed_run, announce):
    finals = []
    for gamma in ("0.2", "0.1", "0.05"):
        _, sink, _ = timed_run(["--gamma", gamma, "--alpha", "2", "--t-final", "1.2"])
        finals.append(sink.snapshots[-1][1])
    d1 = float(np.max(np.abs(finals[0] - finals[1])))
    d2 = float(np.max(np.abs(finals[1] - finals[2])))
    ok = d1 > d2
    announce(8, "successive solutions contract as viscosity shrinks",
             ok, f"d(0.2, 0.1) = {d1:.6f} > d(0.1, 0.05) = {d2:.6f}")


def test_criterion_09_operator_exactness(announce):
    rng = np.random.default_rng(61)
    worst = 0.0
    for n in (16, 64, 256):
        x = nodes(n)
        u = np.zeros(n)
        du = np.zeros(n)
        for k in range(1, n // 2):
            a, b = rng.standard_normal(2) / (1 + k) ** 2
            u += a * np.cos(k * x) + b * np.sin(k * x)
            du += k * (b * np.cos(k * x) - a * np.sin(k * x))
        got = inverse_dft(spectral_derivative(forward_dft(u)))
        worst = max(worst, float(np.max(np.abs(got - du))))
    derivative_ok = worst <= 1e-11

    x = nodes(64)
    s2 = forward_dft(np.cos(2.0 * x))
    doubled = inverse_dft(fractional_laplacian(s2, 1.0))
    identity_ok = bool(np.allclose(doubled, 2.0 * np.cos(2.0 * x),
                                   rtol=0, atol=1e-13))
    s1 = forward_dft(-np.sin(x))
    for alpha in (0.5, 1.0, 2.0):
        fixed = inverse_dft(fractional_laplacian(s1, alpha))
        identity_ok &= bool(np.allclose(fixed, -np.sin(x),
                                        rtol=0, atol=1e-13))
    rnd = forward_dft(rng.standard_normal(64))
    lap = fractional_laplacian(rnd, 2.0)[:-1]
    dd = -spectral_derivative(spectral_derivative(rnd))[:-1]
    identity_ok &= bool(np.allclose(lap, dd, rtol=0, atol=1e-13))
    nyq = np.zeros(64 // 2 + 1, complex)
    nyq[-1] = 1.0
    identity_ok &= fractional_laplacian(nyq, 2.0)[-1] == 1024.0
    identity_ok &= spectral_derivative(nyq)[-1] == 0.0

    ok = derivative_ok and identity_ok
    announce(9, "derivative exact on trig polynomials, multiplier identities hold",
             ok, f"worst derivative error = {worst:.2e}")


def test_criterion_10_determinism(tmp_path, announce):
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        write_run(parse_config([*CONSERVATION_ARGS, "--output", str(d)]))
    first = (dirs[0] / "diagnostics.csv").read_bytes()
    second = (dirs[1] / "diagnostics.csv").read_bytes()
    ok = first == second and len(first) > 0
    announce(10, "reruns produce byte-identical diagnostics",
             ok, f"{len(first)} bytes compared")
