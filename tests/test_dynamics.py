"""Tendency assembly, RK4 stepping, and the step-size bound."""

import dataclasses

import numpy as np
import pytest

from fracburgers.cli import parse_config, run_simulation
from fracburgers.diagnostics import observe
from fracburgers.dynamics import (
    CFL_DISSIPATION,
    DISSIPATIVE_MARGIN,
    DT_GUARD,
    RK4_REAL_LIMIT,
    InstabilityError,
    SimParams,
    _tendency,
    rk4_step,
    stable_dt,
)
from fracburgers.oracles import InitialCondition, characteristics_solution
from fracburgers.spectral import (
    dealias,
    forward_dft,
    fractional_laplacian,
    inverse_dft,
    nodal_pair,
    nodes,
    spectral_derivative,
    validate_spectrum,
)


def count_transforms(monkeypatch):
    """Route np.fft.rfft and irfft through a counter; returns its call list."""
    count = []
    for name in ("rfft", "irfft"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, **kwargs):
            count.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return count


def rhs(u, p):
    """The tendency F(u) at the nodes: the coefficient kernel that rk4_step
    advances, between a forward and an inverse transform."""
    c = forward_dft(u)
    return inverse_dft(_tendency(c, p))


def stability_polynomial(z):
    """Linear-mode amplification of one RK4 step with tendency -z/dt."""
    return 1.0 - z + z**2 / 2.0 - z**3 / 6.0 + z**4 / 24.0


class TestSimParams:
    def test_defaults(self):
        p = SimParams()
        assert p.gamma == 0.0 and p.alpha == 1.0 and p.dealias_rule == "off"
        assert p.linear_only is False

    def test_fields_are_the_equation(self):
        """dt and t_final belong to the run (RunConfig), not to the equation."""
        names = [f.name for f in dataclasses.fields(SimParams)]
        assert names == ["gamma", "alpha", "dealias_rule", "linear_only"]
        for key in ("dt", "t_final"):
            with pytest.raises(TypeError):
                SimParams(**{key: 0.1})

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            SimParams(gamma=-0.1)

    def test_alpha_outside_range_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            SimParams(alpha=2.5)

    @pytest.mark.parametrize("key, rule", [
        ("gamma", "must be finite and >= 0"),
        ("alpha", r"must lie in \(0, 2\]"),
    ])
    def test_non_number_worded_as_range_rule(self, key, rule):
        with pytest.raises(ValueError, match=f"^{key}: {rule}, got 'fast'$"):
            SimParams(**{key: "fast"})

    def test_unknown_dealias_rule_rejected(self):
        with pytest.raises(ValueError, match="dealias"):
            SimParams(dealias_rule="half")

    @pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
    def test_linear_only_must_be_a_bool(self, value):
        """A truthy non-bool such as "no" would silently drop the quadratic term."""
        with pytest.raises(ValueError, match=r"^linear_only: must be a bool, got "):
            SimParams(linear_only=value)

    def test_numpy_bool_stored_as_bool(self):
        for value in (np.True_, np.False_):
            p = SimParams(linear_only=value)
            assert type(p.linear_only) is bool and p.linear_only == bool(value)


class TestRhs:
    def test_constant_field_is_steady(self):
        out = rhs(np.full(16, 3.0), SimParams(gamma=0.7, alpha=1.3))
        assert np.max(np.abs(out)) <= 1e-13

    def test_neg_sine_inviscid_example(self):
        """-sin x steepens with tendency -(1/2) sin 2x when gamma = 0."""
        xs = nodes(64)
        out = rhs(-np.sin(xs), SimParams(gamma=0.0))
        assert np.allclose(out, -0.5 * np.sin(2.0 * xs), rtol=0, atol=1e-13)

    def test_linear_only_single_mode(self):
        x = nodes(64)
        p = SimParams(gamma=1.0, alpha=1.0, linear_only=True)
        out = rhs(np.cos(x), p)
        assert np.allclose(out, -np.cos(x), rtol=0, atol=1e-13)

    def test_viscous_combination(self):
        x = nodes(64)
        p = SimParams(gamma=0.5, alpha=2.0)
        out = rhs(-np.sin(x), p)
        expect = -0.5 * np.sin(2.0 * x) + 0.5 * np.sin(x)
        assert np.allclose(out, expect, rtol=0, atol=1e-13)

    def test_tendency_mean_is_round_off(self):
        """The zero mode of the product transform is removed, so the tendency
        integrates to zero regardless of aliasing."""
        rng = np.random.default_rng(13)
        u = rng.standard_normal(64)
        out = rhs(u, SimParams(gamma=0.3, alpha=1.5))
        mean_coeff = forward_dft(out)[0]
        assert abs(mean_coeff) <= 1e-15 * max(1.0, np.max(np.abs(out)))

    def test_two_thirds_rule_silences_product_tail(self):
        # u = cos 5x on N=24: the product is a pure |k| = 10 pair, which the
        # 2/3 rule removes entirely while "off" keeps it.
        x = nodes(24)
        u = np.cos(5.0 * x)
        cut = rhs(u, SimParams(dealias_rule="two_thirds"))
        kept = rhs(u, SimParams(dealias_rule="off"))
        assert np.max(np.abs(cut)) <= 1e-14
        assert np.allclose(kept, 2.5 * np.sin(10.0 * x), rtol=0, atol=1e-13)


class TestRk4Step:
    def test_zero_field_is_exact_fixed_point(self):
        zero = np.zeros(16 // 2 + 1, complex)
        out = rk4_step(zero, SimParams(gamma=1.0), 0.1)
        assert np.array_equal(out, zero)

    def test_linear_mode_amplified_by_stability_polynomial(self):
        """One linear step multiplies mode k by R(gamma |k|^alpha dt) exactly."""
        x = nodes(16)
        for alpha, k, dt in ((1.0, 1, 0.01), (2.0, 2, 0.005)):
            p = SimParams(gamma=1.0, alpha=alpha, linear_only=True)
            s = forward_dft(np.cos(k * x))
            out = inverse_dft(rk4_step(s, p, dt))
            z = 1.0 * float(k) ** alpha * dt
            expect = stability_polynomial(z) * np.cos(k * x)
            assert np.allclose(out, expect, rtol=1e-14, atol=1e-15)

    def test_single_step_matches_characteristics(self):
        """gamma = 0, dt = 1e-3: one step agrees with the implicit solution."""
        xs = nodes(64)
        f = InitialCondition.neg_sine()
        s = forward_dft(f(xs))
        out = inverse_dft(rk4_step(s, SimParams(gamma=0.0), 1e-3))
        exact = np.array([characteristics_solution(f, x, 1e-3) for x in xs])
        assert np.max(np.abs(out - exact)) <= 1e-10

    def test_overflowing_stage_raises(self):
        # Finite but huge data overflows in the second stage: k1 is finite,
        # the half-step state squares to inf inside stage 2.
        x = nodes(64)
        s = forward_dft(1e150 * -np.sin(x))
        with pytest.raises(InstabilityError, match="non-finite"):
            rk4_step(s, SimParams(gamma=0.0), 1000.0)

    def test_non_finite_input_raises(self):
        bad = np.full(16 // 2 + 1, np.inf, complex)
        with pytest.raises(InstabilityError, match="non-finite"):
            rk4_step(bad, SimParams(), 0.01)

    def test_overflowing_sum_raises(self):
        """Every stage is finite (-1.2e308 in row 2), but 2*K2 overflows in
        the final sum: the result is checked, not only the stages."""
        c = np.zeros(9, complex)
        c[2] = 3e307
        p = SimParams(gamma=1.0, alpha=2.0, linear_only=True)
        k1 = _tendency(c, p)
        assert np.isfinite(k1).all() and k1[2] == -1.2e308
        with pytest.raises(InstabilityError, match="non-finite"):
            rk4_step(c, p, 1e-30)

    def test_bad_dt_rejected(self):
        s = np.zeros(8 // 2 + 1, complex)
        for dt in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="dt"):
                rk4_step(s, SimParams(), dt)

    def test_repeat_step_is_bitwise_identical(self):
        rng = np.random.default_rng(17)
        s = forward_dft(rng.standard_normal(128))
        p = SimParams(gamma=0.2, alpha=1.5)
        a = rk4_step(s, p, 1e-3)
        b = rk4_step(s, p, 1e-3)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("gamma, linear_only, calls", [
        (0.3, False, 12), (0.0, False, 12), (0.3, True, 0)])
    def test_transform_count(self, monkeypatch, gamma, linear_only, calls):
        """Three transforms per stage, none when linear; none in or out."""
        x = nodes(32)
        s = forward_dft(-np.sin(x))
        count = count_transforms(monkeypatch)
        p = SimParams(gamma=gamma, alpha=1.5, linear_only=linear_only)
        rk4_step(s, p, 1e-3)
        assert len(count) == calls

    def test_transform_count_with_nodal_pair(self, monkeypatch):
        """Stage 1 reuses a handed-over u and u_x: 10 transforms."""
        x = nodes(32)
        s = forward_dft(-np.sin(x))
        nodal = nodal_pair(s)
        count = count_transforms(monkeypatch)
        rk4_step(s, SimParams(gamma=0.3, alpha=1.5), 1e-3, nodal=nodal)
        assert len(count) == 10


class TestGridArgumentGone:
    def test_old_call_shapes_raise_type_error(self):
        """The arrays carry N; a call that still passes a grid (here its nodes,
        the grid's only data) fails loudly. stable_dt takes a node count, so
        validate_n refuses the grid there."""
        g = nodes(8)
        u = np.cos(g)
        c = forward_dft(u)
        p = SimParams()
        old_calls = (
            lambda: forward_dft(u, g),
            lambda: inverse_dft(c, g),
            lambda: validate_spectrum(c, g),
            lambda: nodal_pair(c, g),
            lambda: rk4_step(c, g, p, 1e-3),
            lambda: rk4_step(c, g, p, 1e-3, nodal=nodal_pair(c)),
            lambda: rk4_step(c, p, 1e-3, nodal_pair(c)),  # nodal is keyword-only
            lambda: observe(c, g, 0.0),
        )
        for call in old_calls:
            with pytest.raises(TypeError):
                call()
        with pytest.raises(ValueError, match=r"^n: must be an integer, got array\("):
            stable_dt(1.0, g, p)


class TestBatchedStep:
    @pytest.mark.parametrize("rule", ["off", "two_thirds"])
    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_stack_equals_single_rows(self, n, rule):
        """A (8, N/2 + 1) stack is transformed, operated on and stepped row by
        row, to the bit."""
        u = np.random.default_rng(7000 + n).standard_normal((8, n))
        c = forward_dft(u)
        assert c.shape == (8, n // 2 + 1)
        assert np.array_equal(c, [forward_dft(row) for row in u])
        assert np.array_equal(inverse_dft(c), [inverse_dft(row) for row in c])
        assert np.array_equal(nodal_pair(c), np.stack(
            [nodal_pair(row) for row in c], axis=1))
        for op in (spectral_derivative, lambda x: fractional_laplacian(x, 1.5),
                   lambda x: dealias(x, rule)):
            assert np.array_equal(op(c), [op(row) for row in c])
        p = SimParams(gamma=0.3, alpha=1.5, dealias_rule=rule)
        stepped = rk4_step(c, p, 1e-3)
        assert stepped.shape == c.shape
        assert np.array_equal(stepped, [rk4_step(row, p, 1e-3) for row in c])


class TestGridScaleStability:
    def test_damped_l2_survives_rounding_noise(self):
        """The criterion 1 run (gamma = 0.1, alpha = 1, N = 256, no dealiasing)
        keeps L2 nonincreasing when its profile carries 1e-13 noise: the
        product's unpaired Nyquist mode, which only gamma could damp, is not
        fed back into the state."""
        cfg = parse_config(["--gamma", "0.1", "--alpha", "1", "--n", "256",
                            "--dt", "auto", "--t-final", "2", "--output", "unused"])
        for seed in range(4):
            noise = 1e-13 * np.random.Generator(np.random.PCG64(seed)).standard_normal(256)
            res = run_simulation(dataclasses.replace(cfg, ic=lambda x, e=noise: -np.sin(x) + e))
            worst_rise = float(np.max(np.diff([r.l2 for r in res.records])))
            assert res.status == "completed" and worst_rise <= 1e-10, (seed, worst_rise)


class TestSpectralRunLoop:
    def test_transforms_per_step_and_snapshot(self, monkeypatch):
        """A step costs 12 transforms: the new state's u and u_x (2), which
        its record and snapshot read, and rk4_step's 10, whose first stage
        reuses them. Set-up costs 3: the profile's forward transform and the
        first pair, whose record's min_slope also gives the predicted
        blow-up time."""
        cfg = parse_config(["--n", "32", "--gamma", "0.1", "--dt", "0.01", "--t-final", "0.2",
                            "--snapshot-every", "0.05", "--output", "unused"])
        count = count_transforms(monkeypatch)
        res = run_simulation(cfg)
        steps, snapshots = len(res.records) - 1, len(res.snapshots) - 1
        assert res.status == "completed" and (steps, snapshots) == (20, 4)
        assert len(count) == 3 + 12 * steps

    @pytest.mark.parametrize("args", [
        ["--gamma", "0.1", "--alpha", "1", "--n", "256", "--dt", "auto", "--t-final", "2"],
        ["--ic", "random:20:3", "--dealias", "two-thirds"],
    ])
    def test_mass_is_bit_constant(self, args):
        """The tendency never touches c_0, so the state's mass never moves."""
        res = run_simulation(parse_config([*args, "--output", "unused"]))
        assert len(res.records) > 100
        assert all(r.mass == res.records[0].mass for r in res.records)


class TestStableDt:
    def test_advective_bound_example(self):
        """max|u| = 1 on N = 64 with gamma = 0 gives dt of 1/64."""
        dt = stable_dt(1.0, 64, SimParams(gamma=0.0))
        assert abs(dt - 0.015625) <= 1e-12

    def test_dissipative_bound_example(self):
        """gamma = 1, alpha = 2 on N = 64: gamma k_max^alpha is 32**2 = 1024."""
        dt = stable_dt(1e-3, 64, SimParams(gamma=1.0, alpha=2.0))
        assert abs(dt - CFL_DISSIPATION / 1024.0) <= 1e-12

    def test_degenerate_input_gives_huge_bound(self):
        dt = stable_dt(0.0, 64, SimParams(gamma=0.0))
        assert dt > 1e10

    def test_stronger_dissipation_shrinks_the_bound(self):
        mild = stable_dt(0.1, 64, SimParams(gamma=1.0, alpha=1.0))
        harsh = stable_dt(0.1, 64, SimParams(gamma=1.0, alpha=2.0))
        assert harsh < mild

    def test_non_finite_field_rejected(self):
        """A non-finite max|u| means the state diverged."""
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InstabilityError, match="non-finite"):
                stable_dt(bad, 8, SimParams())

    def test_negative_max_u_rejected(self):
        """max|u| is never negative; a negative one is a caller error that
        would give a negative step."""
        with pytest.raises(ValueError, match=r"^u_max: must be >= 0, got -5\.0$"):
            stable_dt(-5.0, 256, SimParams())

    @pytest.mark.parametrize("n, message", [
        (-4, "must be even and >= 4, got -4"),
        (0, "must be even and >= 4, got 0"),
        (2, "must be even and >= 4, got 2"),
        (5, "must be even and >= 4, got 5"),
        (4.5, "must be an integer, got 4.5"),
        ("256", "must be an integer, got '256'"),
        (float("inf"), "must be an integer, got inf"),
    ], ids=["-4", "0", "2", "5", "4.5", "256", "inf"])
    def test_bad_node_count_rejected(self, n, message):
        """stable_dt checks n through spectral.validate_n, with its wording."""
        with pytest.raises(ValueError) as refused:
            stable_dt(1.0, n, SimParams())
        assert str(refused.value) == f"n: {message}"


class TestDissipativeStepInStabilityInterval:
    """The dissipative step sits inside RK4's real stability interval with
    the stated margin, where the amplification factor is positive: every
    decaying mode is damped, and none changes sign."""

    def test_real_limit_is_the_root_of_the_boundary_cubic(self):
        roots = np.roots([1.0, -4.0, 12.0, -24.0])  # R(-z) = 1, z != 0
        real = roots[np.abs(roots.imag) < 1e-12].real
        assert real.shape == (1,) and abs(real[0] - RK4_REAL_LIMIT) <= 1e-14
        assert abs(stability_polynomial(RK4_REAL_LIMIT) - 1.0) <= 1e-14
        assert stability_polynomial(RK4_REAL_LIMIT * (1 + 1e-6)) > 1.0

    def test_constant_keeps_the_margin_and_a_positive_factor(self):
        assert 0.0 < stability_polynomial(CFL_DISSIPATION) < 1.0
        assert 1.0 - CFL_DISSIPATION / RK4_REAL_LIMIT >= DISSIPATIVE_MARGIN
        # Every mode slower than the fastest one gets a factor in (0, 1) too.
        z = np.linspace(1e-6, CFL_DISSIPATION, 10001)
        assert np.all((stability_polynomial(z) > 0.0) & (stability_polynomial(z) < 1.0))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_highest_mode_decays_monotonically_at_stable_dt(self, alpha):
        """A linear run holding only the Nyquist mode, stepped at stable_dt
        with the dissipative bound binding, shrinks by R(-CFL_DISSIPATION)
        every step and keeps its sign."""
        n = 32
        p = SimParams(gamma=100.0, alpha=alpha, linear_only=True)
        c = forward_dft(np.cos(n / 2 * nodes(n)))
        factor = stability_polynomial(CFL_DISSIPATION)
        for _ in range(30):
            u_max = float(np.max(np.abs(inverse_dft(c))))
            dt = stable_dt(u_max, n, p)
            assert dt == CFL_DISSIPATION / (p.gamma * (n / 2) ** alpha + DT_GUARD)
            new = rk4_step(c, p, dt)
            assert 0.0 < new[-1].real < c[-1].real
            assert new[-1].real / c[-1].real == pytest.approx(factor, rel=1e-12)
            c = new


class TestConvergenceOrder:
    def test_fourth_order_on_dissipative_mode(self):
        """Halving dt divides the terminal-amplitude error by about 16."""
        x = nodes(8)
        target = np.exp(-2.0)  # gamma = 1, k = 2, alpha = 1, t = 1
        errors = []
        for dt in (0.05, 0.025, 0.0125, 0.00625):
            p = SimParams(gamma=1.0, alpha=1.0, linear_only=True)
            s = forward_dft(np.cos(2.0 * x))
            for _ in range(round(1.0 / dt)):
                s = rk4_step(s, p, dt)
            amp = 2.0 * abs(s[2])
            errors.append(abs(amp - target))
        ratios = [errors[i] / errors[i + 1] for i in range(3)]
        assert all(12.0 <= r <= 20.0 for r in ratios), ratios
