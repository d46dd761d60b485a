"""Tendency assembly, RK4 stepping, and the step-size bound."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import collect
from fracburgers.cli import parse_config
from fracburgers.diagnostics import observe
from fracburgers.dynamics import (
    CFL_ADVECTION,
    CFL_DISSIPATION,
    DISSIPATIVE_MARGIN,
    DT_GUARD,
    RK4_BOX_LIMIT,
    RK4_REAL_LIMIT,
    InstabilityError,
    SimParams,
    _plan,
    _tendency,
    rk4_step,
    stable_dt,
)
from fracburgers.oracles import InitialCondition, characteristics_solution
from fracburgers.spectral import (
    band_limit,
    dealias,
    forward_dft,
    fractional_laplacian,
    inverse_dft,
    nodal_pair,
    nodes,
    spectral_derivative,
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
    def test_non_number_worded_as_range_rule(self, key, rule, bad_reals):
        for bad in bad_reals:
            with pytest.raises(ValueError, match=f"^{key}: {rule}, got {re.escape(repr(bad))}$"):
                SimParams(**{key: bad})

    def test_unknown_dealias_rule_rejected(self):
        with pytest.raises(ValueError, match="dealias"):
            SimParams(dealias_rule="half")

    @pytest.mark.parametrize("value", ["no", 0, 1, None, "True"])
    def test_linear_only_must_be_a_bool(self, value):
        """A truthy non-bool such as "no" would silently drop the quadratic term."""
        with pytest.raises(ValueError) as refused:
            SimParams(linear_only=value)
        assert str(refused.value) == f"linear_only: must be true or false, got {value!r}"

    def test_linear_only_reads_true_or_false_text(self):
        """The command line hands the text over, as it does every real."""
        assert SimParams(linear_only="false") == SimParams(linear_only=False)
        assert SimParams(linear_only="true") == SimParams(linear_only=True)

    def test_numpy_bool_stored_as_bool(self):
        for value in (np.True_, np.False_):
            p = SimParams(linear_only=value)
            assert type(p.linear_only) is bool and p.linear_only == bool(value)


class TestTendency:
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
        cut = rhs(u, SimParams(dealias_rule="two-thirds"))
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
        exact = characteristics_solution(f, xs, 1e-3)
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

    @staticmethod
    def step_transforms(monkeypatch, p, with_nodal=False):
        """The transform calls of one rk4_step from -sin x on 32 nodes."""
        s = forward_dft(-np.sin(nodes(32)))
        nodal = nodal_pair(s) if with_nodal else None
        count = count_transforms(monkeypatch)
        rk4_step(s, p, 1e-3, nodal=nodal)
        return len(count)

    @pytest.mark.parametrize("gamma, linear_only, calls", [
        (0.3, False, 12), (0.0, False, 12), (0.3, True, 0)])
    def test_transform_count(self, monkeypatch, gamma, linear_only, calls):
        """Three transforms per stage (u, u_x, u u_x), none when linear;
        none in or out."""
        p = SimParams(gamma=gamma, alpha=1.5, linear_only=linear_only)
        assert self.step_transforms(monkeypatch, p) == calls

    def test_transform_count_with_nodal_pair(self, monkeypatch):
        """Stage 1 reuses a handed-over u and u_x: 10 transforms."""
        p = SimParams(gamma=0.3, alpha=1.5)
        assert self.step_transforms(monkeypatch, p, with_nodal=True) == 10

    @pytest.mark.parametrize("gamma, linear_only, with_nodal, calls", [
        (0.3, False, False, 8), (0.0, False, False, 8), (0.3, True, False, 0),
        (0.3, False, True, 7)])
    def test_transform_count_two_thirds(self, monkeypatch, gamma, linear_only, with_nodal,
                                        calls):
        """Under the 2/3 rule a stage makes two transforms (u, u^2), and
        stage 1 only the forward one when it is handed u."""
        p = SimParams(gamma=gamma, alpha=1.5, dealias_rule="two-thirds",
                      linear_only=linear_only)
        assert self.step_transforms(monkeypatch, p, with_nodal) == calls


class TestConservativeProduct:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_equals_product_form_on_band_limited_states(self, n):
        """Under the 2/3 rule the tendency transforms u^2 and applies
        0.5 i k: the conservative form 0.5 (u^2)_x. On a state with no rows
        above K = band_limit(N, "two-thirds") the filtered product is a
        Galerkin projection, so it equals the filtered collocation product
        u u_x, the form "off" keeps, to rounding. Measured worst relative difference over these
        states: about 1e-15 at each N."""
        rng = np.random.default_rng(8000 + n)
        k = band_limit(n, "two-thirds")
        p = SimParams(dealias_rule="two-thirds")
        for _ in range(8):
            c = forward_dft(rng.standard_normal(n) * rng.uniform(0.1, 10.0))
            c[k + 1:] = 0.0
            u, ux = nodal_pair(c)
            want = -dealias(forward_dft(u * ux), "two-thirds")
            want[0] = want[-1] = 0.0
            err = np.max(np.abs(_tendency(c, p) - want)) / np.max(np.abs(want))
            assert err <= 1e-14, err

    @pytest.mark.parametrize("n", [48, 64, 96, 256, 258, 300])
    def test_is_the_projection_of_the_exact_product(self, n):
        """Against -P_K(u u_x) formed exactly, from a product on 4N nodes
        (no wavenumber of u u_x folds there), on states with rows 1 .. K
        only. 3 divides 48, 96, 258 and 300: with K = N/3 the row K took an
        alias, and the worst relative error was 0.09 to 0.22. With
        K = (N - 1) // 3 it measured 9.3e-16 at worst over all six sizes."""
        rng = np.random.default_rng(9000 + n)
        k = band_limit(n, "two-thirds")
        assert 3 * k < n <= 3 * k + 3
        fine = 4 * n
        p = SimParams(dealias_rule="two-thirds")
        for _ in range(8):
            c = forward_dft(rng.standard_normal(n) * rng.uniform(0.1, 10.0))
            c[k + 1:] = 0.0
            padded = np.zeros(fine // 2 + 1, dtype=complex)
            padded[:k + 1] = c[:k + 1]
            u, ux = nodal_pair(padded)
            want = np.zeros_like(c)
            want[1:k + 1] = -forward_dft(u * ux)[1:k + 1]
            err = np.max(np.abs(_tendency(c, p) - want)) / np.max(np.abs(want))
            assert err <= 1e-14, err


class TestBatchedStep:
    @pytest.mark.parametrize("rule", ["off", "two-thirds"], ids=["off", "two_thirds"])
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
            res, sink = collect(dataclasses.replace(cfg, ic=lambda x, e=noise: -np.sin(x) + e))
            worst_rise = float(np.max(np.diff([r.l2 for r in sink.records])))
            assert res.status == "completed" and worst_rise <= 1e-10, (seed, worst_rise)


class TestSpectralRunLoop:
    @staticmethod
    def run_transforms(monkeypatch, *flags):
        """Steps and transform calls of a 20-step run with 4 snapshots."""
        cfg = parse_config(["--n", "32", "--gamma", "0.1", "--dt", "0.01", "--t-final", "0.2",
                            "--snapshot-every", "0.05", *flags, "--output", "unused"])
        count = count_transforms(monkeypatch)
        res, sink = collect(cfg)
        steps, snapshots = len(sink.records) - 1, len(sink.snapshots) - 1
        assert res.status == "completed" and (steps, snapshots) == (20, 4)
        return steps, len(count)

    def test_transforms_per_step_and_snapshot(self, monkeypatch):
        """A step costs 12 transforms: the new state's u and u_x (2), which
        its record and snapshot read, and rk4_step's 10, whose first stage
        reuses them. Set-up costs 3: the profile's forward transform and the
        first pair, whose record's min_slope also gives the predicted
        blow-up time."""
        steps, calls = self.run_transforms(monkeypatch)
        assert calls == 3 + 12 * steps

    def test_transforms_per_step_dealiased(self, monkeypatch):
        """Under the 2/3 rule a step costs 9: the pair (2) and rk4_step's 7,
        whose first stage reuses u."""
        steps, calls = self.run_transforms(monkeypatch, "--dealias", "two-thirds")
        assert calls == 3 + 9 * steps

    @pytest.mark.parametrize("args", [
        ["--gamma", "0.1", "--alpha", "1", "--n", "256", "--dt", "auto", "--t-final", "2"],
        # A fixed step: more than 100 records whatever the CFL constants are.
        ["--ic", "random:20:3", "--dealias", "two-thirds", "--dt", "0.001"],
    ])
    def test_mass_is_bit_constant(self, args):
        """The tendency never touches c_0, so the state's mass never moves."""
        _, sink = collect(parse_config([*args, "--output", "unused"]))
        assert len(sink.records) > 100
        assert all(r.mass == sink.records[0].mass for r in sink.records)


class TestStableDt:
    def test_advective_bound_example(self):
        """max|u| = 1 on N = 64 with gamma = 0 gives dt of CFL_ADVECTION / 32."""
        dt = stable_dt(1.0, 64, SimParams(gamma=0.0))
        assert abs(dt - CFL_ADVECTION / 32.0) <= 1e-12

    def test_dissipative_bound_example(self):
        """gamma = 1, alpha = 2 on N = 64: gamma K^alpha is 32**2 = 1024."""
        dt = stable_dt(1e-3, 64, SimParams(gamma=1.0, alpha=2.0))
        assert abs(dt - CFL_DISSIPATION / 1024.0) <= 1e-12

    def test_degenerate_input_gives_huge_bound(self):
        dt = stable_dt(0.0, 64, SimParams(gamma=0.0))
        assert dt > 1e10

    @pytest.mark.parametrize("rule", ["off", "two-thirds"])
    def test_linear_only_has_no_advective_bound(self, rule):
        """Under linear_only the bound is the one at max|u| = 0, whatever
        max|u| is, and a max|u| that is no valid input is still refused."""
        for gamma in (0.0, 0.1):
            p = SimParams(gamma=gamma, dealias_rule=rule, linear_only=True)
            for u_max in (0.5, 1.0, 1e6):
                assert stable_dt(u_max, 256, p) == stable_dt(0.0, 256, p)
            assert stable_dt(1.0, 256, p) > stable_dt(1.0, 256, dataclasses.replace(
                p, linear_only=False))
            with pytest.raises(ValueError):
                stable_dt(-1.0, 256, p)
            with pytest.raises(InstabilityError):
                stable_dt(np.inf, 256, p)

    def test_stronger_dissipation_shrinks_the_bound(self):
        mild = stable_dt(0.1, 64, SimParams(gamma=1.0, alpha=1.0))
        harsh = stable_dt(0.1, 64, SimParams(gamma=1.0, alpha=2.0))
        assert harsh < mild

    def test_non_finite_field_rejected(self):
        """A non-finite max|u| means the state diverged; a u_max that is no
        float at all is refused the same way."""
        for bad in (np.nan, np.inf, -np.inf, None, 10**400):
            with pytest.raises(InstabilityError, match="non-finite"):
                stable_dt(bad, 8, SimParams())

    def test_negative_max_u_rejected(self):
        """max|u| is never negative; a negative one is a caller error that
        would give a negative step."""
        with pytest.raises(ValueError, match=r"^u_max: must be finite and >= 0, got -5\.0$"):
            stable_dt(-5.0, 256, SimParams())

    @pytest.mark.parametrize("n", [-4, 0, 2, 5, 4.5, float("inf"),
                                   nodes(8)],  # a grid's nodes, not its count
                             ids=["-4", "0", "2", "5", "4.5", "inf", "nodes"])
    def test_bad_node_count_rejected(self, n):
        """stable_dt checks n through spectral.validate_n, with its wording."""
        with pytest.raises(ValueError) as refused:
            stable_dt(1.0, n, SimParams())
        assert str(refused.value) == f"n: must be an even integer >= 4, got {n!r}"

    def test_node_count_above_the_ceiling_rejected(self):
        """spectral.validate_n's ceiling, not an OverflowError at u_max * K."""
        with pytest.raises(ValueError, match=r"^n: must be at most 2\*\*23 "):
            stable_dt(1.0, 10**400, SimParams())

    def test_node_count_given_as_text(self, bad_wholes):
        assert stable_dt(1.0, "256", SimParams()) == stable_dt(1.0, 256, SimParams())
        for bad in bad_wholes:
            with pytest.raises(ValueError) as refused:
                stable_dt(1.0, bad, SimParams())
            assert str(refused.value) == f"n: must be an even integer >= 4, got {bad!r}"


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


def box_edges(real_extent, half_height, samples=2001):
    """Points on the four edges of [-real_extent, 0] x [-half_height, half_height] i,
    corners included."""
    y = np.linspace(-half_height, half_height, samples)
    x = np.linspace(-real_extent, 0.0, samples)
    return np.concatenate([-real_extent + 1j * y, 1j * y, x + 1j * half_height,
                           x - 1j * half_height])


def box_is_stable(real_extent, half_height):
    # |R(z)| = 1 exactly at z = 0, a corner of every box, and rounds to 1 + 2.2e-16 near it.
    return bool(np.max(np.abs(stability_polynomial(-box_edges(real_extent, half_height))))
                <= 1.0 + 1e-15)


class TestStepInStabilityBox:
    """With frozen coefficients mode k has the tendency -gamma |k|^alpha - i u k,
    so at stable_dt every mode's lam dt lies in the box
    [-CFL_DISSIPATION, 0] x [-CFL_ADVECTION, CFL_ADVECTION] i. RK4 needs the
    whole box in |R| <= 1, not each axis alone. |R| is largest on the box's
    boundary (maximum modulus), so its edges are sampled."""

    def test_box_at_the_constants_is_stable(self):
        assert box_is_stable(CFL_DISSIPATION, CFL_ADVECTION)

    def test_constant_is_the_box_limit_less_the_margin(self):
        """Bisect for the largest half-height whose box is stable; the
        advective constant is that limit less DISSIPATIVE_MARGIN, rounded down."""
        lo, hi = 0.0, 2.0 * np.sqrt(2.0)  # RK4's reach on the imaginary axis
        assert box_is_stable(CFL_DISSIPATION, lo) and not box_is_stable(CFL_DISSIPATION, hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if box_is_stable(CFL_DISSIPATION, mid) else (lo, mid)
        assert abs(lo - RK4_BOX_LIMIT) <= 1e-12
        assert CFL_ADVECTION == np.floor((1.0 - DISSIPATIVE_MARGIN) * lo)
        # Each axis alone would admit 2 i, but the corner -2 + 2i leaves the region.
        assert abs(stability_polynomial(-(-CFL_DISSIPATION + 2j))) > 1.2


class TestKeptBandStep:
    """Under the 2/3 rule a run's state lives on the kept band
    K = band_limit(N, "two-thirds"): only it advects and only it decays, so
    both of stable_dt's terms read K, not N/2."""

    @pytest.mark.parametrize("n", [4, 6, 48, 64, 96, 256, 300, 16384])
    def test_advective_term_reads_the_kept_band(self, n):
        """Under "off" the bound is min(C_adv/(max|u| n/2 + eps),
        C_diff/(gamma (n/2)^alpha + eps)) bit for bit; under "two-thirds"
        both terms have K in place of n/2. gamma = 0 and max|u| = 0 let each
        term bind alone."""
        k = band_limit(n, "two-thirds")
        for u_max, gamma, alpha in [(1.0, 0.0, 1.0), (0.0, 0.2, 1.5), (0.3, 0.05, 1.0),
                                    (2.5, 0.5, 2.0), (1e-3, 1.0, 0.5)]:
            off = SimParams(gamma=gamma, alpha=alpha)
            cut = dataclasses.replace(off, dealias_rule="two-thirds")
            assert stable_dt(u_max, n, off) == min(
                CFL_ADVECTION / (u_max * (n / 2.0) + DT_GUARD),
                CFL_DISSIPATION / (gamma * (n / 2.0) ** alpha + DT_GUARD))
            assert stable_dt(u_max, n, cut) == min(
                CFL_ADVECTION / (u_max * k + DT_GUARD),
                CFL_DISSIPATION / (gamma * float(k) ** alpha + DT_GUARD))

    @pytest.mark.parametrize("n", [48, 64, 96])
    def test_jacobian_radius_is_at_most_k_max_u(self, n):
        """The dealiased quadratic term's Jacobian at u, v -> -i k P_K(u v),
        formed densely from _plan's product multiplier (which holds 0.5 i k,
        so it takes rfft(2 u v)): its spectral radius is at most K max|u|, and
        it puts nothing in the rows above K."""
        k = band_limit(n, "two-thirds")
        product = _plan(n // 2 + 1, 1.0, "two-thirds")[1]
        rng = np.random.default_rng(7000 + n)
        for _ in range(4):
            c = forward_dft(rng.standard_normal(n) * rng.uniform(0.1, 10.0))
            c[k + 1:] = 0.0
            u = inverse_dft(c)
            columns = np.fft.rfft(2.0 * u * np.eye(n), norm="forward") * product
            assert not columns[:, k + 1:].any()
            radius = np.max(np.abs(np.linalg.eigvals(np.fft.irfft(columns, norm="forward"))))
            assert 0.0 < radius <= k * np.max(np.abs(u)) * (1.0 + 1e-12)

    @pytest.mark.parametrize("ic", ["random:100:0", "gaussian:0.05"])
    def test_run_starts_from_the_projected_spectrum(self, ic):
        """A dealiased run's t = 0 record and snapshot are those of the
        sampled profile's spectrum with the rows above K zeroed, bit for bit.
        Both profiles hold rows above K = 85 on 256 nodes."""
        cfg = parse_config(["--n", "256", "--ic", ic, "--dealias", "two-thirds", "--dt", "0.001",
                            "--t-final", "0.002", "--snapshot-every", "0.001",
                            "--output", "unused"])
        sampled = forward_dft(cfg.ic(nodes(cfg.n)))
        assert sampled[band_limit(cfg.n, "two-thirds") + 1:].any()
        c = dealias(sampled, "two-thirds")
        _, sink = collect(cfg)
        assert sink.records[0] == observe(c, 0.0, rule="two-thirds")
        assert sink.snapshots[0][0] == 0.0
        assert np.array_equal(sink.snapshots[0][1], inverse_dft(c))

    @pytest.mark.parametrize("ic", ["random:100:0", "gaussian:0.05"])
    @pytest.mark.parametrize("gamma, linear_only", [(0.0, False), (0.1, False), (0.1, True)],
                             ids=["inviscid", "damped", "linear-only"])
    def test_steps_keep_the_rows_above_k_zero(self, ic, gamma, linear_only):
        """From a projected spectrum, neither the product nor the laplacian
        puts anything above K, so the rows stay exactly zero step after step."""
        n = 256
        k = band_limit(n, "two-thirds")
        p = SimParams(gamma=gamma, alpha=1.5, dealias_rule="two-thirds", linear_only=linear_only)
        c = dealias(forward_dft(InitialCondition.parse(ic)(nodes(n))), "two-thirds")
        for _ in range(40):
            c = rk4_step(c, p, stable_dt(float(np.max(np.abs(inverse_dft(c)))), n, p))
            assert not c[k + 1:].any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("gamma, alpha", [(0.1, 1.0), (0.2, 1.5)])
    def test_dealiased_auto_runs_stay_damped(self, gamma, alpha, seed):
        """Seeded dealiased runs at the kept-band step, which the advective
        term sets here: L2 never rises and the mass is constant to the bit."""
        res, sink = collect(parse_config([
            "--n", "256", "--gamma", str(gamma), "--alpha", str(alpha), "--dealias", "two-thirds",
            "--ic", f"random:8:{seed}", "--t-final", "0.5", "--output", "unused"]))
        assert res.status == "completed"
        assert np.max(np.diff([r.l2 for r in sink.records])) <= 0.0
        assert all(r.mass == sink.records[0].mass for r in sink.records)


class TestH1EnergyBound:
    """The energy method gives ||u_x(t)||_2 <= ||u_x(0)||_2 exp(B(t)/2) while
    the solution is smooth, with B the BKM integral of ||u_x||_inf that the
    record carries. Under the 2/3 rule the filtered product is the Galerkin
    projection of u u_x onto the kept band, where the state lives, so the
    semi-discrete scheme obeys the bound exactly. The worst ratio over
    random:8:{0..3}, alpha in {0.5, 1, 1.5, 2}, gamma in {0.05, 0.2} (N = 256,
    t <= 1) was 0.967, at the first case below."""

    @staticmethod
    def slope_norm(u):
        return float(np.sqrt(np.mean(inverse_dft(spectral_derivative(forward_dft(u))) ** 2)))

    @pytest.mark.parametrize("seed, alpha, gamma", [
        (1, 0.5, 0.05), (1, 1.0, 0.05), (1, 1.5, 0.05), (1, 2.0, 0.05),
        (0, 0.5, 0.2), (0, 1.0, 0.05), (2, 1.5, 0.2), (3, 2.0, 0.05),
    ])
    def test_slope_norm_within_its_bkm_bound(self, seed, alpha, gamma):
        res, sink = collect(parse_config([
            "--n", "256", "--gamma", str(gamma), "--alpha", str(alpha), "--dealias", "two-thirds",
            "--ic", f"random:8:{seed}", "--t-final", "1", "--snapshot-every", "0.02",
            "--detect-blowup", "false", "--output", "unused"]))
        assert res.status == "completed" and len(sink.snapshots) == 51
        bkm = {r.t: r.bkm_integral for r in sink.records}
        initial = self.slope_norm(sink.snapshots[0][1])
        ratios = [self.slope_norm(u) / (initial * np.exp(bkm[t] / 2.0)) for t, u in sink.snapshots]
        assert max(ratios) <= 1.0, ratios


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
