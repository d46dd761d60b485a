"""Initial-condition catalogue and the analytic reference solutions."""

import tracemalloc

import numpy as np
import pytest

from fracburgers import oracles
from fracburgers.oracles import (
    ConvergenceError,
    InitialCondition,
    breaking_time,
    characteristics_solution,
    cole_hopf_solution,
    linear_decay_solution,
    shock_time,
    slope_closed_form,
)
from fracburgers.oracles import _band_coeffs
from fracburgers.spectral import forward_dft, inverse_dft, nodes

CATALOGUE = (
    InitialCondition.neg_sine(),
    InitialCondition.scaled_neg_sine(0.5),
    InitialCondition.gaussian_bump(1.0),
    InitialCondition.random_band(6, 42),
)


class TestInitialCondition:
    def test_neg_sine_values(self):
        f = InitialCondition.neg_sine()
        x = np.linspace(-np.pi, np.pi, 17)
        assert np.allclose(f(x), -np.sin(x), rtol=0, atol=1e-15)

    def test_scaled_amplitude(self):
        f = InitialCondition.scaled_neg_sine(2.5)
        assert f(np.pi / 2) == pytest.approx(-2.5, rel=1e-15)

    def test_gaussian_peak_and_positivity(self):
        f = InitialCondition.gaussian_bump(0.5)
        assert f(0.0) == 1.0
        x = np.linspace(-np.pi, np.pi, 101)
        assert np.all(f(x) > 0.0)

    def test_random_band_reproducible(self):
        x = np.linspace(-np.pi, np.pi, 33)
        a = InitialCondition.random_band(8, 7)(x)
        b = InitialCondition.random_band(8, 7)(x)
        c = InitialCondition.random_band(8, 8)(x)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_random_band_coefficients_pinned(self):
        """The seeded draw is part of the profile's definition: these values
        must not change between releases or platforms."""
        a, b = _band_coeffs(8, 42)
        assert a.tolist() == [
            0.30471707975443135, 0.3752255979032286, -0.6503450628846121,
            0.03196010079182134, -0.003360231500857759, 0.14656632914380477,
            0.009432956794459435, 0.0584386677815057,
        ]
        assert b.tolist() == [
            -1.0399841062404955, 0.47028235819560693, -0.4340598356207727,
            -0.07906064808589555, -0.170608785514716, 0.12963198923815805,
            0.1610344581382904, -0.10741155786040478,
        ]

    def test_random_band_cache_is_bounded(self):
        """Each cached draw holds 2 * max_mode floats; many seeds keep no more
        than the cache's bound."""
        x = np.linspace(-np.pi, np.pi, 9)
        for seed in range(20):
            InitialCondition.random_band(64, seed)(x)
        info = _band_coeffs.cache_info()
        assert info.maxsize == 1 and info.currsize == info.maxsize

    def test_random_band_zero_modes_is_zero(self):
        f = InitialCondition.random_band(0, 1)
        assert np.array_equal(f(np.linspace(-3, 3, 9)), np.zeros(9))

    def test_random_band_memory_is_bounded(self):
        """A wide band is summed over blocks of x: one (4096, 2047) matrix
        would be 64 MiB, the peak stays below 32 MiB, and the values agree
        with the one-matrix sum to 1e-13."""
        f = InitialCondition.random_band(2047, 1)
        x = nodes(4096)
        a, b = _band_coeffs(2047, 1)
        k = np.arange(1, 2048)
        arg = np.multiply.outer(x, k)
        want = np.cos(arg) @ a + np.sin(arg) @ b
        want_dx = -np.sin(arg) @ (k * a) + np.cos(arg) @ (k * b)
        del arg
        for evaluate, ref in ((f, want), (f.derivative, want_dx)):
            tracemalloc.start()
            try:
                got = evaluate(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
            assert np.allclose(got, ref, rtol=0, atol=1e-13)

    def test_all_profiles_periodic(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(-np.pi, np.pi, 25)
        for f in CATALOGUE:
            assert np.allclose(f(x + 2.0 * np.pi), f(x), rtol=0, atol=1e-12), f.label()

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        x = np.linspace(-np.pi, np.pi, 41)
        for f in CATALOGUE:
            fd = (f(x + h) - f(x - h)) / (2.0 * h)
            assert np.allclose(f.derivative(x), fd, rtol=0, atol=1e-6), f.label()

    def test_labels_round_trip_the_selector_grammar(self):
        assert InitialCondition.neg_sine().label() == "neg-sine"
        assert InitialCondition.scaled_neg_sine(2.0).label() == "scaled-neg-sine:2"
        assert InitialCondition.gaussian_bump(0.5).label() == "gaussian:0.5"
        assert InitialCondition.random_band(8, 42).label() == "random:8:42"

    @pytest.mark.parametrize("ic", [
        InitialCondition.neg_sine(),
        *(InitialCondition.scaled_neg_sine(a) for a in (1.23456789, 0.1 + 0.2, 1e150, 2.0)),
        *(InitialCondition.gaussian_bump(w) for w in (1.23456789, 0.1 + 0.2, 1e150, 2.0)),
        InitialCondition.random_band(0, 0),
        InitialCondition.random_band(8, 123456789012345678901234567890),
        InitialCondition.random_band(10**40, 1),
    ], ids=lambda ic: ic.label())
    def test_parse_reads_back_every_label(self, ic):
        """label() writes the --ic selector and parse() reads it back exactly:
        floats that 6 digits would round (0.1 + 0.2 needs 17), huge ones and
        whole ones, and integers of any length."""
        assert InitialCondition.parse(ic.label()) == ic
        assert ic.label().split(":")[0] == ic.kind

    @pytest.mark.parametrize("text, reason", [
        ("", "'' (expected neg-sine, scaled-neg-sine:a, gaussian:w, or random:kmax:seed)"),
        ("neg-sine:1", "'neg-sine:1' (expected neg-sine, scaled-neg-sine:a, gaussian:w, "
                       "or random:kmax:seed)"),
        ("unknown:1", "'unknown:1' (expected neg-sine, scaled-neg-sine:a, gaussian:w, "
                      "or random:kmax:seed)"),
        ("random:8", "'random:8' (expected neg-sine, scaled-neg-sine:a, gaussian:w, "
                     "or random:kmax:seed)"),
        ("random:8:1:2", "'random:8:1:2' (expected neg-sine, scaled-neg-sine:a, gaussian:w, "
                         "or random:kmax:seed)"),
        ("random:x:1", "'x' is not an integer"),
        ("random:1.5:2", "'1.5' is not an integer"),
        ("random:8:-1", "seed must be >= 0, got -1"),
        ("gaussian:wide", "width must be finite and >= 1.49167e-154, got 'wide'"),
        ("scaled-neg-sine:inf", "amplitude must be finite, got 'inf'"),
        ("scaled-neg-sine:", "amplitude must be finite, got ''"),
    ])
    def test_parse_refusals_are_worded_for_the_ic_key(self, text, reason):
        with pytest.raises(ValueError) as refused:
            InitialCondition.parse(text)
        assert str(refused.value) == f"ic: {reason}"

    def test_parse_reads_integers_with_int(self):
        """kmax and seed are read by int(): underscores and surrounding
        blanks are accepted, as the command line always accepted them."""
        assert InitialCondition.parse("random:1_0:1") == InitialCondition.random_band(10, 1)
        assert InitialCondition.parse("random: 8:1") == InitialCondition.random_band(8, 1)

    def test_seed_only_for_random(self):
        assert InitialCondition.random_band(8, 42).seed == 42
        assert InitialCondition.neg_sine().seed is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="width"):
            InitialCondition.gaussian_bump(0.0)
        with pytest.raises(ValueError, match="amplitude"):
            InitialCondition.scaled_neg_sine(float("nan"))
        with pytest.raises(ValueError, match="max_mode"):
            InitialCondition.random_band(-1, 5)

    def test_negative_seed_rejected(self):
        """numpy's seed sequence takes non-negative integers only."""
        assert InitialCondition.random_band(3, 0).seed == 0
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            InitialCondition.random_band(3, -1)

    @pytest.mark.parametrize("max_mode, seed", [(2.5, 1), (2, 1.9), (float("nan"), 1),
                                                (float("inf"), 1), (1, float("inf"))])
    def test_non_integer_random_parameters_rejected(self, max_mode, seed):
        """int() would truncate them: random_band(2.5, 1) would be random:2:1."""
        with pytest.raises(ValueError, match="integer"):
            InitialCondition.random_band(max_mode, seed)
        assert InitialCondition.random_band(2.0, 1.0).params == (2, 1)

    def test_random_parameters_beyond_float_range_are_integers(self):
        """float() of 10**400 overflows, yet it is a whole number: numpy's seed
        sequence takes it, and RunConfig refuses such a kmax on any grid."""
        assert InitialCondition.random_band(3, 10**400).seed == 10**400
        assert InitialCondition.random_band(10**400, 1).params == (10**400, 1)


class TestShockTime:
    """breaking_time(m0) is t* = -1/m0, or inf; shock_time(f) applies it to
    the profile's dense slope floor."""

    def test_neg_sine_breaks_at_one(self):
        assert breaking_time(-1.0) == 1.0
        assert shock_time(InitialCondition.neg_sine()) == pytest.approx(1.0, abs=1e-9)

    def test_amplitude_scales_inversely(self):
        assert breaking_time(-2.0) == 0.5
        assert shock_time(InitialCondition.scaled_neg_sine(2.0)) == pytest.approx(0.5, abs=1e-9)

    def test_flat_profile_never_breaks(self):
        for m0 in (0.0, -0.0, 2.0):
            assert breaking_time(m0) == np.inf, m0
        assert shock_time(InitialCondition.scaled_neg_sine(0.0)) == np.inf

    def test_gaussian_breaks_eventually(self):
        t = shock_time(InitialCondition.gaussian_bump(1.0))
        assert np.isfinite(t) and t > 1.0


class TestSlopeClosedForm:
    def test_halfway_to_breaking(self):
        assert slope_closed_form(-1.0, 0.5) == pytest.approx(-2.0, rel=1e-15)

    def test_late_steepening(self):
        assert slope_closed_form(-1.0, 0.8) == pytest.approx(-5.0, rel=1e-14)

    def test_flat_data_stays_flat(self):
        assert slope_closed_form(0.0, 7.0) == 0.0

    def test_positive_slope_relaxes(self):
        assert slope_closed_form(2.0, 0.3) == pytest.approx(1.25, rel=1e-15)

    def test_singular_time_raises(self):
        with pytest.raises(ValueError, match="singular at t = 0.5 for m0 = -2.0"):
            slope_closed_form(-2.0, 0.5)
        with pytest.raises(ValueError, match="singular"):
            slope_closed_form(-2.0, np.array([0.25, 0.5, 0.75]))

    def test_continuation_branch_past_the_pole(self):
        assert slope_closed_form(-2.0, 0.7) == pytest.approx(5.0, rel=1e-12)

    def test_array_is_bit_equal_to_scalar_calls(self):
        """On arrays, broadcast, each element is the scalar call's float."""
        m0 = np.array([-1.0, -2.0, 0.0, 2.0, -0.3, -1.0])
        t = np.array([0.25, 0.7, 7.0, 0.3, 1.1, 0.8])
        got = slope_closed_form(m0, t)
        assert got.shape == (6,)
        assert got.tobytes() == np.array([slope_closed_form(a, b) for a, b in zip(m0, t)]).tobytes()
        grid = slope_closed_form(m0[:, None], t)
        assert grid.shape == (6, 6)
        assert all(grid[i, j] == slope_closed_form(m0[i], t[j])
                   for i in range(6) for j in range(6))


class TestCharacteristicsSolution:
    def test_time_zero_is_identity(self):
        for f in CATALOGUE:
            for x in (-2.0, 0.0, 1.3):
                assert characteristics_solution(f, x, 0.0) == float(f(x))

    def test_odd_symmetry_point_stays_pinned(self):
        """x = 0 is a fixed point of the -sin x flow at any pre-shock time."""
        f = InitialCondition.neg_sine()
        for t in (0.3, 0.9, 0.99):
            assert characteristics_solution(f, 0.0, t) == pytest.approx(0.0, abs=1e-12)

    def test_residual_bound_across_catalogue(self):
        """Every returned value solves the implicit equation to 1e-12."""
        rng = np.random.default_rng(47)
        xs = rng.uniform(-np.pi, np.pi, 12)
        for f in CATALOGUE:
            t_star = shock_time(f)
            for frac in (0.1, 0.5, 0.95):
                t = frac * min(t_star, 4.0)
                for x in xs:
                    u = characteristics_solution(f, x, t)
                    assert abs(u - float(f(x - u * t))) <= 1e-12, (f.label(), x, t)

    def test_slope_matches_closed_form(self):
        """Finite-differenced slope at the steepest point follows
        m0/(1 + t*m0) to 1e-3 while the profile is smooth."""
        f = InitialCondition.neg_sine()
        h = 1e-6
        for t in (0.2, 0.5, 0.8):
            fd = (characteristics_solution(f, h, t)
                  - characteristics_solution(f, -h, t)) / (2.0 * h)
            assert abs(fd - slope_closed_form(-1.0, t)) <= 1e-3

    def test_post_shock_time_rejected(self):
        f = InitialCondition.neg_sine()
        for t in (1.0, 1.5):
            with pytest.raises(ValueError, match="shock time"):
                characteristics_solution(f, 0.5, t)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            characteristics_solution(InitialCondition.neg_sine(), 0.0, -0.1)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_rejected(self, monkeypatch, x):
        """Refused up front, before any profile evaluation."""
        f = InitialCondition.neg_sine()
        calls = []
        monkeypatch.setattr(InitialCondition, "__call__", lambda self, x: calls.append(x))
        with pytest.raises(ValueError, match=r"^x must be finite"):
            characteristics_solution(f, x, 0.5)
        assert calls == []

    @pytest.mark.parametrize("f, x, t", [
        (InitialCondition.random_band(2, 3), 0.6153635094660421, 0.255142107779826),
        (InitialCondition.random_band(4, 2), 2.817717122291877, 0.24517995922411656),
    ])
    def test_bisection_fallback(self, monkeypatch, f, x, t):
        """Close to the shock time the damped iteration stalls and bisection
        finds the root; only the fallback reads the value range."""
        ranged = []
        real = oracles._value_range
        monkeypatch.setattr(oracles, "_value_range", lambda g: ranged.append(g) or real(g))
        u = characteristics_solution(f, x, t)
        assert ranged == [f]
        assert abs(u - float(f(x - u * t))) <= 1e-12


class TestLinearDecaySolution:
    def test_time_zero_is_identity(self):
        x = nodes(32)
        s0 = forward_dft(np.cos(3.0 * x))
        out = linear_decay_solution(s0, 0.0, 1.0, 1.0)
        assert np.array_equal(out, s0)

    def test_zero_gamma_is_identity(self):
        x = nodes(32)
        s0 = forward_dft(np.sin(2.0 * x))
        out = linear_decay_solution(s0, 5.0, 0.0, 1.5)
        assert np.array_equal(out, s0)

    def test_single_mode_decay_rate(self):
        x = nodes(32)
        s0 = forward_dft(np.cos(2.0 * x))
        out = inverse_dft(linear_decay_solution(s0, 1.0, 1.0, 1.0))
        assert np.allclose(out, np.exp(-2.0) * np.cos(2.0 * x),
                           rtol=1e-14, atol=1e-16)

    def test_fractional_exponent_enters_the_rate(self):
        x = nodes(32)
        s0 = forward_dft(np.cos(2.0 * x))
        out = inverse_dft(linear_decay_solution(s0, 1.0, 1.0, 0.5))
        rate = np.exp(-(2.0**0.5))
        assert np.allclose(out, rate * np.cos(2.0 * x), rtol=1e-14, atol=1e-16)

    def test_semigroup_property(self):
        rng = np.random.default_rng(53)
        s0 = forward_dft(rng.standard_normal(64))
        one_hop = linear_decay_solution(s0, 0.7, 0.3, 1.2)
        two_hops = linear_decay_solution(linear_decay_solution(s0, 0.3, 0.3, 1.2), 0.4, 0.3, 1.2)
        assert np.allclose(one_hop, two_hops, rtol=1e-13, atol=1e-18)

    def test_validation(self):
        x = nodes(8)
        s0 = forward_dft(np.cos(x))
        with pytest.raises(ValueError, match=">= 0"):
            linear_decay_solution(s0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            linear_decay_solution(s0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            linear_decay_solution(s0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("arg", ["t", "gamma"])
    def test_non_finite_time_and_gamma_rejected(self, arg, bad):
        xs = nodes(8)
        s0 = forward_dft(np.cos(xs))
        args = {"t": 1.0, "gamma": 1.0, arg: bad}
        with pytest.raises(ValueError, match=f"^{arg}:? must be finite and >= 0"):
            linear_decay_solution(s0, args["t"], args["gamma"], 1.0)


# (a, gamma, t) for u0 = -a sin x: before and after the inviscid shock time
# 1/|a|, with a/gamma from 2 to 100.
COLE_HOPF_CASES = [(1.0, 0.5, 2.0), (1.0, 0.5, 0.05), (1.0, 0.2, 1.2), (1.0, 0.1, 1.2),
                   (1.0, 0.05, 1.2), (1.0, 0.01, 1.2), (3.0, 0.05, 0.5), (-2.0, 0.1, 0.8)]


def heat_series_burgers(a, gamma, t, n):
    """Cole-Hopf through the heat equation on n nodes: phi0 = exp(-a (cos x - 1)
    / (2 gamma)) is transformed, each mode decays by exp(-gamma k^2 t), and
    u = -2 gamma phi_x / phi. phi0 spans a factor exp(2a/gamma), so its small
    values lose their digits as a/gamma grows; used here at a/gamma <= 5 only."""
    c = forward_dft(np.exp(-a * (np.cos(nodes(n)) - 1.0) / (2.0 * gamma)))
    k = np.arange(c.size)
    c = c * np.exp(-gamma * k**2 * t)
    c[-1] = 0.0  # the unpaired Nyquist mode has no derivative
    return -2.0 * gamma * inverse_dft(1j * k * c) / inverse_dft(c)


class TestColeHopfSolution:
    """Tolerances are about three times the worst measured value."""

    @staticmethod
    def narrowest_width(a, gamma, t):
        return np.sqrt(2.0 * gamma / (1.0 / t + abs(a)))

    @pytest.mark.parametrize("a, gamma, t", COLE_HOPF_CASES)
    def test_halving_h_changes_nothing_beyond_rounding(self, a, gamma, t):
        """Measured: at most 6e-16 |a| over two halvings."""
        x = nodes(256)
        u = cole_hopf_solution(a, gamma, x, t)
        h = self.narrowest_width(a, gamma, t) / 8  # the default step
        for finer in (h / 2, h / 4):
            diff = np.max(np.abs(u - cole_hopf_solution(a, gamma, x, t, h=finer)))
            assert diff <= 2e-15 * abs(a), (finer, diff)
        # The step matters: one eight times the default is off by 5e-9 to 2e-5.
        coarse = cole_hopf_solution(a, gamma, x, t, h=8 * h)
        assert np.max(np.abs(u - coarse)) > 1e-9

    @pytest.mark.parametrize("gamma", [0.5, 0.05])
    @pytest.mark.parametrize("t", [1e-8, 1e-10, 1e-12])
    def test_small_t_returns_u0(self, gamma, t):
        """u = u0 + t (-u0 u0' + gamma u0'') + O(t^2); measured within
        3.6e-16 of that line."""
        x = nodes(256)
        u0, du0 = -np.sin(x), -np.cos(x)
        line = u0 + t * (-u0 * du0 - gamma * u0)
        assert np.max(np.abs(cole_hopf_solution(1.0, gamma, x, t) - line)) <= 1e-15
        assert np.array_equal(cole_hopf_solution(1.0, gamma, x, 0.0), u0)

    @pytest.mark.parametrize("a, gamma, t", COLE_HOPF_CASES)
    def test_mass_stays_zero(self, a, gamma, t):
        """The nodal mean of an odd profile; measured at most 5.6e-17."""
        u = cole_hopf_solution(a, gamma, nodes(256), t)
        assert abs(float(np.mean(u))) <= 2e-16

    @pytest.mark.parametrize("gamma, t", [(0.5, 2.0), (0.5, 0.05), (0.2, 1.2)])
    def test_matches_heat_series_at_moderate_a_over_gamma(self, gamma, t):
        """An independent evaluation of the same transform; measured at most
        4.2e-15 apart."""
        x = nodes(256)
        diff = np.max(np.abs(cole_hopf_solution(1.0, gamma, x, t)
                             - heat_series_burgers(1.0, gamma, t, 256)))
        assert diff <= 1.5e-14

    def test_shape_follows_x(self):
        x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        u = cole_hopf_solution(1.0, 0.1, x, 0.5)
        assert u.shape == (2, 3)
        assert cole_hopf_solution(1.0, 0.1, x[1, 2], 0.5) == u[1, 2]
        assert isinstance(cole_hopf_solution(1.0, 0.1, 0.3, 0.5), float)
        assert cole_hopf_solution(1.0, 0.1, np.empty(0), 0.5).shape == (0,)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(gamma=0.0), "gamma"), (dict(gamma=np.nan), "gamma"),
        (dict(t=-1.0), "t must"), (dict(t=np.inf), "t must"),
        (dict(a=np.nan), "a must"), (dict(x=np.nan), "x must"),
        (dict(h=0.0), "h must"), (dict(h=np.nan), "h must"), (dict(h="fine"), "h must"),
        (dict(h=1e-9), "quadrature points"), (dict(t=1e308), "quadrature points"),
    ])
    def test_validation(self, kwargs, match):
        args = {**dict(a=1.0, gamma=0.1, x=0.0, t=0.5), **kwargs}
        with pytest.raises(ValueError, match=match):
            cole_hopf_solution(**args)
