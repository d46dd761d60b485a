"""The grid nodes, the transform pair, the multiplier operators, and the
one range rule for real-valued inputs."""

import math

import numpy as np
import pytest

from fracburgers.diagnostics import observe
from fracburgers.dynamics import SimParams, rk4_step
from fracburgers.oracles import (
    InitialCondition,
    characteristics_solution,
    cole_hopf_solution,
    linear_decay_solution,
)
from fracburgers.spectral import (
    DEALIAS_RULES,
    MAX_N,
    SymmetryError,
    dealias,
    forward_dft,
    fractional_laplacian,
    inverse_dft,
    nodal_pair,
    nodes,
    flag,
    real,
    spectral_derivative,
    validate_alpha,
    validate_n,
    validate_spectrum,
    whole,
)

def trig_polynomial(x, rng, degree):
    """Random real trig polynomial of the given degree at the nodes x, and its derivative."""
    u = np.zeros_like(x)
    du = np.zeros_like(x)
    for k in range(1, degree + 1):
        a, b = rng.standard_normal(2) / (1 + k) ** 2
        u += a * np.cos(k * x) + b * np.sin(k * x)
        du += k * (b * np.cos(k * x) - a * np.sin(k * x))
    return u, du


class TestNodes:
    def test_four_node_example(self):
        x = nodes(4)
        assert np.array_equal(x, [-np.pi, -np.pi / 2, 0.0, np.pi / 2])

    def test_wavenumber_layout(self):
        """The stored half-spectrum is numpy's rfft of the node values, bit for bit."""
        rng = np.random.default_rng(29)
        for n in (4, 6, 16, 250, 4096):
            u = rng.standard_normal(n)
            c = forward_dft(u)
            assert np.array_equal(c, np.fft.rfft(u, norm="forward"))
            assert c.shape == (n // 2 + 1,)
            back = inverse_dft(c)
            assert np.array_equal(back, np.fft.irfft(c, n, norm="forward"))

    def test_uniform_spacing_from_minus_pi(self):
        x = nodes(10)
        assert x[0] == -np.pi
        assert np.allclose(np.diff(x), np.pi / 5, rtol=0, atol=1e-15)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError) as refused:
            nodes(7)
        assert str(refused.value) == "n: must be an even integer >= 4, got 7"

    def test_count_below_four_rejected(self):
        with pytest.raises(ValueError) as refused:
            nodes(2)
        assert str(refused.value) == "n: must be an even integer >= 4, got 2"

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError) as refused:
            nodes(4.5)
        assert str(refused.value) == "n: must be an even integer >= 4, got 4.5"

    @pytest.mark.parametrize("n", [float("inf"), float("nan"), "256.0"])
    def test_non_finite_or_non_number_count_rejected(self, n):
        """int(inf) raises OverflowError, which a ValueError handler misses."""
        with pytest.raises(ValueError) as refused:
            nodes(n)
        assert str(refused.value) == f"n: must be an even integer >= 4, got {n!r}"

    @pytest.mark.parametrize("n", [2**23 + 2, 2**62, 10**400, 1e300, str(2**40)])
    def test_count_above_the_ceiling_rejected(self, n):
        """Above MAX_N = 2**23 the count is refused in the n: form before any
        array is formed, however large, where numpy would refuse the size."""
        with pytest.raises(ValueError) as refused:
            nodes(n)
        assert str(refused.value) == (
            "n: must be at most 2**23 (a step holds about 16 * n float64 values, "
            f"1 GiB at 2**23), got {int(n)}")
        assert validate_n(2**23) == MAX_N == 2**23

    def test_whole_counts_in_any_form(self, bad_wholes):
        """A count is read as whole() reads it: an int, a number without a
        fraction, or text that int() reads."""
        for n in ("16", " 16", "1_6", 16.0, np.int64(16), np.float64(16.0)):
            assert np.array_equal(nodes(n), nodes(16))
        for bad in bad_wholes:
            with pytest.raises(ValueError) as refused:
                nodes(bad)
            assert str(refused.value) == f"n: must be an even integer >= 4, got {bad!r}"


class TestFieldTypes:
    def test_spectrum_rows_must_match_grid(self):
        """A coefficient array's last axis holds N/2 + 1 rows, stacked or not,
        and is the only record of N: any count from the 3 rows of the
        smallest grid up is a spectrum. observe checks it the same way."""
        for rows in (3, 4, 5, 6):
            validate_spectrum(np.zeros(rows, complex))
            validate_spectrum(np.zeros((2, 3, rows), complex))
        for shape in ((2,), (0,), (4, 2), ()):
            with pytest.raises(ValueError, match=r">= 3 rows, got shape"):
                validate_spectrum(np.zeros(shape, complex))
        with pytest.raises(ValueError, match=r">= 3 rows, got shape"):
            observe(np.zeros(2, complex), 0.0)
        assert all(v == 0.0 for v in observe(np.zeros(3, complex), 0.0))

    def test_observables_read_each_row(self, monkeypatch):
        """observe reduces over the last axis: on a stack, 2-D, with one more
        leading axis, or in Fortran order, each field is its row's own, to
        the bit, and observe makes one nodal_pair call for the whole stack.
        One state gives numpy.float64 values; a 0-d input is refused."""
        pairs = []
        monkeypatch.setattr("fracburgers.diagnostics.nodal_pair",
                            lambda c: pairs.append(c.shape) or nodal_pair(c))
        for n in (16, 256, 1024):
            stack = forward_dft(np.random.default_rng(7100 + n).standard_normal((3, n)))
            for rule in DEALIAS_RULES:
                def f(c):
                    return observe(c, 0.5, prev=observe(c, 0.25), rule=rule)
                rows = [f(row) for row in stack]
                for c in (stack, stack[None], np.asfortranarray(stack)):
                    for got, want in zip(f(c), zip(*rows), strict=True):
                        assert all(type(v) is np.float64 for v in want)
                        assert np.array_equal(got, np.reshape(want, c.shape[:-1]))
        pairs.clear()
        observe(stack, 0.5)
        assert pairs == [stack.shape]
        with pytest.raises(ValueError, match=r">= 3 rows, got shape \(\)"):
            observe(stack[0, 0], 0.0)

    def test_symmetry_checked_in_every_row(self):
        """validate_spectrum, and with it observe, refuses a row whose c_0
        or c_{N/2} is not real; a diverged row passes."""
        stack = np.zeros((3, 5), complex)
        stack[1, -1] = complex(np.nan, np.nan)  # a diverged row still passes
        validate_spectrum(stack)
        for edge in (0, -1):
            bad = stack.copy()
            bad[2, edge] = 1e-300j
            for check in (validate_spectrum, lambda c: observe(c, 0.0)):
                for c in (bad, bad[2]):
                    with pytest.raises(SymmetryError):
                        check(c)


class TestForwardDFT:
    def test_constant_concentrates_in_mean_mode(self):
        s = forward_dft(np.full(16, 3.0))
        assert abs(s[0] - 3.0) <= 1e-15
        assert np.max(np.abs(s[1:])) <= 1e-15

    def test_neg_sine_example(self):
        """-sin x = sin(x + pi) transforms to -i/2 in the k = 1 row (+i/2 at k = -1)."""
        xs = nodes(8)
        s = forward_dft(-np.sin(xs))
        assert abs(s[1] + 0.5j) <= 1e-15
        rest = np.delete(s, 1)
        assert np.max(np.abs(rest)) <= 1e-15

    def test_cos_two_example(self):
        x = nodes(16)
        s = forward_dft(np.cos(2.0 * x))
        assert abs(s[2] - 0.5) <= 1e-15
        assert len(s) == 16 // 2 + 1

    def test_unpaired_rows_exactly_real(self):
        """c_0 and c_{N/2} stay exactly real through every operator."""
        rng = np.random.default_rng(7)
        s = forward_dft(rng.standard_normal(64))
        for out in (s, spectral_derivative(s), fractional_laplacian(s, 1.3)):
            assert out[0].imag == 0.0 and out[-1].imag == 0.0
        assert s[-1] != 0.0

    def test_length_mismatch_rejected(self):
        """An odd node count has no grid: N is even."""
        with pytest.raises(ValueError, match=r"even last axis of length >= 4, got shape \(15,\)"):
            forward_dft(np.zeros(15))

    def test_last_axis_must_match_grid(self):
        """Leading axes are a stack of fields; the last axis is the grid, so
        its length N must be even and >= 4, and the spectrum has N/2 + 1 rows."""
        assert forward_dft(np.zeros((2, 3, 8))).shape == (2, 3, 5)
        assert forward_dft(np.zeros((8, 4))).shape == (8, 3)
        for shape in ((2, 7), (8, 2), (3,), (0,), ()):
            with pytest.raises(ValueError, match=r"even last axis of length >= 4, got shape \("):
                forward_dft(np.zeros(shape))

    def test_complex_nodal_data_rejected(self):
        """Nodal data are real; an imaginary part is refused, not dropped."""
        u = np.cos(nodes(8)) + 1e-3j
        with pytest.raises(ValueError, match="must be real, got dtype complex128"):
            forward_dft(u)


class TestInverseDFT:
    def test_mean_mode_reconstructs_constant(self):
        c = np.zeros(8 // 2 + 1, complex)
        c[0] = 5.0
        u = inverse_dft(c)
        assert np.allclose(u, 5.0, rtol=0, atol=1e-14)

    def test_conjugate_pair_reconstructs_neg_sine(self):
        x = nodes(32)
        c = np.zeros(32 // 2 + 1, complex)
        c[1] = -0.5j
        u = inverse_dft(c)
        assert np.allclose(u, -np.sin(x), rtol=0, atol=1e-14)

    def test_round_trip_many_sizes(self):
        """forward then inverse returns the samples to 1e-12 relative."""
        rng = np.random.default_rng(11)
        for n in (4, 6, 16, 54, 250, 1024, 4096):
            u = rng.standard_normal(n)
            back = inverse_dft(forward_dft(u))
            err = np.max(np.abs(back - u))
            assert err <= 1e-12 * np.max(np.abs(u)), f"n={n}: {err:.3e}"

    def test_imaginary_nyquist_rejected(self):
        c = np.zeros(8 // 2 + 1, complex)
        c[-1] = 1.0j
        with pytest.raises(SymmetryError):
            inverse_dft(c)

    def test_imaginary_mean_rejected(self):
        c = np.zeros(8 // 2 + 1, complex)
        c[0] = 1.0 + 1e-300j
        with pytest.raises(SymmetryError):
            inverse_dft(c)

    def test_length_mismatch_rejected(self):
        """The row count sets N = 2 * (rows - 1); fewer than 3 rows is no grid."""
        assert inverse_dft(np.zeros(9, complex)).shape == (16,)
        assert inverse_dft(np.zeros((2, 3), complex)).shape == (2, 4)
        with pytest.raises(ValueError, match=">= 3 rows"):
            inverse_dft(np.zeros(2, complex))


class TestSpectralDerivative:
    def test_neg_sine_to_neg_cosine(self):
        x = nodes(16)
        s = forward_dft(-np.sin(x))
        du = inverse_dft(spectral_derivative(s))
        assert np.allclose(du, -np.cos(x), rtol=0, atol=1e-14)

    def test_constant_annihilated(self):
        s = forward_dft(np.full(8, 4.0))
        d = spectral_derivative(s)
        assert np.max(np.abs(d)) <= 1e-15

    def test_nyquist_row_dropped(self):
        """The unpaired k = N/2 mode has no real derivative representative."""
        c = np.zeros(8 // 2 + 1, complex)
        c[-1] = 1.0
        d = spectral_derivative(c)
        assert np.array_equal(d, np.zeros(8 // 2 + 1, complex))

    def test_mean_coefficient_exactly_zero(self):
        rng = np.random.default_rng(3)
        s = forward_dft(rng.standard_normal(32))
        assert spectral_derivative(s)[0] == 0.0

    def test_exact_on_trig_polynomials(self):
        """Derivatives of resolvable trig polynomials are exact to 1e-11."""
        rng = np.random.default_rng(19)
        for n in (16, 64, 256):
            u, du = trig_polynomial(nodes(n), rng, degree=n // 2 - 1)
            got = inverse_dft(spectral_derivative(forward_dft(u)))
            assert np.max(np.abs(got - du)) <= 1e-11


class TestFractionalLaplacian:
    def test_cos_two_alpha_one_example(self):
        x = nodes(16)
        s = forward_dft(np.cos(2.0 * x))
        out = inverse_dft(fractional_laplacian(s, 1.0))
        assert np.allclose(out, 2.0 * np.cos(2.0 * x), rtol=0, atol=1e-14)

    def test_unit_mode_fixed_by_any_alpha(self):
        x = nodes(16)
        s = forward_dft(-np.sin(x))
        for alpha in (0.5, 1.0, 1.7, 2.0):
            out = inverse_dft(fractional_laplacian(s, alpha))
            assert np.allclose(out, -np.sin(x), rtol=0, atol=1e-14)

    def test_constant_annihilated(self):
        s = forward_dft(np.full(8, 2.0))
        out = fractional_laplacian(s, 0.5)
        assert np.max(np.abs(out)) <= 1e-15

    def test_alpha_two_equals_negative_second_derivative(self):
        """E^2 and -D_N^2 agree on every row except the unpaired Nyquist one."""
        rng = np.random.default_rng(23)
        s = forward_dft(rng.standard_normal(64))
        lap = fractional_laplacian(s, 2.0)
        dd = -spectral_derivative(spectral_derivative(s))
        assert np.allclose(lap[:-1], dd[:-1], rtol=0, atol=1e-13)
        # the multiplier keeps the Nyquist row, the derivative zeroes it
        c = np.zeros(64 // 2 + 1, complex)
        c[-1] = 1.0
        assert fractional_laplacian(c, 2.0)[-1] == (64 / 2) ** 2
        assert spectral_derivative(c)[-1] == 0.0

    def test_alpha_validation(self):
        x = nodes(8)
        s = forward_dft(np.cos(x))
        for alpha in (0.0, -1.0, 2.5, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                fractional_laplacian(s, alpha)


class TestMaximumPrincipleStep:
    """The pointwise inequality 2 theta Lambda^alpha theta >= Lambda^alpha(theta^2)
    (A. Cordoba & D. Cordoba, Comm. Math. Phys. 249, 2004), the step behind
    the L-infinity principle for every alpha in (0, 2].

    theta is a random trigonometric polynomial with |k| < N/4, so theta^2
    does not alias on N nodes and the discrete operators equal the
    continuous ones at the nodes. Over 200 states per case (PCG64 seed 0,
    c_k ~ (N(0,1) + i N(0,1))/k) the least gap min(lhs - rhs), in units of
    max|lhs| + max|rhs|, measured >= 1.2e-3 for alpha <= 1.5. At alpha = 2
    the gap is 2 theta'^2, which vanishes at critical points: it measured
    7e-12, and the computed gap differs from 2 theta'^2 by at most 8.6e-15.
    So only a rounding tolerance, about three times that, is allowed."""

    STATES = 200
    TOL = 3e-14

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [64, 256])
    def test_holds_at_every_node(self, n, alpha):
        k = np.arange(1, n // 4)
        rng = np.random.Generator(np.random.PCG64(0))
        c = np.zeros((self.STATES, n // 2 + 1), complex)
        c[:, k] = (rng.standard_normal((self.STATES, len(k)))
                   + 1j * rng.standard_normal((self.STATES, len(k)))) / k
        theta = inverse_dft(c)
        lhs = 2.0 * theta * inverse_dft(fractional_laplacian(c, alpha))
        rhs = inverse_dft(fractional_laplacian(forward_dft(theta**2), alpha))
        scale = np.abs(lhs).max(axis=-1, keepdims=True) + np.abs(rhs).max(axis=-1, keepdims=True)
        assert ((lhs - rhs) / scale).min() >= -self.TOL
        if alpha == 2.0:  # the gap is 2 theta'^2 exactly
            gap = 2.0 * inverse_dft(spectral_derivative(c)) ** 2
            assert (np.abs(lhs - rhs - gap) / scale).max() <= self.TOL


class TestValidateAlpha:
    def test_accepts_boundary_two(self):
        assert validate_alpha(2) == 2.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="alpha"):
            validate_alpha(0.0)


_SINE = forward_dft(np.sin(nodes(8)))  # a state for the steppers and solvers that take one


class TestReal:
    """spectral.real is the one range rule for a real scalar: it words the
    rule from the interval and names the value as the caller gave it."""

    @pytest.mark.parametrize("low, high, ends, rule", [
        (-math.inf, math.inf, "()", "must be finite"),
        (0.0, math.inf, "[)", "must be finite and >= 0"),
        (0.0, math.inf, "()", "must be finite and > 0"),
        (0.0, 2.0, "(]", "must lie in (0, 2]"),
        (0.0, 1.0, "()", "must lie in (0, 1)"),
        (math.sqrt(np.finfo(float).tiny), math.inf, "[)", "must be finite and >= 1.49167e-154"),
    ])
    def test_rule_worded_from_the_interval(self, low, high, ends, rule):
        with pytest.raises(ValueError) as refused:
            real("key", "fast", low, high, ends=ends)
        assert str(refused.value) == f"key: {rule}, got 'fast'"

    # Every entry point that takes a real scalar, with its key and its rule.
    # SimParams, DetectionThresholds and RunConfig are graded by their own
    # modules' test_non_number_worded_as_range_rule.
    ENTRY_POINTS = {
        "alpha": ("must lie in (0, 2]", validate_alpha),
        "amplitude": ("must be finite", InitialCondition.scaled_neg_sine),
        "width": ("must be finite and >= 1.49167e-154", InitialCondition.gaussian_bump),
        "rk4_step dt": ("must be finite and > 0", lambda v: rk4_step(_SINE, SimParams(), v)),
        "linear_decay t": ("must be finite and >= 0",
                           lambda v: linear_decay_solution(_SINE, v, 1.0, 1.0)),
        "linear_decay gamma": ("must be finite and >= 0",
                               lambda v: linear_decay_solution(_SINE, 1.0, v, 1.0)),
        "characteristics t": ("must be finite and >= 0",
                              lambda v: characteristics_solution(InitialCondition.neg_sine(),
                                                                 0.1, v)),
        "cole_hopf a": ("must be finite", lambda v: cole_hopf_solution(v, 0.1, 0.1, 0.1)),
        "cole_hopf gamma": ("must be finite and > 0",
                            lambda v: cole_hopf_solution(1.0, v, 0.1, 0.1)),
        "cole_hopf t": ("must be finite and >= 0",
                        lambda v: cole_hopf_solution(1.0, 0.1, 0.1, v)),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_every_real_input_refused_in_one_form(self, entry, bad_reals):
        rule, call = self.ENTRY_POINTS[entry]
        key = entry.split()[-1]
        for bad in bad_reals:
            with pytest.raises(ValueError) as refused:
                call(bad)
            assert str(refused.value) == f"{key}: {rule}, got {bad!r}"


class TestWhole:
    """spectral.whole is the one rule for an integer: it reads what int()
    reads of text and any number without a fraction, and names the value as
    the caller gave it."""

    @pytest.mark.parametrize("value, expected", [
        (8, 8), ("8", 8), (" 8", 8), ("1_0", 10), (8.0, 8), (np.int64(8), 8),
        (np.float32(8.0), 8), (True, 1), (10**400, 10**400), ("0", 0),
    ])
    def test_accepted(self, value, expected):
        got = whole("key", value, 0)
        assert got == expected and type(got) is int

    @pytest.mark.parametrize("value", ["4.0", "", "8 8", 8.5, np.float64(0.5), [8], 1j, "-1"])
    def test_refused(self, value):
        with pytest.raises(ValueError) as refused:
            whole("key", value, 0)
        assert str(refused.value) == f"key: must be an integer >= 0, got {value!r}"

    def test_refused_in_one_form(self, bad_wholes):
        for bad in bad_wholes:
            with pytest.raises(ValueError) as refused:
                whole("key", bad, 0)
            assert str(refused.value) == f"key: must be an integer >= 0, got {bad!r}"

    def test_even_rule(self):
        assert whole("n", "6", 4, even=True) == 6
        for bad in (5, "7", 2):
            with pytest.raises(ValueError) as refused:
                whole("n", bad, 4, even=True)
            assert str(refused.value) == f"n: must be an even integer >= 4, got {bad!r}"


class TestFlag:
    """spectral.flag is the one rule for true or false."""

    def test_accepted(self):
        for value, expected in ((True, True), (False, False), (np.True_, True),
                                (np.False_, False), ("true", True), ("false", False)):
            got = flag("key", value)
            assert got is expected

    def test_refused_in_one_form(self, bad_flags):
        for bad in (*bad_flags, "", " true", np.array([True])):
            with pytest.raises(ValueError) as refused:
                flag("key", bad)
            assert str(refused.value) == f"key: must be true or false, got {bad!r}"


class TestDealias:
    def test_off_returns_independent_copy(self):
        x = nodes(8)
        s = forward_dft(np.cos(x))
        out = dealias(s, "off")
        assert np.array_equal(out, s)
        out[0] = 9.0
        assert s[0] != 9.0

    def test_two_thirds_cut_is_exclusive(self):
        """k >= N/3 is zeroed, k = N/3 included: a product of two states in
        |k| <= N/3 folds onto row N/3 itself. k = 3 < 12/3 survives;
        cos 3x = -cos 3(x + pi)."""
        xs = nodes(12)
        u = np.cos(3.0 * xs) + np.cos(4.0 * xs) + np.cos(5.0 * xs)
        out = dealias(forward_dft(u), "two-thirds")
        assert abs(out[5]) == 0.0
        assert abs(out[6]) == 0.0
        assert abs(out[4]) == 0.0
        assert abs(out[3] + 0.5) <= 1e-15

    def test_unknown_rule_rejected(self):
        x = nodes(8)
        s = forward_dft(np.cos(x))
        with pytest.raises(ValueError, match="dealias"):
            dealias(s, "three_halves")
