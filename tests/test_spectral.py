"""Grid construction, the transform pair, and the multiplier operators."""

import numpy as np
import pytest

from fracburgers.diagnostics import l2_norm, mass, observe, sobolev_norm, tail_fraction
from fracburgers.spectral import (
    SymmetryError,
    dealias,
    forward_dft,
    fractional_laplacian,
    inverse_dft,
    make_grid,
    spectral_derivative,
    validate_alpha,
    validate_spectrum,
)

OBSERVABLES = (mass, l2_norm, tail_fraction, lambda c: sobolev_norm(c, 3.0))


def trig_polynomial(g, rng, degree):
    """Random real trig polynomial of the given degree and its derivative."""
    u = np.zeros(g.n)
    du = np.zeros(g.n)
    for k in range(1, degree + 1):
        a, b = rng.standard_normal(2) / (1 + k) ** 2
        u += a * np.cos(k * g.nodes) + b * np.sin(k * g.nodes)
        du += k * (b * np.cos(k * g.nodes) - a * np.sin(k * g.nodes))
    return u, du


class TestMakeGrid:
    def test_four_node_example(self):
        g = make_grid(4)
        assert np.array_equal(g.nodes, [-np.pi, -np.pi / 2, 0.0, np.pi / 2])

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
        g = make_grid(10)
        assert g.nodes[0] == -np.pi
        assert np.allclose(np.diff(g.nodes), np.pi / 5, rtol=0, atol=1e-15)

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(7)

    def test_count_below_four_rejected(self):
        with pytest.raises(ValueError, match="even and >= 4"):
            make_grid(2)

    def test_fractional_count_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            make_grid(4.5)

    @pytest.mark.parametrize("n", [float("inf"), float("nan"), "256"])
    def test_non_finite_or_non_number_count_rejected(self, n):
        """int(inf) raises OverflowError, which a ValueError handler misses."""
        with pytest.raises(ValueError, match=r"^n: must be an integer, got "):
            make_grid(n)


class TestFieldTypes:
    def test_spectrum_rows_must_match_grid(self):
        """A coefficient array's last axis holds N/2 + 1 rows, stacked or not,
        and is the only record of N: any count from the 3 rows of the
        smallest grid up is a spectrum. The observables also need 3 rows."""
        for rows in (3, 4, 5, 6):
            validate_spectrum(np.zeros(rows, complex))
            validate_spectrum(np.zeros((2, 3, rows), complex))
        for shape in ((2,), (0,), (4, 2), ()):
            with pytest.raises(ValueError, match=r">= 3 rows, got shape"):
                validate_spectrum(np.zeros(shape, complex))
        for f in OBSERVABLES:
            with pytest.raises(ValueError, match="length >= 3"):
                f(np.zeros(2, complex))
            assert f(np.zeros(3, complex)) == 0.0

    def test_observables_refuse_a_stack(self):
        """mass, the norms, the tail and observe read one half-spectrum; a
        stack of them raises instead of being folded into one number."""
        g = make_grid(8)
        stack = forward_dft(np.cos(np.multiply.outer([1.0, 2.0], g.nodes)))
        for f in OBSERVABLES:
            for bad in (stack, stack[None], stack[0, 0]):
                with pytest.raises(ValueError, match="1-D"):
                    f(bad)
        with pytest.raises(ValueError, match="1-D"):
            observe(stack, 0.0)

    def test_symmetry_checked_in_every_row(self):
        stack = np.zeros((3, 5), complex)
        stack[1, -1] = complex(np.nan, np.nan)  # a diverged row still passes
        validate_spectrum(stack)
        stack[2, 0] = 1e-300j
        with pytest.raises(SymmetryError):
            validate_spectrum(stack)


class TestForwardDFT:
    def test_constant_concentrates_in_mean_mode(self):
        g = make_grid(16)
        s = forward_dft(np.full(g.n, 3.0))
        assert abs(s[0] - 3.0) <= 1e-15
        assert np.max(np.abs(s[1:])) <= 1e-15

    def test_neg_sine_example(self):
        """-sin x = sin(x + pi) transforms to -i/2 in the k = 1 row (+i/2 at k = -1)."""
        g = make_grid(8)
        s = forward_dft(-np.sin(g.nodes))
        assert abs(s[1] + 0.5j) <= 1e-15
        rest = np.delete(s, 1)
        assert np.max(np.abs(rest)) <= 1e-15

    def test_cos_two_example(self):
        g = make_grid(16)
        s = forward_dft(np.cos(2.0 * g.nodes))
        assert abs(s[2] - 0.5) <= 1e-15
        assert len(s) == g.n // 2 + 1

    def test_unpaired_rows_exactly_real(self):
        """c_0 and c_{N/2} stay exactly real through every operator."""
        g = make_grid(64)
        rng = np.random.default_rng(7)
        s = forward_dft(rng.standard_normal(g.n))
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
        u = np.cos(make_grid(8).nodes) + 1e-3j
        with pytest.raises(ValueError, match="must be real, got dtype complex128"):
            forward_dft(u)


class TestInverseDFT:
    def test_mean_mode_reconstructs_constant(self):
        g = make_grid(8)
        c = np.zeros(g.n // 2 + 1, complex)
        c[0] = 5.0
        u = inverse_dft(c)
        assert np.allclose(u, 5.0, rtol=0, atol=1e-14)

    def test_conjugate_pair_reconstructs_neg_sine(self):
        g = make_grid(32)
        c = np.zeros(g.n // 2 + 1, complex)
        c[1] = -0.5j
        u = inverse_dft(c)
        assert np.allclose(u, -np.sin(g.nodes), rtol=0, atol=1e-14)

    def test_round_trip_many_sizes(self):
        """forward then inverse returns the samples to 1e-12 relative."""
        rng = np.random.default_rng(11)
        for n in (4, 6, 16, 54, 250, 1024, 4096):
            u = rng.standard_normal(n)
            back = inverse_dft(forward_dft(u))
            err = np.max(np.abs(back - u))
            assert err <= 1e-12 * np.max(np.abs(u)), f"n={n}: {err:.3e}"

    def test_imaginary_nyquist_rejected(self):
        g = make_grid(8)
        c = np.zeros(g.n // 2 + 1, complex)
        c[-1] = 1.0j
        with pytest.raises(SymmetryError):
            inverse_dft(c)

    def test_imaginary_mean_rejected(self):
        g = make_grid(8)
        c = np.zeros(g.n // 2 + 1, complex)
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
        g = make_grid(16)
        s = forward_dft(-np.sin(g.nodes))
        du = inverse_dft(spectral_derivative(s))
        assert np.allclose(du, -np.cos(g.nodes), rtol=0, atol=1e-14)

    def test_constant_annihilated(self):
        g = make_grid(8)
        s = forward_dft(np.full(g.n, 4.0))
        d = spectral_derivative(s)
        assert np.max(np.abs(d)) <= 1e-15

    def test_nyquist_row_dropped(self):
        """The unpaired k = N/2 mode has no real derivative representative."""
        g = make_grid(8)
        c = np.zeros(g.n // 2 + 1, complex)
        c[-1] = 1.0
        d = spectral_derivative(c)
        assert np.array_equal(d, np.zeros(g.n // 2 + 1, complex))

    def test_mean_coefficient_exactly_zero(self):
        g = make_grid(32)
        rng = np.random.default_rng(3)
        s = forward_dft(rng.standard_normal(g.n))
        assert spectral_derivative(s)[0] == 0.0

    def test_exact_on_trig_polynomials(self):
        """Derivatives of resolvable trig polynomials are exact to 1e-11."""
        rng = np.random.default_rng(19)
        for n in (16, 64, 256):
            g = make_grid(n)
            u, du = trig_polynomial(g, rng, degree=n // 2 - 1)
            got = inverse_dft(spectral_derivative(forward_dft(u)))
            assert np.max(np.abs(got - du)) <= 1e-11


class TestFractionalLaplacian:
    def test_cos_two_alpha_one_example(self):
        g = make_grid(16)
        s = forward_dft(np.cos(2.0 * g.nodes))
        out = inverse_dft(fractional_laplacian(s, 1.0))
        assert np.allclose(out, 2.0 * np.cos(2.0 * g.nodes), rtol=0, atol=1e-14)

    def test_unit_mode_fixed_by_any_alpha(self):
        g = make_grid(16)
        s = forward_dft(-np.sin(g.nodes))
        for alpha in (0.5, 1.0, 1.7, 2.0):
            out = inverse_dft(fractional_laplacian(s, alpha))
            assert np.allclose(out, -np.sin(g.nodes), rtol=0, atol=1e-14)

    def test_constant_annihilated(self):
        g = make_grid(8)
        s = forward_dft(np.full(g.n, 2.0))
        out = fractional_laplacian(s, 0.5)
        assert np.max(np.abs(out)) <= 1e-15

    def test_alpha_two_equals_negative_second_derivative(self):
        """E^2 and -D_N^2 agree on every row except the unpaired Nyquist one."""
        g = make_grid(64)
        rng = np.random.default_rng(23)
        s = forward_dft(rng.standard_normal(g.n))
        lap = fractional_laplacian(s, 2.0)
        dd = -spectral_derivative(spectral_derivative(s))
        assert np.allclose(lap[:-1], dd[:-1], rtol=0, atol=1e-13)
        # the multiplier keeps the Nyquist row, the derivative zeroes it
        c = np.zeros(g.n // 2 + 1, complex)
        c[-1] = 1.0
        assert fractional_laplacian(c, 2.0)[-1] == (g.n / 2) ** 2
        assert spectral_derivative(c)[-1] == 0.0

    def test_alpha_validation(self):
        g = make_grid(8)
        s = forward_dft(np.cos(g.nodes))
        for alpha in (0.0, -1.0, 2.5, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                fractional_laplacian(s, alpha)


class TestValidateAlpha:
    def test_accepts_boundary_two(self):
        assert validate_alpha(2) == 2.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="alpha"):
            validate_alpha(0.0)


class TestDealias:
    def test_off_returns_independent_copy(self):
        g = make_grid(8)
        s = forward_dft(np.cos(g.nodes))
        out = dealias(s, "off")
        assert np.array_equal(out, s)
        out[0] = 9.0
        assert s[0] != 9.0

    def test_two_thirds_cut_is_exclusive(self):
        """k > N/3 is zeroed; k = N/3 survives. cos 3x = -cos 3(x + pi)."""
        g = make_grid(12)
        u = np.cos(3.0 * g.nodes) + np.cos(4.0 * g.nodes) + np.cos(5.0 * g.nodes)
        out = dealias(forward_dft(u), "two_thirds")
        assert abs(out[5]) == 0.0
        assert abs(out[6]) == 0.0
        assert abs(out[4] - 0.5) <= 1e-15
        assert abs(out[3] + 0.5) <= 1e-15

    def test_unknown_rule_rejected(self):
        g = make_grid(8)
        s = forward_dft(np.cos(g.nodes))
        with pytest.raises(ValueError, match="dealias"):
            dealias(s, "three_halves")
