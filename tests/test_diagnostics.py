"""The diagnostics, the blow-up monitors, and detection policy."""

import math
import re
import warnings

import numpy as np
import pytest

from fracburgers.diagnostics import (
    DetectionThresholds,
    DiagnosticsRecord,
    check_blowup,
    observe,
)
from fracburgers.dynamics import SimParams, rk4_step
from fracburgers.oracles import breaking_time
from fracburgers.spectral import (
    DEALIAS_RULES,
    dealias,
    forward_dft,
    inverse_dft,
    nodal_pair,
    nodes,
)


def record(**overrides):
    """A healthy record to perturb in detection tests."""
    base = dict(t=0.5, mass=0.0, l2=1.0, max_u=1.0, min_u=-1.0,
                min_slope=-1.0, max_slope=1.0, bkm_integral=0.5, h3=2.0,
                tail_fraction=1e-6)
    base.update(overrides)
    return DiagnosticsRecord(**base)


def spectral_fields(c):
    """The fields observe reads from the spectrum alone, for the half-spectrum c."""
    rec = observe(c, 0.0)
    return rec.mass, rec.l2, rec.h3, rec.tail_fraction


def observed_tail(c, rule="off"):
    """The tail_fraction of observe's record for the half-spectrum c."""
    return observe(c, 0.0, rule=rule).tail_fraction


class TestMass:
    def test_neg_sine_is_massless(self):
        x = nodes(64)
        assert abs(observe(forward_dft(-np.sin(x)), 0.0).mass) <= 1e-15

    def test_constant_three(self):
        got = observe(forward_dft(np.full(16, 3.0)), 0.0).mass
        assert got == pytest.approx(6.0 * np.pi, rel=1e-15)

    def test_shifted_cosine(self):
        x = nodes(32)
        got = observe(forward_dft(1.0 + np.cos(x)), 0.0).mass
        assert got == pytest.approx(2.0 * np.pi, rel=1e-14)


class TestL2Norm:
    def test_neg_sine_example(self):
        x = nodes(64)
        got = observe(forward_dft(-np.sin(x)), 0.0).l2
        assert got == pytest.approx(np.sqrt(np.pi), rel=1e-14)

    def test_constant(self):
        got = observe(forward_dft(np.full(16, 2.0)), 0.0).l2
        assert got == pytest.approx(2.0 * np.sqrt(2.0 * np.pi), rel=1e-14)

    def test_zero_field(self):
        assert observe(forward_dft(np.zeros(8)), 0.0).l2 == 0.0


class TestSobolevNorm:
    def test_sine_h3(self):
        """||sin||_{H^3}^2 = 2 pi (1 + 1)^3 * (1/4 + 1/4) = 8 pi."""
        x = nodes(64)
        got = observe(forward_dft(np.sin(x)), 0.0).h3
        assert got == pytest.approx(np.sqrt(8.0 * np.pi), rel=1e-14)

    def test_higher_order_weights_high_modes(self):
        x = nodes(64)
        low = forward_dft(np.sin(x))
        high = forward_dft(np.sin(8.0 * x))
        assert observe(high, 0.0).h3 > 100.0 * observe(low, 0.0).h3


class TestExtrema:
    """max_u and min_u are numpy's max and min of inverse_dft(c), and the
    slope fields those of nodal_pair(c)[1], to the bit. They are compared
    with these reductions, not with the profile's bounds: irfft(rfft(u))
    is u only to rounding."""

    @staticmethod
    def assert_nodal_extrema(c):
        rec = observe(c, 0.0)
        u, slope = inverse_dft(c), nodal_pair(c)[1]
        for got, want in ((rec.max_u, np.max(u, axis=-1)), (rec.min_u, np.min(u, axis=-1)),
                          (rec.max_slope, np.max(slope, axis=-1)),
                          (rec.min_slope, np.min(slope, axis=-1))):
            assert np.shape(got) == c.shape[:-1]
            assert np.asarray(got).tobytes() == want.tobytes()
        return rec

    def test_neg_sine(self):
        self.assert_nodal_extrema(forward_dft(-np.sin(nodes(64))))

    def test_constant(self):
        self.assert_nodal_extrema(forward_dft(np.full(8, 3.5)))

    def test_reduces_each_row(self):
        """The rows cos x and 2 cos x get one value each in every field,
        bit-equal to the record of the row alone."""
        stack = forward_dft(np.multiply.outer([1.0, 2.0], np.cos(nodes(8))))
        rec = self.assert_nodal_extrema(stack)
        for b, row in enumerate(stack):
            alone = observe(row, 0.0)
            for field in ("max_u", "min_u", "max_slope", "min_slope"):
                assert getattr(rec, field)[b].tobytes() == getattr(alone, field).tobytes()


def initial_slope(u):
    """The min_slope column of the record observe makes for nodal values u."""
    return observe(forward_dft(u), 0.0).min_slope


class TestMinSlope:
    def test_neg_sine_example(self):
        got = initial_slope(-np.sin(nodes(64)))
        assert abs(got - (-1.0)) <= 1e-12

    def test_plain_sine(self):
        got = initial_slope(np.sin(nodes(64)))
        assert abs(got - (-1.0)) <= 1e-12

    def test_constant_is_flat(self):
        assert abs(initial_slope(np.full(32, 1.0))) <= 1e-14


class TestBreakingTimeOfTheInitialSlope:
    """report.txt's predicted_t_star: breaking_time of the t = 0 record's
    nodal min_slope, inf (printed none) where the data never breaks."""

    def test_neg_sine_breaks_at_one(self):
        got = breaking_time(initial_slope(-np.sin(nodes(64))))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_amplitude_scales_inversely(self):
        got = breaking_time(initial_slope(-2.0 * np.sin(nodes(64))))
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_constant_never_breaks(self):
        assert breaking_time(initial_slope(np.full(16, 2.0))) == np.inf


class TestBkmIntegral:
    """observe sums the integral of ||u_x||_inf from prev, the record of the
    state one step earlier: one trapezoid panel over t - prev.t."""

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["max-slope-wins", "min-slope-wins"])
    def test_trapezoid_panel(self, sign):
        """The panel is (t - prev.t)(S_prev + S)/2 with S = max(max_slope,
        -min_slope), which is ||u_x||_inf at the nodes whichever extremum is
        the larger in magnitude (1.6 against about 0.81 here)."""
        x = nodes(64)
        a = forward_dft(sign * (np.sin(x) + 0.3 * np.sin(2.0 * x)))
        b = forward_dft(sign * 0.5 * np.sin(x))
        prev = observe(a, 0.25)._replace(bkm_integral=1.5)
        rec = observe(b, 0.75, prev=prev)
        norms = [max(r.max_slope, -r.min_slope) for r in (prev, rec)]
        assert norms == [np.abs(nodal_pair(c)[1]).max() for c in (a, b)]
        assert norms[0] == pytest.approx(1.6, rel=1e-14)
        assert rec.bkm_integral == 1.5 + (0.75 - 0.25) * (norms[0] + norms[1]) / 2.0

    def test_flat_states_add_nothing(self):
        flat = forward_dft(np.full(16, 3.0))
        prev = observe(flat, 0.0)._replace(bkm_integral=5.0)
        assert observe(flat, 1.0, prev=prev).bkm_integral == 5.0

    def test_stack_sums_one_integral_per_row(self):
        """On a stack stepped like the run loop steps one state, max_slope is
        each row's nodal maximum of u_x, and observe(stack, t, prev=record)
        gives every field, bkm_integral included, bit for bit as the row's
        own run does."""
        n, dt = 256, 1e-3
        p = SimParams(gamma=0.1)
        x = nodes(n)
        stack = forward_dft(np.array([-a * np.sin(x) + b * np.cos(2.0 * x)
                                      for a, b in ((0.5, 0.2), (1.0, 0.0), (2.0, -0.3))]))

        def run(c):
            nodal, t = nodal_pair(c), 0.0
            records = [observe(c, t, nodal=nodal)]
            for _ in range(200):
                c, t = rk4_step(c, p, dt, nodal=nodal), t + dt
                nodal = nodal_pair(c)
                records.append(observe(c, t, prev=records[-1], nodal=nodal))
                assert np.array_equal(records[-1].max_slope, nodal[1].max(axis=-1))
            return records

        stacked = run(stack)
        assert np.all(stacked[-1].bkm_integral > 0.0)
        for b, row in enumerate(stack):
            for got, want in zip(stacked, run(row), strict=True):
                assert all(type(v) is np.float64 for v in want)
                assert np.array_equal(np.array(got)[:, b], want)


class TestTailFraction:
    def test_resolved_field_has_empty_tail(self):
        c = np.zeros(64 // 2 + 1, complex)
        c[1] = 0.5
        assert observed_tail(c) == 0.0

    def test_unresolved_field_is_all_tail(self):
        c = np.zeros(64 // 2 + 1, complex)
        c[30] = 0.5
        assert observed_tail(c) == pytest.approx(1.0, rel=1e-14)

    def test_cut_is_inclusive_at_a_third(self):
        """|k| = N/3 itself counts as tail with the rule off: the top third
        of the band 0 .. N/2 starts at ceil(N/3)."""
        c = np.zeros(7, complex)
        c[4] = 0.5
        assert observed_tail(c) == pytest.approx(1.0, rel=1e-14)

    def test_even_split(self):
        c = np.zeros(64 // 2 + 1, complex)
        for k in (1, 30):
            c[k] = 0.5
        assert observed_tail(c) == pytest.approx(0.5, rel=1e-14)

    def test_zero_spectrum(self):
        assert observed_tail(np.zeros(9, complex)) == 0.0

    def test_infinite_tail_is_nan_without_warning(self):
        c = np.zeros(9, complex)
        c[7] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(observed_tail(c))

    def test_standalone_observables_overflow_without_warning(self):
        """mass, l2, h3 and tail_fraction, each read from observe's record
        of a spectrum whose arithmetic overflows, are inf or NaN, unwarned."""
        big = np.zeros(9, complex)
        big[2] = 1e200
        top = np.zeros(9, complex)
        top[7] = 1e200
        huge_mean = np.zeros(9, complex)
        huge_mean[0] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = {name: spectral_fields(c) for name, c in
                   (("big", big), ("top", top), ("huge_mean", huge_mean))}
        _, l2, h3, tail = got["big"]
        assert l2 == h3 == math.inf and tail == 0.0
        _, l2, h3, tail = got["top"]
        assert l2 == h3 == math.inf and math.isnan(tail)
        assert got["huge_mean"][0] == math.inf

    def test_mean_mode_excluded_from_denominator(self):
        c = np.zeros(64 // 2 + 1, complex)
        c[0] = 100.0
        c[30] = 0.5
        assert observed_tail(c) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("rule", DEALIAS_RULES, ids=["off", "two_thirds"])
    def test_reads_only_rows_the_rule_keeps(self, rule):
        """On random even N, the rows the tail reads are among the rows
        dealias keeps; with the rule off, they are every k >= N/3. One
        observe call reads the stack of unit spectra, row k - 1 holding c_k = 1."""
        rng = np.random.default_rng(18)
        for n in 2 * rng.integers(2, 400, size=25):
            rows = n // 2 + 1
            kept = set(np.flatnonzero(dealias(np.ones(rows, complex), rule)).tolist())
            units = np.eye(rows, dtype=complex)[1:]
            tail = observe(units, 0.0, rule=rule).tail_fraction
            assert np.all((tail == 1.0) | (tail == 0.0)), n
            read = set((np.flatnonzero(tail == 1.0) + 1).tolist())
            assert read and read <= kept, n
            if rule == "off":
                assert read == {k for k in range(rows) if 3 * k >= n}, n
        with pytest.raises(TypeError):
            observe(units, 0.0, rule)  # rule is keyword-only

    def test_four_nodes_under_the_two_thirds_rule(self):
        """N = 4 keeps K = 1, so row 1 is the whole top third: any field with
        its non-mean power in row 1 is all tail."""
        c = np.array([0.0, -0.5j, 0.0])  # -sin x on 4 nodes
        assert observed_tail(c) == 0.0  # with the rule off, only row 2 is tail
        assert observed_tail(c, rule="two-thirds") == pytest.approx(1.0, rel=1e-14)


class TestDetectionThresholds:
    def test_defaults(self):
        th = DetectionThresholds()
        assert th.slope_limit == 100.0 and th.tail_limit == 0.1

    def test_nonpositive_slope_limit_rejected(self):
        with pytest.raises(ValueError, match="slope_limit"):
            DetectionThresholds(slope_limit=0.0)

    def test_infinite_slope_limit_rejected(self):
        """An infinite limit would never fire."""
        with pytest.raises(ValueError, match=r"^slope_limit: must be finite and > 0, got inf$"):
            DetectionThresholds(slope_limit=math.inf)

    def test_tail_limit_must_be_a_fraction(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match="tail_limit"):
                DetectionThresholds(tail_limit=bad)

    @pytest.mark.parametrize("key, rule", [
        ("slope_limit", "must be finite and > 0"), ("tail_limit", r"must lie in \(0, 1\)")])
    def test_non_number_worded_as_range_rule(self, key, rule, bad_reals):
        for bad in bad_reals:
            with pytest.raises(ValueError, match=f"^{key}: {rule}, got {re.escape(repr(bad))}$"):
                DetectionThresholds(**{key: bad})

    def test_limits_stored_as_floats(self):
        """As in SimParams, anything float() takes is stored as a float."""
        th = DetectionThresholds(slope_limit="5", tail_limit=np.float32(0.25))
        assert type(th.slope_limit) is float and th.slope_limit == 5.0
        assert type(th.tail_limit) is float and th.tail_limit == 0.25


class TestCheckBlowup:
    def test_healthy_record_passes(self):
        assert check_blowup(record(), DetectionThresholds()) is None

    def test_steep_slope_detected(self):
        assert check_blowup(record(min_slope=-150.0), DetectionThresholds()) == "slope_threshold"

    def test_threshold_compares_absolute_value(self):
        assert check_blowup(record(min_slope=150.0), DetectionThresholds()) == "slope_threshold"

    def test_slope_at_the_limit_does_not_trigger(self):
        assert check_blowup(record(min_slope=-100.0), DetectionThresholds()) is None

    def test_spectral_tail_detected(self):
        assert check_blowup(record(tail_fraction=0.2), DetectionThresholds()) == "resolution_loss"

    def test_non_finite_detected(self):
        assert check_blowup(record(l2=float("inf")), DetectionThresholds()) == "non_finite"

    def test_non_finite_outranks_slope(self):
        cause = check_blowup(record(mass=float("nan"), min_slope=-150.0, tail_fraction=0.2),
                             DetectionThresholds())
        assert cause == "non_finite"

    def test_slope_outranks_tail(self):
        cause = check_blowup(record(min_slope=-150.0, tail_fraction=0.2), DetectionThresholds())
        assert cause == "slope_threshold"

    def test_without_thresholds_only_non_finite_fires(self):
        assert check_blowup(record(min_slope=-150.0, tail_fraction=0.2), None) is None
        assert check_blowup(record(h3=float("inf")), None) == "non_finite"


class TestObserve:
    def test_record_of_one_state(self):
        """The extrema are those of the nodal values, the integral starts at
        0.0 without prev, and a nodal pair handed in gives the same record."""
        s = forward_dft(-np.sin(nodes(64)))
        rec = observe(s, 0.25)
        assert isinstance(rec, DiagnosticsRecord)
        assert rec.t == 0.25
        u = inverse_dft(s)
        assert (rec.max_u, rec.min_u) == (np.max(u), np.min(u))
        assert rec.min_slope == pytest.approx(-1.0, rel=1e-12)
        assert rec.bkm_integral == 0.0
        assert observe(s, 0.25, nodal=nodal_pair(s)) == rec

    def test_bkm_carried_as_given(self):
        """Over an empty panel, t = prev.t, prev's integral is carried unchanged."""
        s = forward_dft(-np.sin(nodes(64)))
        for bkm in (0.0, 0.1 + 0.2, 1e300, math.inf):
            prev = observe(s, 0.1)._replace(bkm_integral=bkm)
            assert observe(s, 0.1, prev=prev).bkm_integral == bkm

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_field_is_flagged_not_raised(self, bad):
        x = nodes(16)
        s = forward_dft(-np.sin(x))
        s[3] = bad
        rec = observe(s, 0.5)
        assert rec.t == 0.5 and check_blowup(rec, DetectionThresholds()) == "non_finite"

    def test_record_field_order_matches_csv_header(self):
        assert DiagnosticsRecord._fields == (
            "t", "mass", "l2", "max_u", "min_u",
            "min_slope", "max_slope", "bkm_integral", "h3", "tail_fraction",
        )
        assert tuple(record()) == (0.5, 0.0, 1.0, 1.0, -1.0, -1.0, 1.0, 0.5, 2.0, 1e-6)


class TestSobolevTrends:
    def test_h3_grows_while_inviscid_steepening(self):
        """Shock formation pumps energy into high modes monotonically."""
        x = nodes(128)
        p = SimParams(gamma=0.0)
        s = forward_dft(-np.sin(x))
        h3 = []
        for step in range(400):
            s = rk4_step(s, p, 2e-3)
            if step % 50 == 49:
                h3.append(observe(s, (step + 1) * 2e-3).h3)
        assert all(b > a for a, b in zip(h3, h3[1:])), h3

    def test_h3_decays_under_strong_dissipation(self):
        x = nodes(64)
        p = SimParams(gamma=1.0, alpha=2.0)
        s = forward_dft(-np.sin(x))
        h3 = []
        for step in range(500):
            s = rk4_step(s, p, 4e-4)
            if step % 50 == 49:
                h3.append(observe(s, (step + 1) * 4e-4).h3)
        assert all(b < a for a, b in zip(h3, h3[1:])), h3
