"""Scalar diagnostics, the blow-up monitors, and detection policy."""

import math

import numpy as np
import pytest

from fracburgers.diagnostics import (
    DetectionThresholds,
    DiagnosticsRecord,
    SingularTimeError,
    bkm_accumulate,
    check_blowup,
    extrema,
    l2_norm,
    mass,
    observe,
    predicted_blowup_time,
    slope_closed_form,
    sobolev_norm,
    tail_fraction,
)
from fracburgers.dynamics import SimParams, rk4_step
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
                min_slope=-1.0, bkm_integral=0.5, h3=2.0, tail_fraction=1e-6)
    base.update(overrides)
    return DiagnosticsRecord(**base)


class TestMass:
    def test_neg_sine_is_massless(self):
        x = nodes(64)
        assert abs(mass(forward_dft(-np.sin(x)))) <= 1e-15

    def test_constant_three(self):
        assert mass(forward_dft(np.full(16, 3.0))) == pytest.approx(6.0 * np.pi, rel=1e-15)

    def test_shifted_cosine(self):
        x = nodes(32)
        got = mass(forward_dft(1.0 + np.cos(x)))
        assert got == pytest.approx(2.0 * np.pi, rel=1e-14)


class TestL2Norm:
    def test_neg_sine_example(self):
        x = nodes(64)
        got = l2_norm(forward_dft(-np.sin(x)))
        assert got == pytest.approx(np.sqrt(np.pi), rel=1e-14)

    def test_constant(self):
        got = l2_norm(forward_dft(np.full(16, 2.0)))
        assert got == pytest.approx(2.0 * np.sqrt(2.0 * np.pi), rel=1e-14)

    def test_zero_field(self):
        assert l2_norm(forward_dft(np.zeros(8))) == 0.0


class TestSobolevNorm:
    def test_order_zero_equals_l2(self):
        rng = np.random.default_rng(31)
        s = forward_dft(rng.standard_normal(32))
        assert sobolev_norm(s, 0.0) == pytest.approx(l2_norm(s), rel=1e-14)

    def test_sine_order_one(self):
        """||sin||_{H^1}^2 = 2 pi (1 + 1) * (1/4 + 1/4)."""
        x = nodes(64)
        got = sobolev_norm(forward_dft(np.sin(x)), 1.0)
        assert got == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-14)

    def test_higher_order_weights_high_modes(self):
        x = nodes(64)
        low = forward_dft(np.sin(x))
        high = forward_dft(np.sin(8.0 * x))
        assert sobolev_norm(high, 3.0) > 100.0 * sobolev_norm(low, 3.0)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            sobolev_norm(forward_dft(np.zeros(8)), -1.0)

    def test_nan_order_rejected(self):
        x = nodes(8)
        with pytest.raises(ValueError, match="order must be >= 0"):
            sobolev_norm(forward_dft(np.cos(x)), np.nan)

    def test_infinite_order_rejected(self):
        x = nodes(8)
        with pytest.raises(ValueError, match="order must be >= 0 and finite"):
            sobolev_norm(forward_dft(np.cos(x)), np.inf)


class TestExtrema:
    def test_neg_sine_hits_unit_bounds(self):
        x = nodes(64)
        assert extrema(-np.sin(x)) == (1.0, -1.0)

    def test_constant(self):
        assert extrema(np.full(8, 3.5)) == (3.5, 3.5)


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


class TestPredictedBlowupTime:
    def test_neg_sine_breaks_at_one(self):
        got = predicted_blowup_time(initial_slope(-np.sin(nodes(64))))
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_amplitude_scales_inversely(self):
        got = predicted_blowup_time(initial_slope(-2.0 * np.sin(nodes(64))))
        assert got == pytest.approx(0.5, rel=1e-12)

    def test_constant_never_breaks(self):
        assert predicted_blowup_time(initial_slope(np.full(16, 2.0))) is None


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
        with pytest.raises(SingularTimeError, match="singular"):
            slope_closed_form(-2.0, 0.5)

    def test_continuation_branch_past_the_pole(self):
        assert slope_closed_form(-2.0, 0.7) == pytest.approx(5.0, rel=1e-12)


class TestBkmAccumulate:
    def test_trapezoid_panel(self):
        assert bkm_accumulate(0.0, 2.0, 4.0, 0.5) == pytest.approx(1.5, rel=1e-15)

    def test_zero_norms_add_nothing(self):
        assert bkm_accumulate(5.0, 0.0, 0.0, 1.0) == 5.0

    def test_accumulates_on_previous_total(self):
        assert bkm_accumulate(1.0, 1.0, 3.0, 0.5) == pytest.approx(2.0, rel=1e-15)


class TestTailFraction:
    def test_resolved_field_has_empty_tail(self):
        c = np.zeros(64 // 2 + 1, complex)
        c[1] = 0.5
        assert tail_fraction(c) == 0.0

    def test_unresolved_field_is_all_tail(self):
        c = np.zeros(64 // 2 + 1, complex)
        c[30] = 0.5
        assert tail_fraction(c) == pytest.approx(1.0, rel=1e-14)

    def test_cut_is_inclusive_at_a_third(self):
        """|k| = N/3 itself counts as tail with the rule off: the top third
        of the band 0 .. N/2 starts at ceil(N/3)."""
        c = np.zeros(7, complex)
        c[4] = 0.5
        assert tail_fraction(c) == pytest.approx(1.0, rel=1e-14)

    def test_even_split(self):
        c = np.zeros(64 // 2 + 1, complex)
        for k in (1, 30):
            c[k] = 0.5
        assert tail_fraction(c) == pytest.approx(0.5, rel=1e-14)

    def test_zero_spectrum(self):
        assert tail_fraction(np.zeros(9, complex)) == 0.0

    def test_mean_mode_excluded_from_denominator(self):
        c = np.zeros(64 // 2 + 1, complex)
        c[0] = 100.0
        c[30] = 0.5
        assert tail_fraction(c) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("rule", DEALIAS_RULES)
    def test_reads_only_rows_the_rule_keeps(self, rule):
        """On random even N, the rows the tail reads are among the rows
        dealias keeps; with the rule off, they are every k >= N/3."""
        rng = np.random.default_rng(18)
        for n in 2 * rng.integers(2, 400, size=25):
            rows = n // 2 + 1
            kept = set(np.flatnonzero(dealias(np.ones(rows, complex), rule)).tolist())
            read = set()
            for k in range(1, rows):
                c = np.zeros(rows, complex)
                c[k] = 1.0
                if tail_fraction(c, rule=rule) == 1.0:
                    read.add(k)
                else:
                    assert tail_fraction(c, rule=rule) == 0.0
            assert read and read <= kept, n
            if rule == "off":
                assert read == {k for k in range(rows) if 3 * k >= n}, n
            assert observe(c, 0.0, rule=rule).tail_fraction == tail_fraction(c, rule=rule)
        with pytest.raises(TypeError):
            tail_fraction(c, rule)  # rule is keyword-only

    def test_four_nodes_under_the_two_thirds_rule(self):
        """N = 4 keeps K = 1, so row 1 is the whole top third: any field with
        its non-mean power in row 1 is all tail."""
        c = np.array([0.0, -0.5j, 0.0])  # -sin x on 4 nodes
        assert tail_fraction(c) == 0.0  # with the rule off, only row 2 is tail
        assert tail_fraction(c, rule="two_thirds") == pytest.approx(1.0, rel=1e-14)


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
    def test_non_number_worded_as_range_rule(self, key, rule):
        with pytest.raises(ValueError, match=f"^{key}: {rule}, got 'fast'$"):
            DetectionThresholds(**{key: "fast"})

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


class TestObserve:
    def test_matches_standalone_diagnostics(self):
        x = nodes(64)
        s = forward_dft(-np.sin(x))
        rec = observe(s, 0.25)
        assert isinstance(rec, DiagnosticsRecord)
        assert rec.t == 0.25
        assert rec.mass == mass(s)
        assert rec.l2 == l2_norm(s)
        assert (rec.max_u, rec.min_u) == extrema(inverse_dft(s))
        assert rec.min_slope == pytest.approx(-1.0, rel=1e-12)
        assert rec.h3 == sobolev_norm(s, 3.0)
        assert rec.bkm_integral == 0.0
        assert observe(s, 0.25, nodal=nodal_pair(s)) == rec

    def test_bkm_carried_as_given(self):
        """The run loop sums the integral; observe records it unchanged."""
        s = forward_dft(-np.sin(nodes(64)))
        for bkm in (0.0, 0.1 + 0.2, 1e300, math.inf):
            assert observe(s, 0.1, bkm=bkm).bkm_integral == bkm

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_field_is_flagged_not_raised(self, bad):
        x = nodes(16)
        s = forward_dft(-np.sin(x))
        s[3] = bad
        rec = observe(s, 0.5)
        assert rec.t == 0.5 and check_blowup(rec, DetectionThresholds()) == "non_finite"

    def test_record_field_order_matches_csv_header(self):
        assert DiagnosticsRecord.FIELDS == (
            "t", "mass", "l2", "max_u", "min_u",
            "min_slope", "bkm_integral", "h3", "tail_fraction",
        )
        assert record().astuple() == (0.5, 0.0, 1.0, 1.0, -1.0, -1.0, 0.5, 2.0, 1e-6)


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
