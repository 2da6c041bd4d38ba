import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varns import (
    PERIODIC,
    TRUNCATED,
    ExponentRangeError,
    ExponentField,
    GridMismatchError,
    GridSpec,
    conjugate_exponent,
    log_holder_constants,
    make_exponent,
    radial_distance,
    scale_exponent,
)
from varns.exponents import _pair_distance, _point_matrix

TWO_PI = 2.0 * np.pi


def line(extent=20.0, res=256, origin=-10.0):
    return GridSpec(1, (extent,), (res,), TRUNCATED, (origin,))


def cube(extent=8.0, res=16):
    return GridSpec(3, (extent,) * 3, (res,) * 3, TRUNCATED, (-extent / 2,) * 3)


class TestFamilies:
    def test_constant_family(self):
        g = line()
        p = make_exponent("constant", (3.0,), g)
        assert np.all(p.samples == 3.0)
        assert p.p_minus == 3.0
        assert p.p_plus == 3.0
        assert p.p_infinity == 3.0

    def test_radial_log_center_value(self):
        # odd resolution puts a cell midpoint exactly at the box center
        g = line(res=1001)
        p = make_exponent("radial-log", (3.0, 1.0), g)
        center = p.samples[500]
        assert abs(center - 4.0) < 1e-12
        assert p.p_plus == center
        assert p.p_minus >= 3.0
        assert p.p_infinity == 3.0

    def test_radial_log_decays_toward_limit(self):
        g = line(extent=200.0, res=4001, origin=-100.0)
        p = make_exponent("radial-log", (2.0, 0.7), g)
        edge = p.samples[0]
        assert p.p_plus - 2.0 == pytest.approx(0.7, abs=1e-12)
        assert edge - 2.0 < 0.7 / np.log(np.e + 99.0)

    def test_gaussian_bump_extrema_match_direct_formula(self):
        g = cube()
        p = make_exponent("gaussian-bump", (2.5, 1.0, 1.3), g)
        r = radial_distance(g)
        direct = 2.5 + 1.0 * np.exp(-((r / 1.3) ** 2))
        assert np.array_equal(p.samples, direct)
        assert p.p_minus == direct.min()
        assert p.p_plus == direct.max()
        assert p.p_infinity == 2.5

    def test_sinusoidal_bounds(self):
        g = line()
        p = make_exponent("sinusoidal", (3.0, 0.5), g)
        assert 2.5 - 1e-12 <= p.p_minus
        assert p.p_plus <= 3.5 + 1e-12
        assert p.p_infinity is None

    def test_custom_samples_roundtrip(self):
        g = line(res=64)
        vals = 2.0 + 0.3 * np.cos(np.linspace(0, 5, 64))
        p = ExponentField(vals, g, p_infinity=2.0)
        assert np.array_equal(p.samples, vals)
        assert p.p_infinity == 2.0

    def test_infimum_at_one_rejected(self):
        g = line()
        with pytest.raises(ExponentRangeError):
            make_exponent("constant", (1.0,), g)
        with pytest.raises(ExponentRangeError):
            make_exponent("gaussian-bump", (1.0, 0.5), g)
        with pytest.raises(ExponentRangeError):
            ExponentField(np.full(g.shape, 0.9), g)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            make_exponent("no-such-family", (2.0,), line())

    def test_nonfinite_samples_rejected(self):
        g = line(res=8)
        vals = np.full(8, 2.0)
        vals[3] = np.nan
        with pytest.raises(ExponentRangeError):
            ExponentField(vals, g)


class TestConstruction:
    """The constructor checks its samples and derives both bounds."""

    def test_bounds_come_from_the_samples(self):
        g = line(res=64)
        vals = 2.0 + 0.3 * np.sin(np.linspace(0, 5, 64))
        p = ExponentField(vals, g)
        assert (p.p_minus, p.p_plus) == (vals.min(), vals.max())
        assert p.p_infinity is None
        with pytest.raises(TypeError):
            ExponentField(vals, g, None, 1.5, 2.5)
        with pytest.raises(TypeError):
            ExponentField(vals, g, p_minus=1.5)

    @pytest.mark.parametrize("bad", [0.5, 1.0, np.nan, np.inf, -np.inf])
    def test_samples_outside_the_open_range_are_refused(self, bad):
        g = line(res=8)
        vals = np.full(8, 2.0)
        vals[5] = bad
        with pytest.raises(ExponentRangeError):
            ExponentField(vals, g)

    def test_wrong_shape_is_refused(self):
        with pytest.raises(GridMismatchError):
            ExponentField(np.full(7, 2.0), line(res=8))

    @pytest.mark.parametrize("p_inf", [0.5, 1.0, np.nan, np.inf, -np.inf])
    def test_limit_outside_the_open_range_is_refused(self, p_inf):
        with pytest.raises(ExponentRangeError):
            ExponentField(np.full(8, 2.0), line(res=8), p_inf)


class TestDerivedExponents:
    def test_conjugate_of_two_is_two(self):
        p = make_exponent("constant", (2.0,), line())
        pc = conjugate_exponent(p)
        assert np.all(pc.samples == 2.0)
        assert pc.p_infinity == 2.0

    def test_conjugate_of_three(self):
        p = make_exponent("constant", (3.0,), line())
        pc = conjugate_exponent(p)
        assert np.max(np.abs(pc.samples - 1.5)) < 1e-15

    def test_conjugate_is_an_involution(self):
        p = make_exponent("radial-log", (3.0, 1.0), line(res=301))
        back = conjugate_exponent(conjugate_exponent(p))
        assert np.max(np.abs(back.samples - p.samples)) < 1e-13
        assert abs(back.p_infinity - p.p_infinity) < 1e-14

    def test_conjugate_limit_exponent(self):
        p = make_exponent("radial-log", (3.0, 0.5), line())
        assert conjugate_exponent(p).p_infinity == pytest.approx(1.5, abs=1e-15)

    def test_scale_by_half(self):
        p = make_exponent("constant", (4.0,), line())
        half = scale_exponent(p, 0.5)
        assert np.all(half.samples == 2.0)
        assert half.p_infinity == 2.0

    def test_scale_below_one_rejected(self):
        p = make_exponent("constant", (2.0,), line())
        with pytest.raises(ExponentRangeError):
            scale_exponent(p, 0.5)
        with pytest.raises(ValueError):
            scale_exponent(p, -1.0)


class TestLogRegularity:
    def test_constant_exponent_has_zero_constants(self):
        p = make_exponent("constant", (2.5,), line(res=40))
        rep = log_holder_constants(p)
        assert rep.c_local == 0.0
        assert rep.c_decay == 0.0
        assert rep.pair_count == 40 * 39 // 2

    def test_exhaustive_scan_matches_direct_recomputation(self):
        g = line(extent=10.0, res=48, origin=-5.0)
        p = make_exponent("radial-log", (2.0, 0.8), g)
        rep = log_holder_constants(p, pair_budget=48 * 47 // 2)
        x = g.axis_coords(0)
        recip = 1.0 / p.samples
        worst = 0.0
        for i in range(48):
            for j in range(i + 1, 48):
                d = abs(x[i] - x[j])
                worst = max(worst, abs(recip[i] - recip[j]) * np.log(np.e + 1.0 / d))
        assert rep.c_local == pytest.approx(worst, rel=1e-12)
        r = np.abs(x)
        decay = np.max(np.abs(recip - 0.5) * np.log(np.e + r))
        assert rep.c_decay == pytest.approx(decay, rel=1e-12)

    def test_no_limit_exponent_no_decay_constant(self):
        p = make_exponent("sinusoidal", (3.0, 0.4), line(res=32))
        assert log_holder_constants(p).c_decay is None

    def test_budget_is_monotone_for_sampled_scans(self):
        g = line(res=128)
        vals = 2.0 + (g.axis_coords(0) > 0.0)  # step exponent
        p = ExponentField(vals, g)
        full = 128 * 127 // 2
        c_small = log_holder_constants(p, pair_budget=1000, seed=3).c_local
        c_big = log_holder_constants(p, pair_budget=5000, seed=3).c_local
        c_all = log_holder_constants(p, pair_budget=full, seed=3).c_local
        assert c_small <= c_big <= c_all
        assert c_big > 0.0

    def test_jump_constant_grows_under_refinement(self):
        res_sweep = (64, 256, 1024)
        seen = []
        for res in res_sweep:
            g = GridSpec(1, (1.0,), (res,), TRUNCATED, (0.0,))
            vals = np.where(g.axis_coords(0) < 0.5, 2.0, 3.0)
            p = ExponentField(vals, g)
            rep = log_holder_constants(p, pair_budget=res * (res - 1) // 2)
            seen.append(rep.c_local)
        assert seen[0] < seen[1] < seen[2]
        # the adjacent straddling pair dominates: |1/2-1/3| log(e + 1/h)
        h = 1.0 / 1024
        assert seen[2] == pytest.approx((1.0 / 6.0) * np.log(np.e + 1.0 / h), rel=1e-12)

    def test_flagging_thresholds(self):
        g = GridSpec(1, (1.0,), (1024,), TRUNCATED, (0.0,))
        vals = np.where(g.axis_coords(0) < 0.5, 2.0, 3.0)
        rep = log_holder_constants(ExponentField(vals, g))
        assert 0.5 < rep.c_local <= 50.0
        assert rep.c_decay is None

    def test_smooth_family_not_flagged(self):
        p = make_exponent("radial-log", (2.0, 0.5), line(res=200))
        rep = log_holder_constants(p)
        assert rep.c_local <= 50.0
        assert rep.c_decay <= 50.0

    def test_bad_budget_rejected(self):
        p = make_exponent("constant", (2.0,), line(res=8))
        with pytest.raises(ValueError):
            log_holder_constants(p, pair_budget=0)

    def test_periodic_distance_is_the_minimum_image(self):
        g = GridSpec(3, (TWO_PI, 3.0, 5.0), (4, 6, 5), PERIODIC)
        pts = _point_matrix(g)
        ii, jj = np.triu_indices(len(pts), k=1)
        got = _pair_distance(g, pts[ii], pts[jj])
        want = [np.sqrt(sum(min(abs(a - b + k * ext) for k in (-1, 0, 1)) ** 2
                            for a, b, ext in zip(pts[i], pts[j], g.extents)))
                for i, j in zip(ii, jj)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        # a wrapped pair is closer than its straight-line separation
        assert np.any(got < np.sqrt(np.sum((pts[ii] - pts[jj]) ** 2, axis=1)))


class TestCustomSamples:
    def test_samples_round_trip(self):
        g = cube(res=4)
        p = make_exponent("radial-log", (2.5, 0.5), g)
        back = make_exponent("custom-samples", tuple(p.samples.ravel()), g)
        assert np.array_equal(back.samples, p.samples)
        assert back.grid == g
        assert back.p_infinity is None

    def test_wrong_sample_count_is_refused(self):
        g = line(res=8)
        with pytest.raises(ValueError, match=r"one value per grid point \(8\), got 7"):
            make_exponent("custom-samples", (2.0,) * 7, g)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=1.05, max_value=5.0),
    b=st.floats(min_value=0.0, max_value=3.0),
)
def test_bounds_bracket_every_sample(a, b):
    g = GridSpec(1, (4.0,), (64,), TRUNCATED, (-2.0,))
    p = make_exponent("gaussian-bump", (a, b, 0.9), g)
    assert p.p_minus <= p.samples.min()
    assert p.samples.max() <= p.p_plus
    assert p.p_minus > 1.0


@settings(max_examples=25, deadline=None)
@given(
    pinf=st.floats(min_value=1.2, max_value=6.0),
    amp=st.floats(min_value=0.01, max_value=2.0),
)
def test_conjugate_involution_property(pinf, amp):
    g = GridSpec(1, (10.0,), (48,), TRUNCATED, (-5.0,))
    p = make_exponent("radial-log", (pinf, amp), g)
    back = conjugate_exponent(conjugate_exponent(p))
    assert np.max(np.abs(back.samples - p.samples)) < 1e-13
