import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varns import (
    PERIODIC,
    TRUNCATED,
    BisectionError,
    ExponentField,
    ExponentRelationError,
    GridSpec,
    ScalarField,
    UndefinedRatioError,
    classical_norm,
    conjugate_exponent,
    conjugate_pairing_lower_bound,
    embedding_defect,
    holder_defect,
    holder_split,
    luxemburg_norm,
    make_exponent,
    mixed_norm,
    modular,
    unit_function_norm,
)
from varns.harness import generate_corpus

# Independently computed reference values (root finding and quadrature were
# rerun with a separate implementation before these tests were written).
UNIT_NORM_LINEAR_P_RES4096 = 1.263755447535679  # p(t) = 2 + t on [0, 2]
EXP_MODULAR_RES4096 = 0.9999841056049044        # |e^-|x||^2 on [-20, 20]
EXP_MODULAR_RES65536 = 0.9999999379118311
EXP_MODULAR_EXACT = 1.0 - np.exp(-40.0)


def line(extent, res, origin):
    return GridSpec(1, (extent,), (res,), TRUNCATED, (origin,))


def big_line(res=4096):
    return line(40.0, res, -20.0)


def indicator(grid, lo, hi):
    x = grid.axis_coords(0)
    return ScalarField(((x >= lo) & (x < hi)).astype(float), grid)


class TestModular:
    def test_zero_field(self):
        g = big_line(res=256)
        p = make_exponent("radial-log", (2.0, 0.5), g)
        assert modular(ScalarField(np.zeros(g.shape), g), p) == 0.0

    def test_indicator_integrates_to_its_discrete_measure(self):
        # |1_A|^p == 1_A pointwise, so the modular is the sampled measure
        # of A no matter which exponent field is used
        g = big_line()
        f = indicator(g, -3.0, 2.5)
        m = g.cell_volume * np.count_nonzero(f.values)
        for spec in (("constant", (2.0,)), ("radial-log", (2.0, 0.5)),
                     ("gaussian-bump", (1.7, 0.6))):
            p = make_exponent(spec[0], spec[1], g)
            assert modular(f, p) == pytest.approx(m, rel=1e-15)

    def test_exponential_profile_against_closed_form(self):
        g = big_line(res=65536)
        f = ScalarField(np.exp(-np.abs(g.axis_coords(0))), g)
        p = make_exponent("constant", (2.0,), g)
        value = modular(f, p)
        assert value == pytest.approx(EXP_MODULAR_RES65536, rel=1e-13)
        assert abs(value - EXP_MODULAR_EXACT) < 1e-6

    def test_exponential_profile_coarse_grid_quadrature_gap(self):
        # at 4096 cells the midpoint rule carries a visible bias from the
        # kink at zero; the discrete value is pinned, the continuum one not
        g = big_line()
        f = ScalarField(np.exp(-np.abs(g.axis_coords(0))), g)
        p = make_exponent("constant", (2.0,), g)
        value = modular(f, p)
        assert value == pytest.approx(EXP_MODULAR_RES4096, rel=1e-13)
        assert 1e-5 < abs(value - EXP_MODULAR_EXACT) < 3e-5


class TestLuxemburg:
    def test_zero_field_is_exactly_zero(self):
        g = big_line(res=128)
        p = make_exponent("constant", (2.0,), g)
        out = luxemburg_norm(ScalarField(np.zeros(g.shape), g), p)
        assert out.value == 0.0
        assert out.tolerance == 0.0
        assert out.kind == "luxemburg"

    def test_unit_measure_indicator_has_unit_norm(self):
        # [0, 4] with 8192 cells puts the set [0, 1] on exactly 2048 cells
        g = line(4.0, 8192, 0.0)
        f = indicator(g, 0.0, 1.0)
        assert g.cell_volume * np.count_nonzero(f.values) == 1.0
        for spec in (("constant", (3.0,)), ("radial-log", (2.0, 0.5))):
            p = make_exponent(spec[0], spec[1], g)
            out = luxemburg_norm(f, p)
            assert abs(out.value - 1.0) <= max(out.tolerance, 1e-12)

    def test_scaled_indicator_constant_exponent_closed_form(self):
        g = line(4.0, 8192, 0.0)
        f = ScalarField(3.7 * indicator(g, 0.0, 0.5).values, g)
        p = make_exponent("constant", (2.5,), g)
        out = luxemburg_norm(f, p)
        assert out.value == pytest.approx(3.7 * 0.5 ** (1 / 2.5), abs=4 * out.tolerance)

    def test_matches_quadrature_norm_for_constant_exponents(self):
        g = big_line(res=1024)
        rng = np.random.default_rng(11)
        f = ScalarField(rng.standard_normal(g.shape) * np.exp(-np.abs(g.axis_coords(0))), g)
        for q in (1.5, 2.0, 3.0, 6.0):
            p = make_exponent("constant", (q,), g)
            lux = luxemburg_norm(f, p, tol=1e-10).value
            assert lux == pytest.approx(classical_norm(f, q), rel=1e-8)

    def test_exponential_profile_norm_near_one(self):
        g = big_line(res=65536)
        f = ScalarField(np.exp(-np.abs(g.axis_coords(0))), g)
        p = make_exponent("constant", (2.0,), g)
        # modular at lambda = 1 is within 7e-8 of 1, so the norm is too
        assert abs(luxemburg_norm(f, p).value - 1.0) < 2e-6

    def test_reported_tolerance_is_honest(self):
        g = big_line(res=512)
        f = ScalarField(np.exp(-(g.axis_coords(0) ** 2)), g)
        p = make_exponent("radial-log", (2.0, 0.8), g)
        out = luxemburg_norm(f, p, tol=1e-9)
        assert 0.0 <= out.tolerance <= 1e-9
        # the modular at value +/- tolerance must straddle 1
        up = modular(ScalarField(f.values / (out.value + 2 * out.tolerance), g), p)
        dn = modular(ScalarField(f.values / (out.value - 2 * out.tolerance), g), p)
        assert up <= 1.0 <= dn

    def test_large_norms_are_certified(self):
        # the float spacing of these norms exceeds 1e-8, so only a relative
        # tolerance can be certified
        g = line(8.0, 256, -4.0)
        f = np.exp(-(g.axis_coords(0) ** 2))
        p = make_exponent("radial-log", (2.0, 0.5), g)
        unit = luxemburg_norm(ScalarField(f, g), p).value
        for c in (1e10, 1e12):
            out = luxemburg_norm(ScalarField(c * f, g), p)
            assert out.value == pytest.approx(c * unit, rel=1e-8)
            assert out.tolerance <= 1e-8 * out.value

    def test_bad_tolerance_rejected(self):
        g = big_line(res=64)
        p = make_exponent("constant", (2.0,), g)
        with pytest.raises(ValueError):
            luxemburg_norm(ScalarField(np.ones(g.shape), g), p, tol=0.0)

    def test_uncertifiable_tolerance_raises(self):
        # a relative width of 1e-17 is below the rounding of the log-modular
        # near this norm's logarithm, so no iterate can certify it
        g = line(4.0, 8192, 0.0)
        f = ScalarField(3.7 * indicator(g, 0.0, 0.5).values, g)
        p = make_exponent("constant", (2.5,), g)
        assert luxemburg_norm(f, p, tol=1e-15).value == pytest.approx(3.7 * 0.5 ** 0.4)
        with pytest.raises(BisectionError, match="relative tolerance 1e-17"):
            luxemburg_norm(f, p, tol=1e-17)


class TestMixedNorm:
    def test_indicator_tuned_so_integral_norm_dominates(self):
        # c 1_A with measure 1/16, p = 2, frak_p = 4: variable part is 1,
        # classical part is 2, the mixed norm must pick 2
        g = line(4.0, 8192, 0.0)
        f = ScalarField(4.0 * indicator(g, 0.0, 0.0625).values, g)
        p = make_exponent("constant", (2.0,), g)
        out = mixed_norm(f, p, 4.0)
        assert abs(luxemburg_norm(f, p).value - 1.0) <= 1e-7
        assert out.value == pytest.approx(2.0, abs=1e-12)
        assert out.kind == "mixed"

    def test_equals_max_of_the_two_parts(self):
        g = big_line(res=512)
        f = ScalarField(np.exp(-(g.axis_coords(0) ** 2) / 9.0), g)
        p = make_exponent("radial-log", (2.0, 0.5), g)
        out = mixed_norm(f, p, 3.0)
        parts = (luxemburg_norm(f, p).value, classical_norm(f, 3.0))
        assert out.value == max(parts)


class TestHolderDefect:
    def test_conjugate_constant_indicators(self):
        g = line(4.0, 8192, 0.0)
        f = indicator(g, 0.0, 1.0)
        p = make_exponent("constant", (2.0,), g)
        q = make_exponent("constant", (4.0,), g)
        ratio = holder_defect(f, f, p, q, q)
        assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_same_factor_twice_is_sharp_for_constant_exponents(self):
        g = big_line(res=2048)
        f = ScalarField(np.exp(-(g.axis_coords(0) ** 2) / 7.0), g)
        p0 = 1.8
        p = make_exponent("constant", (p0,), g)
        q = make_exponent("constant", (2 * p0,), g)
        assert holder_defect(f, f, p, q, q) == pytest.approx(1.0, abs=1e-6)

    def test_random_smooth_corpus_stays_under_four(self):
        g = big_line(res=256)
        rng = np.random.default_rng(5)
        x = g.axis_coords(0)
        envelope = np.exp(-(x ** 2) / 30.0)
        qs = (make_exponent("radial-log", (2.5, 0.5), g),
              make_exponent("gaussian-bump", (2.2, 0.7), g),
              make_exponent("constant", (3.0,), g))
        worst = 0.0
        for i in range(1000):
            f = ScalarField(envelope * rng.standard_normal(g.shape), g)
            gg = ScalarField(envelope * rng.standard_normal(g.shape), g)
            q, r = qs[i % 3], qs[(i + 1) % 3]
            p = holder_split(q, r)
            worst = max(worst, holder_defect(f, gg, p, q, r))
        assert worst <= 4.0

    def test_mismatched_triple_rejected(self):
        g = big_line(res=128)
        f = ScalarField(np.ones(g.shape), g)
        p = make_exponent("constant", (2.0,), g)
        q = make_exponent("constant", (3.0,), g)
        with pytest.raises(ExponentRelationError):
            holder_defect(f, f, p, q, q)

    def test_zero_factor_rejected(self):
        g = big_line(res=128)
        f = ScalarField(np.ones(g.shape), g)
        z = ScalarField(np.zeros(g.shape), g)
        p = make_exponent("constant", (2.0,), g)
        q = make_exponent("constant", (4.0,), g)
        with pytest.raises(UndefinedRatioError):
            holder_defect(f, z, p, q, q)
        assert issubclass(UndefinedRatioError, ZeroDivisionError)

    def test_split_solves_the_reciprocal_relation(self):
        g = big_line(res=128)
        q = make_exponent("radial-log", (2.5, 0.5), g)
        r = make_exponent("gaussian-bump", (2.2, 0.7), g)
        p = holder_split(q, r)
        resid = np.max(np.abs(1.0 / p.samples - 1.0 / q.samples - 1.0 / r.samples))
        assert resid < 1e-14


class TestPairingBound:
    def test_self_dual_exponent_recovers_the_norm(self):
        g = big_line(res=1024)
        f = ScalarField(np.exp(-(g.axis_coords(0) ** 2) / 11.0), g)
        p = make_exponent("constant", (2.0,), g)
        lux = luxemburg_norm(f, p).value
        got = conjugate_pairing_lower_bound(f, p)
        assert got == pytest.approx(lux, rel=1e-6)

    def test_unit_indicator_any_exponent(self):
        g = line(4.0, 8192, 0.0)
        f = indicator(g, 0.0, 1.0)
        p = make_exponent("radial-log", (2.0, 0.5), g)
        got = conjugate_pairing_lower_bound(f, p)
        assert got == pytest.approx(1.0, rel=1e-6)

    def test_sandwich_bounds_on_a_small_corpus(self):
        g = big_line(res=512)
        rng = np.random.default_rng(23)
        x = g.axis_coords(0)
        p_var = make_exponent("gaussian-bump", (1.9, 0.8), g)
        p_const = make_exponent("constant", (2.7,), g)
        for i in range(20):
            f = ScalarField(np.exp(-(x ** 2) / 25.0) * rng.standard_normal(g.shape), g)
            for p in (p_var, p_const):
                lux = luxemburg_norm(f, p).value
                got = conjugate_pairing_lower_bound(f, p, seed=i)
                assert got <= 2.0 * lux * (1 + 1e-9)
                if p is p_const:
                    assert got >= 0.95 * lux

    def test_zero_field_gives_zero(self):
        g = big_line(res=64)
        p = make_exponent("constant", (2.0,), g)
        assert conjugate_pairing_lower_bound(ScalarField(np.zeros(g.shape), g), p) == 0.0


class TestUnitFunctionNorm:
    def test_unit_horizon_is_exactly_one(self):
        g = line(1.0, 512, 0.0)
        p = make_exponent("radial-log", (2.5, 0.5), g)
        out = unit_function_norm(1.0, p)
        assert out.value == 1.0
        assert out.tolerance == 0.0

    def test_constant_exponent_closed_form(self):
        for T, q in ((2.0, 3.0), (0.25, 1.5), (8.0, 6.0)):
            g = line(T, 1024, 0.0)
            p = make_exponent("constant", (q,), g)
            out = unit_function_norm(T, p)
            assert out.value == pytest.approx(T ** (1.0 / q), abs=4 * out.tolerance + 1e-12)

    def test_linear_exponent_frozen_reference(self):
        g = line(2.0, 4096, 0.0)
        p = ExponentField(2.0 + g.axis_coords(0), g)
        out = unit_function_norm(2.0, p, tol=1e-9)
        assert out.value == pytest.approx(UNIT_NORM_LINEAR_P_RES4096, abs=1e-8)
        # bracketed by the constant-exponent ends
        assert 2.0 ** 0.25 <= out.value <= 2.0 ** 0.5

    def test_horizon_must_match_grid(self):
        g = line(2.0, 64, 0.0)
        p = make_exponent("constant", (2.0,), g)
        with pytest.raises(ValueError):
            unit_function_norm(3.0, p)


    @pytest.mark.parametrize("build, match", [
        (lambda: unit_function_norm(1.0, make_exponent(
            "constant", (2.0,), GridSpec(3, (1.0,) * 3, (4,) * 3, TRUNCATED))),
         "one-dimensional truncated grid"),
        (lambda: unit_function_norm(1.0, make_exponent(
            "constant", (2.0,), GridSpec(1, (1.0,), (8,), PERIODIC))),
         "one-dimensional truncated grid"),
    ], ids=["cube", "periodic-interval"])
    def test_exponent_off_an_interval_is_refused(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

class TestEmbeddingDefect:
    def test_equal_exponents_give_ratio_one(self):
        g = big_line(res=256)
        f = ScalarField(np.exp(-np.abs(g.axis_coords(0))), g)
        p = make_exponent("radial-log", (2.0, 0.5), g)
        assert embedding_defect(f, p, p) == 1.0

    def test_bounded_by_one_plus_measure(self):
        g = line(2.0, 512, 0.0)
        rng = np.random.default_rng(7)
        p1 = make_exponent("radial-log", (1.8, 0.4), g)
        p2 = make_exponent("constant", (4.0,), g)
        for _ in range(200):
            f = ScalarField(rng.standard_normal(g.shape), g)
            assert embedding_defect(f, p1, p2) <= 1.0 + 2.0

    def test_order_violation_rejected(self):
        g = big_line(res=128)
        f = ScalarField(np.ones(g.shape), g)
        p1 = make_exponent("constant", (3.0,), g)
        p2 = make_exponent("constant", (2.0,), g)
        with pytest.raises(ExponentRelationError):
            embedding_defect(f, p1, p2)

    def test_zero_field_rejected(self):
        g = big_line(res=128)
        z = ScalarField(np.zeros(g.shape), g)
        p = make_exponent("constant", (2.0,), g)
        with pytest.raises(UndefinedRatioError):
            embedding_defect(z, p, p)


# property checks on randomized fields


def _field_and_exponent(seed):
    g = GridSpec(1, (8.0,), (96,), TRUNCATED, (-4.0,))
    rng = np.random.default_rng(seed)
    x = g.axis_coords(0)
    f = ScalarField(np.exp(-(x ** 2) / 3.0) * rng.standard_normal(g.shape), g)
    p = make_exponent("gaussian-bump", (1.6 + 0.02 * (seed % 7), 0.9), g)
    return f, p


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       lam1=st.floats(min_value=0.1, max_value=10.0),
       factor=st.floats(min_value=1.01, max_value=10.0))
def test_modular_is_monotone_in_the_scale(seed, lam1, factor):
    f, p = _field_and_exponent(seed)
    lam2 = lam1 * factor
    g1 = modular(ScalarField(f.values / lam1, f.grid), p)
    g2 = modular(ScalarField(f.values / lam2, f.grid), p)
    assert g2 <= g1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_unit_ball_matches_unit_modular(seed):
    f, p = _field_and_exponent(seed)
    out = luxemburg_norm(f, p)
    if out.value == 0.0:
        return
    scaled = ScalarField(f.values / out.value, f.grid)
    # at the norm the modular sits at 1 up to the certified half-width
    assert modular(scaled, p) == pytest.approx(1.0, abs=1e-5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       c=st.floats(min_value=-50.0, max_value=50.0))
def test_homogeneity(seed, c):
    f, p = _field_and_exponent(seed)
    tol = 1e-8
    a = luxemburg_norm(ScalarField(c * f.values, f.grid), p, tol).value
    b = abs(c) * luxemburg_norm(f, p, tol).value
    assert abs(a - b) <= tol * (1.0 + abs(c))


def _assert_certified(f, p, out, tol):
    assert 0.0 < out.tolerance <= tol * out.value
    # the modular straddles 1 across the bracket, up to its own rounding
    up = modular(ScalarField(f.values / (out.value + out.tolerance), f.grid), p)
    dn = modular(ScalarField(f.values / (out.value - out.tolerance), f.grid), p)
    assert up <= 1.0 + 1e-12 and dn >= 1.0 - 1e-12


@settings(max_examples=25, deadline=None)
@given(power=st.floats(min_value=-12.0, max_value=12.0),
       q=st.floats(min_value=1.2, max_value=6.0),
       tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
def test_relative_tolerance_at_every_scale_constant_exponent(power, q, tol):
    f, _ = _field_and_exponent(3)
    f = ScalarField(10.0 ** power * f.values, f.grid)
    p = make_exponent("constant", (q,), f.grid)
    out = luxemburg_norm(f, p, tol)
    exact = classical_norm(f, q)
    assert abs(out.value - exact) <= tol * exact
    _assert_certified(f, p, out, tol)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       power=st.floats(min_value=-12.0, max_value=12.0),
       tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
def test_relative_tolerance_at_every_scale_variable_exponent(seed, power, tol):
    f, p = _field_and_exponent(seed)
    c = 10.0 ** power
    scaled = ScalarField(c * f.values, f.grid)
    out = luxemburg_norm(scaled, p, tol)
    unit = c * luxemburg_norm(f, p, tol).value
    assert abs(out.value - unit) <= tol * unit
    _assert_certified(scaled, p, out, tol)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       power=st.floats(min_value=-12.0, max_value=12.0),
       sign=st.sampled_from([-1.0, 1.0]))
def test_homogeneity_holds_to_rounding(seed, power, sign):
    # the value is the root itself, not a point of a bracket around it
    f, p = _field_and_exponent(seed)
    c = sign * 10.0 ** power
    a = luxemburg_norm(ScalarField(c * f.values, f.grid), p).value
    b = abs(c) * luxemburg_norm(f, p).value
    assert abs(a - b) <= 1e-13 * b


_CUBE = GridSpec(3, (24.0,) * 3, (16,) * 3, TRUNCATED, (-12.0,) * 3)
_CUBE_P = make_exponent("radial-log", (2.0, 0.5), _CUBE)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_rounding_level_input_changes_move_the_norm_by_rounding(seed):
    # campaign-like fields: one smooth-decaying level against a radial-log exponent
    rng = np.random.default_rng(seed)
    for f in generate_corpus("smooth-decaying", 5, _CUBE, seed):
        moved = f.values * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, _CUBE.shape))
        a = luxemburg_norm(f, _CUBE_P).value
        b = luxemburg_norm(ScalarField(moved, _CUBE), _CUBE_P).value
        assert abs(a - b) <= 1e-12 * a


@settings(max_examples=25, deadline=None)
@given(s1=st.integers(min_value=0, max_value=10_000),
       s2=st.integers(min_value=0, max_value=10_000))
def test_triangle_inequality(s1, s2):
    f, p = _field_and_exponent(s1)
    g, _ = _field_and_exponent(s2)
    tol = 1e-8
    lhs = luxemburg_norm(ScalarField(f.values + g.values, f.grid), p, tol).value
    rhs = luxemburg_norm(f, p, tol).value + luxemburg_norm(g, p, tol).value
    assert lhs <= rhs + 3 * tol


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_pairing_never_exceeds_twice_the_norm(seed):
    f, p = _field_and_exponent(seed)
    lux = luxemburg_norm(f, p).value
    assert conjugate_pairing_lower_bound(f, p, seed=seed) <= 2 * lux + 1e-9


def test_conjugate_pairing_uses_the_conjugate_exponent():
    # duality pairing with the canonical witness sits at the norm itself
    g = GridSpec(1, (8.0,), (256,), TRUNCATED, (-4.0,))
    x = g.axis_coords(0)
    f = ScalarField(np.exp(-(x ** 2)), g)
    p = make_exponent("radial-log", (2.0, 0.5), g)
    pc = conjugate_exponent(p)
    lux = luxemburg_norm(f, p).value
    witness = ScalarField((f.values / lux) ** (p.samples - 1.0), g)
    wnorm = luxemburg_norm(witness, pc).value
    pairing = g.cell_volume * np.sum(np.abs(f.values) * witness.values) / wnorm
    assert conjugate_pairing_lower_bound(f, p) >= pairing * (1 - 1e-12)
