import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from varns import (
    PERIODIC,
    TRUNCATED,
    ForceDivergenceError,
    GridSpec,
    PicardBlowupError,
    ScalarField,
    SmallnessError,
    SolverConfig,
    SpaceTimeField,
    TensorField,
    TimeGrid,
    VectorField,
    bilinear_term,
    classical_norm,
    duhamel_force,
    estimate_bilinear_constant,
    exponent_from_samples,
    heat_convolve,
    initial_term,
    luxemburg_norm,
    make_exponent,
    make_workspace,
    mixed_norm,
    norm_E_thm1,
    norm_E_thm2,
    picard_solve,
    relative_divergence,
    smallness_check,
)
from varns import mild_solver
from varns.mild_solver import regime_norm

TWO_PI = 2.0 * np.pi


def torus(res=16):
    return GridSpec(3, (TWO_PI,) * 3, (res,) * 3, PERIODIC)


def single_mode_u0(grid, amplitude=1.0):
    """Divergence-free single plane wave: e = (0, 1, 0), k = (1, 0, 0)."""
    X = grid.coords()
    wave = amplitude * np.broadcast_to(np.cos(X[0]), grid.shape).copy()
    return VectorField.from_arrays([np.zeros(grid.shape), wave, np.zeros(grid.shape)], grid)


def two_mode_u0(grid, amplitude=1.0):
    """Two transverse waves whose self-transport does not cancel."""
    X = grid.coords()
    a = amplitude * np.broadcast_to(np.cos(X[0]), grid.shape).copy()
    b = amplitude * np.broadcast_to(np.cos(X[1]), grid.shape).copy()
    return VectorField.from_arrays([np.zeros(grid.shape), a, b], grid)


def thm1_config(grid, tg, amplitude=1.0, force=None, **kw):
    p = make_exponent("radial-log", (2.5, 0.5), grid)
    defaults = dict(regime="thm1", p=p, q=None, frak_p=3.0, tol_fixedpoint=1e-9,
                    max_iters=20, tol_norm=1e-8, u0=single_mode_u0(grid, amplitude),
                    force_spec=force, tg=tg)
    defaults.update(kw)
    return SolverConfig(**defaults)


def thm2_config(grid, tg, amplitude=0.05, q=10.0, force=None, **kw):
    pg = GridSpec(1, (tg.T,), (tg.steps,), TRUNCATED, (0.0,))
    p = exponent_from_samples(3.0 + np.sin(pg.axis_coords(0)) ** 2, pg)
    defaults = dict(regime="thm2", p=p, q=q, frak_p=3.0, tol_fixedpoint=1e-9,
                    max_iters=20, tol_norm=1e-8, u0=single_mode_u0(grid, amplitude),
                    force_spec=force, tg=tg)
    defaults.update(kw)
    return SolverConfig(**defaults)


def modulated_force(grid, tg, amplitude=0.05):
    """Two transverse waves with different time modulations: divergence-free."""
    X = grid.coords()
    a = np.broadcast_to(np.cos(X[0]), grid.shape)
    b = np.broadcast_to(np.sin(X[0] + X[1]), grid.shape)
    data = np.zeros((tg.steps + 1, 3) + grid.shape)
    for i, t in enumerate(tg.nodes):
        data[i, 1] = amplitude * np.cos(3.0 * t) * a
        data[i, 2] = amplitude * (1.0 + 0.5 * np.sin(5.0 * t)) * b
    return SpaceTimeField(data, tg, grid)


def prefix_reference(cfg):
    """Each ``thm2`` rung's data size rebuilt the plain way: ``e0`` from
    ``initial_term``, and its frames ``0..k`` measured by ``norm_E_thm2`` on
    ``[0, t_k]`` against the first ``k`` exponent samples."""
    tg = cfg.tg
    e0 = initial_term(cfg.u0, cfg.force_spec, tg, make_workspace(cfg.u0.grid))
    ref = []
    for k in range(tg.steps, 1, -1):
        T_k = tg.nodes[k]
        p_k = exponent_from_samples(cfg.p.samples[:k], GridSpec(1, (T_k,), (k,), TRUNCATED))
        head = SpaceTimeField(e0.data[:k + 1], TimeGrid(T_k, k), cfg.u0.grid)
        ref.append((T_k, norm_E_thm2(head, p_k, cfg.q, cfg.tol_norm).value))
    return ref


def check_ladder(v, cfg, c_b):
    """The verdict's rungs against :func:`prefix_reference`: horizons at the
    nodes, deltas to 1e-12, row 0 the gate itself, the assumed threshold,
    and the passing rows one tail that starts at ``admissible_T``."""
    ref = prefix_reference(cfg)
    assert [row[0] for row in v.ladder] == [T_k for T_k, _ in ref]
    for (T_cand, delta, thr, passed), (_, want) in zip(v.ladder, ref):
        assert delta == pytest.approx(want, rel=1e-12, abs=0.0)
        c_cand = c_b * (1.0 + T_cand) / (1.0 + cfg.tg.T)
        assert thr == pytest.approx(1.0 / (4.0 * c_cand), rel=1e-12)
        assert passed == (want < thr)
    assert v.ladder[0][1] == v.delta
    assert v.ladder[0][3] == v.passed
    passed = [row[3] for row in v.ladder]
    tail = passed.index(True) if True in passed else len(passed)
    assert all(passed[tail:])
    assert v.admissible_T == (v.ladder[tail][0] if tail < len(passed) else None)


def taylor_green_history(grid, tg):
    X = grid.coords()
    u = (np.cos(X[0]) * np.sin(X[1]) * np.sin(X[2]),
         np.sin(X[0]) * np.cos(X[1]) * np.sin(X[2]),
         -2.0 * np.sin(X[0]) * np.sin(X[1]) * np.cos(X[2]))
    data = np.empty((tg.steps + 1, 3) + grid.shape)
    for i, t in enumerate(tg.nodes):
        m = 1.0 + 0.5 * np.cos(1.3 * t)
        for c in range(3):
            data[i, c] = m * u[c]
    return SpaceTimeField(data, tg, grid)


NAN = float("nan")


class TestConfigValidation:
    @pytest.mark.parametrize("build", [
        lambda: TimeGrid(NAN, 4),
        lambda: TimeGrid(np.inf, 4),
        lambda: GridSpec(1, (NAN,), (4,)),
        lambda: GridSpec(1, (1.0,), (4,), TRUNCATED, (np.inf,)),
        lambda: thm2_config(torus(8), TimeGrid(1.0, 8), frak_p=NAN),
        lambda: thm2_config(torus(8), TimeGrid(1.0, 8), tol_fixedpoint=NAN),
        lambda: thm2_config(torus(8), TimeGrid(1.0, 8), tol_norm=NAN),
        lambda: thm2_config(torus(8), TimeGrid(1.0, 8), max_iters=NAN),
        lambda: thm2_config(torus(8), TimeGrid(1.0, 8), q=NAN),
        lambda: smallness_check(thm2_config(torus(8), TimeGrid(1.0, 8)), NAN),
        lambda: smallness_check(thm1_config(torus(8), TimeGrid(1.0, 8)), np.inf),
        lambda: picard_solve(thm2_config(torus(8), TimeGrid(1.0, 8)), c_b=NAN,
                             override_smallness=True),
    ], ids=["T-nan", "T-inf", "extent-nan", "origin-inf", "frak_p-nan",
            "tol_fixedpoint-nan", "tol_norm-nan", "max_iters-nan", "q-nan", "gate-c_b-nan",
            "gate-c_b-inf", "solve-c_b-nan"])
    def test_non_finite_input_is_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_bad_regime(self):
        g = torus(8)
        with pytest.raises(ValueError):
            thm1_config(g, TimeGrid(1.0, 8), regime="thm3")

    def test_flow_grid_must_be_a_torus(self):
        box = GridSpec(3, (1.0,) * 3, (8,) * 3, TRUNCATED, (0.0,) * 3)
        X = box.coords()
        u0 = VectorField.from_arrays([np.zeros(box.shape)] * 3, box)
        p = make_exponent("constant", (2.0,), box)
        with pytest.raises(ValueError):
            SolverConfig("thm1", p, None, 3.0, 1e-9, 20, 1e-8, u0, None, TimeGrid(1.0, 8))

    def test_initial_field_is_projected(self):
        g = torus(8)
        X = g.coords()
        slope = np.broadcast_to(np.cos(X[0] + X[1]), g.shape).copy()
        keep = np.broadcast_to(np.cos(X[0]), g.shape).copy()
        dirty = VectorField.from_arrays([slope, slope + keep, np.zeros(g.shape)], g)
        cfg = thm1_config(g, TimeGrid(1.0, 8), u0=dirty)
        ws = make_workspace(g)
        assert relative_divergence(cfg.u0, ws) < 1e-12
        # the transverse wave survives the projection
        assert np.max(np.abs(cfg.u0.components[1].values - keep)) < 1e-12

    def test_projection_leaves_the_callers_data_untouched(self):
        g = torus(8)
        values = np.random.default_rng(6).standard_normal((3,) + g.shape)
        before = values.copy()
        cfg = thm1_config(g, TimeGrid(1.0, 8), u0=VectorField(values, g))
        assert relative_divergence(cfg.u0, make_workspace(g)) < 1e-12
        assert np.array_equal(values, before)

    def test_temporal_exponent_grid_is_checked(self):
        g = torus(8)
        tg = TimeGrid(1.0, 16)
        wrong = GridSpec(1, (1.0,), (8,), TRUNCATED, (0.0,))
        p = make_exponent("constant", (3.5,), wrong)
        with pytest.raises(ValueError, match="per time step"):
            thm2_config(g, tg, p=p)

    def test_temporal_exponent_must_stay_above_two(self):
        g = torus(8)
        tg = TimeGrid(1.0, 16)
        pg = GridSpec(1, (1.0,), (16,), TRUNCATED, (0.0,))
        p = make_exponent("constant", (2.0 - 1e-9,), pg)
        with pytest.raises(ValueError, match="p > 2"):
            thm2_config(g, tg, p=p)

    def test_spatial_exponent_must_exceed_three(self):
        g = torus(8)
        with pytest.raises(ValueError, match="q > 3"):
            thm2_config(g, TimeGrid(1.0, 16), q=3.0)

    def test_scaling_condition_enforced(self):
        g = torus(8)
        # 2/p + 3/q = 2/2.1 + 3/30 > 1 even though p > 2 and q > 3
        tg = TimeGrid(1.0, 16)
        pg = GridSpec(1, (1.0,), (16,), TRUNCATED, (0.0,))
        p = make_exponent("constant", (2.1,), pg)
        with pytest.raises(ValueError, match="scaling"):
            thm2_config(g, tg, p=p, q=30.0)

    def test_force_type_checked(self):
        g = torus(8)
        with pytest.raises(TypeError):
            thm1_config(g, TimeGrid(1.0, 8), force=np.zeros((3, 3)))

    def test_oversized_solve_fails_before_allocating(self, monkeypatch):
        g, tg = torus(8), TimeGrid(1.0, 8)
        stack = 8 * (8 + 1) * 3 * 8**3  # one float64 (steps+1, 3, 8, 8, 8) stack
        spectra = 16 * (8 + 1) * 3 * 8 * 8 * 5  # complex (steps+1, 3, 8, 8, 5) spectra
        for force, need in ((None, stack), (modulated_force(g, tg), stack + spectra)):
            monkeypatch.setattr(mild_solver, "_physical_ram", lambda: need - 1)
            with pytest.raises(ValueError, match=r"\(8, 8, 8\) grid with 8 time steps") as info:
                thm1_config(g, tg, force=force)
            assert f"{need} bytes" in str(info.value)
            assert f"{need - 1} bytes of RAM" in str(info.value)
            monkeypatch.setattr(mild_solver, "_physical_ram", lambda: need)
            assert thm1_config(g, tg, force=force).tg == tg


class TestInitialTerm:
    def test_zero_data_gives_zero(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(1.0, 8)
        u0 = VectorField.from_arrays([np.zeros(g.shape)] * 3, g)
        out = initial_term(u0, None, tg, ws)
        assert np.max(np.abs(out.data)) == 0.0

    def test_single_mode_decays_at_the_heat_rate(self):
        g = torus()
        ws = make_workspace(g)
        tg = TimeGrid(1.0, 16)
        u0 = single_mode_u0(g)
        out = initial_term(u0, None, tg, ws)
        for i, t in enumerate(tg.nodes):
            expected = np.exp(-t) * u0.components[1].values
            assert np.max(np.abs(out.data[i, 1] - expected)) < 1e-13
            assert np.max(np.abs(out.data[i, 0])) < 1e-15
            assert np.max(np.abs(out.data[i, 2])) < 1e-15

    def test_constant_tensor_force_contributes_nothing(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(1.0, 8)
        u0 = single_mode_u0(g)
        const = TensorField.from_arrays(
            [[np.full(g.shape, 0.7) for _ in range(3)] for _ in range(3)], g)
        with_force = initial_term(u0, const, tg, ws)
        without = initial_term(u0, None, tg, ws)
        assert np.max(np.abs(with_force.data - without.data)) < 1e-14

    def test_sampled_force_reduces_to_plain_accumulation(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 10)
        u0 = VectorField.from_arrays([np.zeros(g.shape)] * 3, g)
        X = g.coords()
        wave = np.broadcast_to(np.cos(X[0]), g.shape).copy()
        data = np.zeros((tg.steps + 1, 3) + g.shape)
        for i, t in enumerate(tg.nodes):
            data[i, 1] = np.cos(2.0 * t) * wave  # e perp k keeps it solenoidal
        force = SpaceTimeField(data, tg, g)
        out = initial_term(u0, force, tg, ws)
        ref = duhamel_force(force, tg, ws)
        assert np.max(np.abs(out.data - ref.data)) < 1e-14

    def test_data_and_sampled_force_add_up(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 10)
        u0 = two_mode_u0(g, 0.7)
        force = modulated_force(g, tg, amplitude=0.9)
        out = initial_term(u0, force, tg, ws)
        duh = duhamel_force(force, tg, ws)
        for i, t in enumerate(tg.nodes):
            want = heat_convolve(u0, t, ws).values + duh.data[i]
            assert np.max(np.abs(out.data[i] - want)) < 1e-14

    def test_divergent_sampled_force_rejected(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 8)
        u0 = VectorField.from_arrays([np.zeros(g.shape)] * 3, g)
        X = g.coords()
        wave = np.broadcast_to(np.cos(X[0]), g.shape).copy()
        data = np.zeros((tg.steps + 1, 3) + g.shape)
        data[:, 0] = wave  # gradient direction: div != 0
        with pytest.raises(ForceDivergenceError):
            initial_term(u0, SpaceTimeField(data, tg, g), tg, ws)


class TestBilinearTerm:
    def test_zero_history(self):
        g = torus(8)
        tg = TimeGrid(1.0, 8)
        out = bilinear_term(SpaceTimeField.zeros(tg, g), make_workspace(g))
        assert np.max(np.abs(out.data)) == 0.0

    def test_uniform_translation_has_no_transport(self):
        # u constant in space makes u (x) u constant, so its divergence
        # vanishes and the whole term drops
        g = torus(8)
        tg = TimeGrid(1.0, 8)
        data = np.zeros((tg.steps + 1, 3) + g.shape)
        for i, t in enumerate(tg.nodes):
            data[i, 0] = 1.0 + t
            data[i, 2] = -0.5 * t
        out = bilinear_term(SpaceTimeField(data, tg, g), make_workspace(g))
        assert np.max(np.abs(out.data)) < 1e-13

    def test_output_is_divergence_free(self):
        g = torus()
        tg = TimeGrid(0.5, 12)
        ws = make_workspace(g)
        u = taylor_green_history(g, tg)
        out = bilinear_term(u, ws)
        for i in range(1, tg.steps + 1):
            assert relative_divergence(out.frame(i), ws) < 1e-12

    def test_starts_from_zero(self):
        g = torus(8)
        tg = TimeGrid(0.5, 8)
        u = taylor_green_history(g, tg)
        out = bilinear_term(u, make_workspace(g))
        assert np.max(np.abs(out.data[0])) == 0.0

    def test_refinement_consistency(self):
        # doubling space and time moves the answer by O(dt^2): the coarse
        # run must sit within 1e-3 of the restricted fine run
        gc, gf = torus(16), torus(32)
        tgc, tgf = TimeGrid(0.5, 40), TimeGrid(0.5, 80)
        Bc = bilinear_term(taylor_green_history(gc, tgc), make_workspace(gc))
        Bf = bilinear_term(taylor_green_history(gf, tgf), make_workspace(gf))
        restricted = SpaceTimeField(Bf.data[::2, :, ::2, ::2, ::2].copy(), tgc, gc)
        p = make_exponent("constant", (2.5,), gc)
        num = norm_E_thm1(SpaceTimeField(restricted.data - Bc.data, tgc, gc), p).value
        den = norm_E_thm1(Bc, p).value
        assert num / den < 1e-3


class TestEnergyNorms:
    def test_time_constant_history_reduces_to_the_mixed_norm(self):
        g = torus()
        tg = TimeGrid(1.0, 8)
        u0 = single_mode_u0(g, 0.8)
        data = np.broadcast_to(
            np.stack([c.values for c in u0.components]),
            (tg.steps + 1, 3) + g.shape).copy()
        u = SpaceTimeField(data, tg, g)
        p = make_exponent("radial-log", (2.5, 0.5), g)
        direct = mixed_norm(u0.magnitude(), p, 3.0)
        assert norm_E_thm1(u, p).value == direct.value

    def test_sup_trace_ignores_node_order(self):
        g = torus(8)
        tg = TimeGrid(1.0, 12)
        rng = np.random.default_rng(3)
        data = rng.standard_normal((tg.steps + 1, 3) + g.shape)
        p = make_exponent("constant", (2.5,), g)
        a = norm_E_thm1(SpaceTimeField(data, tg, g), p).value
        perm = rng.permutation(tg.steps + 1)
        b = norm_E_thm1(SpaceTimeField(data[perm].copy(), tg, g), p).value
        assert a == b

    def test_separable_history_factorizes(self):
        g = torus(8)
        tg = TimeGrid(2.0, 24)
        X = g.coords()
        wave = np.broadcast_to(np.cos(X[0]), g.shape).copy()
        a = 1.0 + 0.5 * np.sin(3.0 * tg.nodes)
        data = np.zeros((tg.steps + 1, 3) + g.shape)
        for i in range(tg.steps + 1):
            data[i, 1] = a[i] * wave
        u = SpaceTimeField(data, tg, g)
        q = 4.0
        pg = GridSpec(1, (2.0,), (24,), TRUNCATED, (0.0,))
        p = exponent_from_samples(3.0 + 0.4 * np.cos(pg.axis_coords(0)), pg)
        tol = 1e-10
        got = norm_E_thm2(u, p, q, tol).value
        wq = classical_norm(ScalarField(wave, g), q)
        cells = 0.5 * (np.abs(a[:-1]) + np.abs(a[1:]))
        expected = wq * luxemburg_norm(ScalarField(cells, pg), p, tol).value
        assert got == pytest.approx(expected, abs=3 * tol * max(1.0, wq) + 1e-12)

    def test_constant_exponent_trace_matches_direct_quadrature(self):
        g = torus(8)
        tg = TimeGrid(1.0, 32)
        rng = np.random.default_rng(9)
        data = rng.standard_normal((tg.steps + 1, 3) + g.shape)
        u = SpaceTimeField(data, tg, g)
        q, p0 = 5.0, 4.0
        pg = GridSpec(1, (1.0,), (32,), TRUNCATED, (0.0,))
        p = make_exponent("constant", (p0,), pg)
        got = norm_E_thm2(u, p, q, 1e-10).value
        w = g.cell_volume
        nodes = np.array([
            (w * np.sum(np.sqrt(np.sum(data[i] ** 2, axis=0)) ** q)) ** (1 / q)
            for i in range(tg.steps + 1)])
        cells = 0.5 * (nodes[:-1] + nodes[1:])
        expected = (pg.cell_volume * np.sum(cells ** p0)) ** (1.0 / p0)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_zero_history_has_zero_norm(self):
        g = torus(8)
        tg = TimeGrid(1.0, 8)
        u = SpaceTimeField.zeros(tg, g)
        p = make_exponent("constant", (2.5,), g)
        assert norm_E_thm1(u, p).value == 0.0


class TestOperatorConstant:
    def test_positive_and_finite(self):
        g = torus(12)
        tg = TimeGrid(1.0, 16)
        p = make_exponent("radial-log", (2.5, 0.5), g)
        c = estimate_bilinear_constant("thm1", p, None, tg, make_workspace(g))
        assert 0.0 < c < 10.0

    def test_more_trials_can_only_raise_the_estimate(self):
        g = torus(12)
        tg = TimeGrid(1.0, 16)
        p = make_exponent("radial-log", (2.5, 0.5), g)
        ws = make_workspace(g)
        c1 = estimate_bilinear_constant("thm1", p, None, tg, ws, trials=1, seed=4)
        c3 = estimate_bilinear_constant("thm1", p, None, tg, ws, trials=3, seed=4)
        c6 = estimate_bilinear_constant("thm1", p, None, tg, ws, trials=6, seed=4)
        assert c1 <= c3 <= c6

    def test_stable_under_refinement(self):
        tgc, tgf = TimeGrid(1.0, 16), TimeGrid(1.0, 32)
        gc, gf = torus(12), torus(24)
        pc = make_exponent("radial-log", (2.5, 0.5), gc)
        pf = make_exponent("radial-log", (2.5, 0.5), gf)
        cc = estimate_bilinear_constant("thm1", pc, None, tgc, make_workspace(gc), seed=1)
        cf = estimate_bilinear_constant("thm1", pf, None, tgf, make_workspace(gf), seed=1)
        assert abs(cf - cc) <= 0.15 * cc

    def test_bad_trial_count_rejected(self):
        g = torus(8)
        p = make_exponent("constant", (2.5,), g)
        with pytest.raises(ValueError):
            estimate_bilinear_constant("thm1", p, None, TimeGrid(1.0, 8),
                                       make_workspace(g), trials=0)


class TestSmallnessGate:
    def test_zero_data_passes(self):
        g = torus(8)
        cfg = thm1_config(g, TimeGrid(1.0, 8), amplitude=0.0)
        v = smallness_check(cfg, c_b=0.01)
        assert v.delta == 0.0
        assert v.passed
        assert v.threshold == pytest.approx(25.0)

    def test_data_size_is_linear_in_the_amplitude(self):
        g = torus()
        tg = TimeGrid(1.0, 16)
        d1 = smallness_check(thm1_config(g, tg, amplitude=0.3), 0.01).delta
        d2 = smallness_check(thm1_config(g, tg, amplitude=0.6), 0.01).delta
        assert d2 == pytest.approx(2.0 * d1, rel=1e-6)

    def test_gate_flips_with_the_constant(self):
        g = torus()
        cfg = thm1_config(g, TimeGrid(1.0, 16), amplitude=1.0)
        delta = smallness_check(cfg, 1e-6).delta
        assert smallness_check(cfg, 1e-6).passed
        tight = 1.0 / (2.0 * delta)  # threshold becomes delta / 2
        assert not smallness_check(cfg, tight).passed

    def test_bad_constant_rejected(self):
        g = torus(8)
        cfg = thm1_config(g, TimeGrid(1.0, 8))
        with pytest.raises(ValueError):
            smallness_check(cfg, 0.0)

    def test_horizon_ladder_shape(self):
        g = torus(8)
        tg = TimeGrid(1.0, 32)
        cfg = thm2_config(g, tg, amplitude=0.05)
        v = smallness_check(cfg, 0.05)
        horizons = [row[0] for row in v.ladder]
        assert horizons == list(tg.nodes[32:1:-1])
        assert horizons[0] == 1.0
        check_ladder(v, cfg, 0.05)

    def test_small_amplitude_admissible_at_the_full_horizon(self):
        g = torus(8)
        cfg = thm2_config(g, TimeGrid(1.0, 32), amplitude=0.05)
        v = smallness_check(cfg, 0.05)
        assert v.passed
        assert v.admissible_T == pytest.approx(1.0)

    def test_admissible_horizon_shrinks_with_the_amplitude(self):
        g = torus(8)
        tg = TimeGrid(1.0, 32)
        c_b = 0.05
        seen = []
        for amp in (0.05, 0.5, 5.0, 50.0, 500.0):
            v = smallness_check(thm2_config(g, tg, amplitude=amp), c_b)
            seen.append(0.0 if v.admissible_T is None else v.admissible_T)
        assert all(a >= b for a, b in zip(seen, seen[1:]))
        assert seen[0] > seen[-1]

    def test_ladder_matches_physical_prefixes(self):
        g = torus(8)
        tg = TimeGrid(1.0, 16)
        cfg = thm2_config(g, tg, amplitude=0.3, force=modulated_force(g, tg))
        ref = prefix_reference(cfg)
        # put the verdict between rungs 7 and 8, away from every rung's threshold
        scaled = [d * (1.0 + T_k) / (1.0 + tg.T) for T_k, d in ref]
        assert scaled[7] > scaled[8]
        c_b = 1.0 / (4.0 * np.sqrt(scaled[7] * scaled[8]))
        v = smallness_check(cfg, c_b)
        assert len(v.ladder) == tg.steps - 1
        check_ladder(v, cfg, c_b)
        assert v.admissible_T == v.ladder[8][0]

    def test_ladder_does_not_depend_on_how_the_exponent_is_stored(self):
        # a closed form and its raw samples are the same p(t): both are
        # restricted to each rung, never re-evaluated on a shorter box
        g = torus(8)
        tg = TimeGrid(1.0, 16)
        pg = GridSpec(1, (tg.T,), (tg.steps,), TRUNCATED, (0.0,))
        closed = make_exponent("sinusoidal", (3.5, 0.5), pg)
        raw = exponent_from_samples(closed.samples, closed.grid)
        force = modulated_force(g, tg)
        ladders = [smallness_check(thm2_config(g, tg, amplitude=0.3, force=force, p=p),
                                   1.0).ladder
                   for p in (closed, raw)]
        assert ladders[0] == ladders[1]

    def test_divergent_sampled_force_fails_the_thm2_gate(self):
        g = torus(8)
        tg = TimeGrid(1.0, 16)
        X = g.coords()
        data = modulated_force(g, tg).data
        data[:, 0] += 0.01 * np.broadcast_to(np.cos(X[0]), g.shape)  # div != 0
        cfg = thm2_config(g, tg, amplitude=0.3, force=SpaceTimeField(data, tg, g))
        with pytest.raises(ForceDivergenceError):
            smallness_check(cfg, 0.05)

    def test_ladder_accepts_a_sampled_force(self):
        g = torus(8)
        tg = TimeGrid(1.0, 16)
        X = g.coords()
        wave = np.broadcast_to(np.cos(X[0]), g.shape).copy()
        data = np.zeros((tg.steps + 1, 3) + g.shape)
        for i, t in enumerate(tg.nodes):
            data[i, 1] = 0.01 * np.cos(t) * wave
        cfg = thm2_config(g, tg, amplitude=0.02, force=SpaceTimeField(data, tg, g))
        v = smallness_check(cfg, 0.05)
        assert len(v.ladder) == tg.steps - 1
        assert v.passed
        check_ladder(v, cfg, 0.05)


class TestFixedPoint:
    def test_zero_data_yields_the_zero_solution(self):
        g = torus(8)
        cfg = thm1_config(g, TimeGrid(1.0, 8), amplitude=0.0)
        res = picard_solve(cfg, c_b=0.01)
        assert res.converged
        assert res.residual == 0.0
        assert np.max(np.abs(res.final.data)) == 0.0
        assert res.contraction_estimate is None

    def test_disabled_transport_reproduces_the_heat_flow(self):
        g = torus()
        tg = TimeGrid(1.0, 16)
        cfg = thm1_config(g, tg, amplitude=0.7)
        res = picard_solve(cfg, c_b=0.01, disable_bilinear=True)
        assert res.converged
        ws = make_workspace(g)
        worst = 0.0
        for i, t in enumerate(tg.nodes):
            ref = heat_convolve(cfg.u0, t, ws)
            for m in range(3):
                worst = max(worst, np.max(np.abs(
                    res.final.data[i, m] - ref.components[m].values)))
        assert worst < 1e-12
        gap = SpaceTimeField(res.final.data - initial_term(cfg.u0, None, tg, ws).data,
                             tg, g)
        assert regime_norm(gap, cfg).value < 1e-10

    def test_thread_count_leaves_the_solution_bit_identical(self, monkeypatch):
        g = torus()
        tg = TimeGrid(1.0, 16)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VARNS_THREADS", threads)
            assert make_workspace(g).workers == int(threads)
            cfg = thm1_config(g, tg, u0=two_mode_u0(g, 0.5))
            runs.append(picard_solve(cfg, c_b=0.05))
        one, two = runs
        assert one.converged and len(one.increments) > 1
        assert one.final.data.tobytes() == two.final.data.tobytes()
        assert one.iterates_norms == two.iterates_norms
        assert one.increments == two.increments

    def test_small_data_run_contracts(self):
        g = torus()
        tg = TimeGrid(1.0, 16)
        cfg = thm1_config(g, tg, u0=two_mode_u0(g, 1.0))
        res = picard_solve(cfg, seed=0)
        v = res.smallness
        assert v.passed
        assert res.converged
        assert len(res.iterates_norms) <= 13
        assert res.residual <= cfg.tol_fixedpoint
        assert res.contraction_estimate is not None
        assert res.contraction_estimate < 1.0
        assert res.contraction_estimate <= 4.0 * res.c_b_estimate * v.delta + 0.15
        assert res.iterates_norms[-1] <= 2.0 * v.delta + 3.0 * cfg.tol_norm
        assert res.divergence_defect < 1e-10

    def test_temporal_regime_run(self):
        g = torus()
        tg = TimeGrid(1.0, 32)
        cfg = thm2_config(g, tg, amplitude=0.05)
        res = picard_solve(cfg, seed=0)
        assert res.converged
        assert res.residual <= 1e-6
        assert res.smallness.admissible_T == pytest.approx(1.0)
        assert res.divergence_defect < 1e-10

    def test_oversized_data_is_refused(self):
        g = torus()
        cfg = thm1_config(g, TimeGrid(1.0, 16), amplitude=1.0)
        with pytest.raises(SmallnessError):
            picard_solve(cfg, c_b=100.0)

    def test_override_runs_past_the_gate(self):
        g = torus(8)
        cfg = thm1_config(g, TimeGrid(1.0, 8), amplitude=1.0, max_iters=3)
        res = picard_solve(cfg, c_b=100.0, override_smallness=True)
        assert not res.smallness.passed
        assert len(res.increments) >= 1

    def test_explosive_data_fails_loudly(self):
        # each iterate squares the size of the last, so the values overflow
        # within the allowed iterates and the run must abort, not drift
        from varns import BisectionError
        g = torus(8)
        cfg = thm1_config(g, TimeGrid(1.0, 8), u0=two_mode_u0(g, 1e20), max_iters=8)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises((BisectionError, PicardBlowupError)):
                picard_solve(cfg, c_b=1e-2, override_smallness=True)

    def test_nonfinite_iterate_is_caught(self, monkeypatch):
        import varns.mild_solver as ms
        g = torus(8)
        tg = TimeGrid(1.0, 8)
        cfg = thm1_config(g, tg, u0=two_mode_u0(g, 0.5))

        transport = ms._transport_hat

        def poisoned(frame, ws):
            hat = transport(frame, ws)
            hat[0, 1, 0, 0] = np.nan
            return hat

        monkeypatch.setattr(ms, "_transport_hat", poisoned)
        with pytest.raises(PicardBlowupError, match="iterate 1 produced non-finite"):
            ms.picard_solve(cfg, c_b=1e-2)

    def test_runs_are_deterministic(self):
        g = torus(12)
        tg = TimeGrid(1.0, 12)
        a = picard_solve(thm1_config(g, tg, u0=two_mode_u0(g, 0.9)), seed=5)
        b = picard_solve(thm1_config(g, tg, u0=two_mode_u0(g, 0.9)), seed=5)
        assert a.iterates_norms == b.iterates_norms
        assert a.increments == b.increments
        assert a.residual == b.residual
        assert np.array_equal(a.final.data, b.final.data)

    def test_forced_run_converges(self):
        from varns.harness import antisymmetric_tensor_field
        g = torus()
        tg = TimeGrid(1.0, 16)
        force = antisymmetric_tensor_field(g, seed=2, amplitude=0.05)
        cfg = thm1_config(g, tg, u0=two_mode_u0(g, 0.3), force=force)
        res = picard_solve(cfg, seed=0)
        assert res.converged
        assert res.residual <= 1e-6
        assert res.divergence_defect < 1e-10


def stacked_picard(cfg, c_b):
    """The iteration written with whole stacks: ``e0`` from ``initial_term``,
    then ``e0 - bilinear_term(u)`` per iterate, every norm on a stack."""
    ws = make_workspace(cfg.u0.grid)
    e0 = initial_term(cfg.u0, cfg.force_spec, cfg.tg, ws)
    assert regime_norm(e0, cfg).value < 1.0 / (4.0 * c_b)
    u, norms, increments = e0, [regime_norm(e0, cfg).value], []
    for _ in range(cfg.max_iters):
        nxt = e0 - bilinear_term(u, ws)
        increments.append(regime_norm(nxt - u, cfg).value)
        norms.append(regime_norm(nxt, cfg).value)
        u = nxt
        if increments[-1] <= cfg.tol_fixedpoint:
            break
    residual = regime_norm(e0 - bilinear_term(u, ws) - u, cfg).value
    return norms, increments, residual, u


class TestStreamedSweep:
    @pytest.mark.parametrize("case", ["thm1", "thm2-sampled-force", "thm2-tensor-force"])
    def test_matches_the_stacked_iteration(self, case):
        from varns.harness import antisymmetric_tensor_field
        g, tg = torus(12), TimeGrid(1.0, 16)
        # a Luxemburg value moves by about tol_norm / 8 when its input moves
        # by rounding, so the norms are compared at a tol_norm that makes a
        # 1e-12 comparison meaningful
        tol = 1e-12
        if case == "thm1":
            cfg = thm1_config(g, tg, u0=two_mode_u0(g, 0.5), tol_norm=tol)
        elif case == "thm2-sampled-force":
            cfg = thm2_config(g, tg, amplitude=0.3, force=modulated_force(g, tg, 0.5),
                              tol_norm=tol)
        else:
            force = antisymmetric_tensor_field(g, seed=2, amplitude=0.3)
            cfg = thm2_config(g, tg, amplitude=0.3, force=force, tol_norm=tol)
        c_b = 0.05
        norms, increments, residual, u = stacked_picard(cfg, c_b)
        res = picard_solve(cfg, c_b=c_b)
        assert res.converged and len(increments) > 3
        assert len(res.increments) == len(increments)
        np.testing.assert_allclose(res.iterates_norms, norms, rtol=1e-12, atol=0.0)
        delta = norms[0]
        np.testing.assert_allclose(res.increments, increments, rtol=0.0, atol=1e-13 * delta)
        assert abs(res.residual - residual) <= 1e-13 * delta
        scale = np.max(np.abs(u.data))
        assert np.max(np.abs(res.final.data - u.data)) <= 1e-14 * scale

    def test_holds_one_stack(self):
        import tracemalloc
        g, tg = torus(16), TimeGrid(1.0, 32)
        cfg = thm1_config(g, tg, u0=two_mode_u0(g, 0.5))
        stack = 8 * (tg.steps + 1) * 3 * 16**3
        tracemalloc.start()
        try:
            res = picard_solve(cfg)  # c_B estimated inside the solve
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 1.5 * stack

    def test_heat_limit_reproduces_e0_exactly(self):
        g, tg = torus(8), TimeGrid(0.5, 12)
        cfg = thm1_config(g, tg, u0=two_mode_u0(g, 0.6), force=modulated_force(g, tg, 0.4))
        res = picard_solve(cfg, c_b=0.01, disable_bilinear=True)
        e0 = initial_term(cfg.u0, cfg.force_spec, tg, make_workspace(g))
        assert res.final.data.tobytes() == e0.data.tobytes()
        assert res.iterates_norms == (res.smallness.delta,) * 2
        assert res.increments == (0.0,)
        assert res.residual == 0.0


class TestTransportPipeline:
    @pytest.mark.parametrize("force", [None, "sampled"])
    def test_prefetched_stream_matches_the_serial_spectra(self, force):
        # each node is handed out, then written over as a sweep does; each
        # stream runs twice, as picard_solve reuses its stream every sweep
        g, tg = torus(8), TimeGrid(1.0, 8)
        ws = make_workspace(g)
        force_at = None
        if force is not None:
            force_at = mild_solver._force_at_nodes(modulated_force(g, tg), tg, ws)

        def serial(u):
            b = [mild_solver._transport_hat(u[i], ws) for i in range(len(u))]
            return b, [-x if force_at is None else force_at(i) - x for i, x in enumerate(b)]

        u = taylor_green_history(g, tg).data.copy()
        with ThreadPoolExecutor(max_workers=1) as pool:
            streams = (mild_solver._transport_at_nodes(u, ws, pool),
                       mild_solver._iterate_at_nodes(u, force_at, ws, pool))
            for _ in range(2):
                for k, hat in enumerate(streams):
                    want = serial(u.copy())[k]
                    for i in range(tg.steps + 1):
                        assert hat(i).tobytes() == want[i].tobytes()
                        u[i] = 0.9 * u[i] + 0.1

    def test_helper_jobs_keep_the_callers_error_state(self, monkeypatch):
        # after each node is handed out, wait until the helper has started the
        # next one, so every node past 0 runs on the helper
        g, tg = torus(8), TimeGrid(1.0, 4)
        ws = make_workspace(g)
        u = taylor_green_history(g, tg).data
        transport = mild_solver._transport_hat
        seen = {}

        def recording(frame, ws):
            node = (frame.ctypes.data - frame.base.ctypes.data) // frame.nbytes
            seen[node] = (threading.get_ident(), np.geterr())
            return transport(frame, ws)

        monkeypatch.setattr(mild_solver, "_transport_hat", recording)
        with ThreadPoolExecutor(max_workers=1) as pool, np.errstate(all="raise"):
            hat = mild_solver._transport_at_nodes(u, ws, pool)
            for i in range(tg.steps + 1):
                hat(i)
                deadline = time.monotonic() + 60
                while len(seen) < min(i + 2, tg.steps + 1) and time.monotonic() < deadline:
                    time.sleep(1e-3)
        assert sorted(seen) == list(range(tg.steps + 1))
        assert all(seen[i][0] != threading.get_ident() for i in range(1, tg.steps + 1))
        assert all(set(err.values()) == {"raise"} for _, err in seen.values())

    @pytest.mark.parametrize("caller", ["bilinear_term", "estimate_bilinear_constant",
                                        "picard_solve"])
    def test_a_failing_transport_surfaces_and_the_helper_exits(self, monkeypatch, caller):
        g, tg = torus(8), TimeGrid(1.0, 8)
        ws = make_workspace(g)
        transport = mild_solver._transport_hat

        def failing(frame, ws):
            # frames are node views u[i] of a stack, so the offset names the node
            if frame.ctypes.data - frame.base.ctypes.data == 3 * frame.nbytes:
                raise ArithmeticError("transport failed at node 3")
            return transport(frame, ws)

        monkeypatch.setattr(mild_solver, "_transport_hat", failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="node 3"):
            if caller == "bilinear_term":
                mild_solver.bilinear_term(taylor_green_history(g, tg), ws)
            elif caller == "estimate_bilinear_constant":
                p = make_exponent("radial-log", (2.5, 0.5), g)
                mild_solver.estimate_bilinear_constant("thm1", p, None, tg, ws)
            else:
                mild_solver.picard_solve(thm1_config(g, tg, u0=two_mode_u0(g, 0.5)),
                                         c_b=1e-2)
        assert threading.active_count() == before

    def test_concurrent_solves_match_sequential_ones(self):
        # two solves and their two helpers on a short switch interval: more
        # threads than the two cores the suite is sized for
        g, tg = torus(8), TimeGrid(1.0, 16)
        cfgs = [thm1_config(g, tg, u0=two_mode_u0(g, 0.5)),
                thm2_config(g, tg, amplitude=0.3, force=modulated_force(g, tg, 0.5))]
        sequential = [picard_solve(cfg, seed=0) for cfg in cfgs]
        concurrent = [None, None]

        def solve(k):
            concurrent[k] = picard_solve(cfgs[k], seed=0)

        threads = [threading.Thread(target=solve, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(sequential, concurrent):
            assert a.converged and len(a.increments) > 2
            assert a.final.data.tobytes() == b.final.data.tobytes()
            assert a.iterates_norms == b.iterates_norms
            assert a.increments == b.increments
            assert a.residual == b.residual
            assert a.c_b_estimate == b.c_b_estimate
            assert a.smallness == b.smallness
