import sys
import threading
import time

import numpy as np
import pytest

from varns import (
    PERIODIC,
    TRUNCATED,
    ExponentField,
    FieldNotFiniteError,
    ForceDivergenceError,
    GridMismatchError,
    GridSpec,
    PicardBlowupError,
    ScalarField,
    SeparableField,
    SmallnessError,
    SolverConfig,
    SpaceTimeField,
    TensorField,
    TimeGrid,
    VectorField,
    bilinear_term,
    classical_norm,
    duhamel_accumulate,
    estimate_bilinear_constant,
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
    tensor_divergence,
)
from varns import mild_solver
from varns.fields import _wave_argument
from varns.operators import SpectralWorkspace, _Lanes

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
    p = ExponentField(3.0 + np.sin(pg.axis_coords(0)) ** 2, pg)
    defaults = dict(regime="thm2", p=p, q=q, frak_p=3.0, tol_fixedpoint=1e-9,
                    max_iters=20, tol_norm=1e-8, u0=single_mode_u0(grid, amplitude),
                    force_spec=force, tg=tg)
    defaults.update(kw)
    return SolverConfig(**defaults)


def regime_norm(u, cfg):
    """``u``'s norm in the regime of ``cfg``."""
    if cfg.regime == "thm1":
        return norm_E_thm1(u, cfg.p, cfg.frak_p, cfg.tol_norm)
    return norm_E_thm2(u, cfg.p, cfg.q, cfg.tol_norm)


def wave_field(grid, *, along, arg):
    """The vector field ``arg(X)`` in component ``along``, zero elsewhere."""
    comps = [np.zeros(grid.shape) for _ in range(3)]
    comps[along] = np.broadcast_to(arg(grid.coords()), grid.shape).copy()
    return VectorField(comps, grid)


def modulated_force(grid, tg, amplitude=0.05):
    """Two transverse waves with different time modulations: divergence-free."""
    a = wave_field(grid, along=1, arg=lambda X: np.cos(X[0]))
    b = wave_field(grid, along=2, arg=lambda X: np.sin(X[0] + X[1]))
    return SeparableField(((a, amplitude * np.cos(3.0 * tg.nodes)),
                           (b, amplitude * (1.0 + 0.5 * np.sin(5.0 * tg.nodes)))), tg)


def steady_force(field, tg):
    """``field`` at every node: one mode with modulation 1."""
    return SeparableField(((field, np.ones(tg.steps + 1)),), tg)


def tensor_force(grid, tg, seed, amplitude):
    """The steady row divergence of a seeded antisymmetric tensor."""
    from varns.harness import antisymmetric_tensor_field
    tensor = antisymmetric_tensor_field(grid, seed=seed, amplitude=amplitude)
    return steady_force(tensor_divergence(tensor, make_workspace(grid)), tg)


def prefix_reference(cfg):
    """Each ``thm2`` rung's data size rebuilt the plain way: ``e0`` from
    ``initial_term``, and its frames ``0..k`` measured by ``norm_E_thm2`` on
    ``[0, t_k]`` against the first ``k`` exponent samples."""
    tg = cfg.tg
    e0 = initial_term(cfg.u0, cfg.force_spec, tg, make_workspace(cfg.u0.grid))
    ref = []
    for k in range(tg.steps, 1, -1):
        T_k = tg.nodes[k]
        p_k = ExponentField(cfg.p.samples[:k], GridSpec(1, (T_k,), (k,), TRUNCATED))
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


def divfree_history(grid, tg, rng):
    """A trial field of the operator constant, drawn as one stack: seeded
    transverse plane waves, each with a smooth time modulation, the second
    redrawn while its mode is parallel to the first's."""
    data = np.zeros((tg.steps + 1, grid.dimension) + grid.shape)
    first = None
    for _ in range(2):
        while True:
            while True:
                n = rng.integers(-2, 3, size=grid.dimension)
                if np.any(n != 0):
                    break
            e = rng.standard_normal(grid.dimension)
            nf = n.astype(float)
            e = e - nf * (nf @ e) / (nf @ nf)
            if np.linalg.norm(e) < 1e-8:
                e = np.cross(nf, [1.0, 0.3, 0.7])
            e = e / np.linalg.norm(e)
            amp = rng.uniform(0.3, 1.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            if first is None or np.any(np.cross(first, n)):
                break
        first = n
        wave = amp * np.cos(_wave_argument(n, phase, grid))
        omega = rng.uniform(0.0, 2.0 * np.pi)
        psi = rng.uniform(0.0, 2.0 * np.pi)
        mod = 1.0 + 0.5 * np.cos(omega * tg.nodes + psi)
        for i in range(tg.steps + 1):
            for m in range(grid.dimension):
                data[i, m] += mod[i] * (e[m] * wave)
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
        lambda: thm2_config(torus(8), TimeGrid(1.0, 8), force=SeparableField(
            ((wave_field(torus(8), along=1, arg=lambda X: np.cos(X[0])),
              [0.0, 0.1, 0.2, NAN, 0.4, 0.5, 0.6, 0.7, 0.8]),), TimeGrid(1.0, 8))),
    ], ids=["T-nan", "T-inf", "extent-nan", "origin-inf", "frak_p-nan",
            "tol_fixedpoint-nan", "tol_norm-nan", "max_iters-nan", "q-nan", "gate-c_b-nan",
            "gate-c_b-inf", "solve-c_b-nan", "sampled-force-nan"])
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
        # a force is a separable field: no bare array, tensor or sampled history
        g, tg = torus(8), TimeGrid(1.0, 8)
        for force in (np.zeros((3, 3)), TensorField(np.zeros((3, 3) + g.shape), g),
                      SpaceTimeField(np.zeros((tg.steps + 1, 3) + g.shape), tg, g)):
            with pytest.raises(TypeError, match="SeparableField"):
                thm1_config(g, tg, force=force)

    @pytest.mark.parametrize("case", ["no-modes", "grids-differ", "modulation-length",
                                      "modulation-inf", "field-nan", "field-type",
                                      "config-time-grid"])
    def test_a_malformed_separable_force_is_refused(self, case):
        # a NaN modulation sample is the sampled-force-nan case above
        g, tg = torus(8), TimeGrid(1.0, 8)
        wave = wave_field(g, along=1, arg=lambda X: np.cos(X[0]))
        ones = np.ones(tg.steps + 1)
        if case == "no-modes":
            with pytest.raises(ValueError, match="at least one mode"):
                SeparableField((), tg)
        elif case == "grids-differ":
            other = wave_field(torus(12), along=1, arg=lambda X: np.cos(X[0]))
            with pytest.raises(GridMismatchError):
                SeparableField(((wave, ones), (other, ones)), tg)
        elif case == "modulation-length":
            with pytest.raises(ValueError, match="9 node samples"):
                SeparableField(((wave, np.ones(tg.steps)),), tg)
        elif case == "modulation-inf":
            bad = ones.copy()
            bad[4] = np.inf
            with pytest.raises(FieldNotFiniteError, match="modulation"):
                SeparableField(((wave, ones), (wave, bad)), tg)
        elif case == "field-nan":
            # a field whose array was written to after it was checked
            values = wave.values.copy()
            field = VectorField(values, g)
            values[1, 2, 2, 2] = NAN
            with pytest.raises(FieldNotFiniteError, match="mode field"):
                SeparableField(((field, ones),), tg)
        elif case == "field-type":
            with pytest.raises(TypeError, match="VectorField"):
                SeparableField(((wave.values, ones),), tg)
        else:
            with pytest.raises(ValueError, match="time grid"):
                thm1_config(g, tg, force=steady_force(wave, TimeGrid(2.0, 8)))

    def test_separable_frames_sum_the_modes(self):
        g, tg = torus(8), TimeGrid(1.0, 8)
        force = modulated_force(g, tg, amplitude=0.3)
        (a, ma), (b, mb) = force.modes
        data = force.data
        assert data.shape == (tg.steps + 1, 3) + g.shape
        for i in range(tg.steps + 1):
            want = ma[i] * a.values + mb[i] * b.values
            assert np.array_equal(force.frame(i), want)
            assert np.array_equal(data[i], want)
        # the modulations are the force's own, not views of the caller's
        assert not ma.flags.writeable

    def test_oversized_solve_fails_before_allocating(self, monkeypatch):
        # a force's modes add nothing the size of a stack
        g, tg = torus(8), TimeGrid(1.0, 8)
        stack = 8 * (8 + 1) * 3 * 8**3  # one float64 (steps+1, 3, 8, 8, 8) stack
        for force, need in ((None, stack), (modulated_force(g, tg), stack)):
            monkeypatch.setattr(mild_solver, "_physical_ram", lambda: need - 1)
            with pytest.raises(ValueError, match=r"\(8, 8, 8\) grid with 8 time steps") as info:
                thm1_config(g, tg, force=force)
            assert f"{need} bytes" in str(info.value)
            assert f"{need - 1} bytes of RAM" in str(info.value)
            monkeypatch.setattr(mild_solver, "_physical_ram", lambda: need)
            assert thm1_config(g, tg, force=force).tg == tg



def _time_exponent(grid):
    return ExponentField(np.full(grid.shape, 3.5), grid)


@pytest.mark.parametrize("build, match", [
    (lambda: thm2_config(torus(8), TimeGrid(1.0, 8),
                         p=_time_exponent(GridSpec(1, (1.0,), (4,), TRUNCATED, (0.0,)))),
     "one sample per time step"),
    (lambda: thm1_config(torus(8), TimeGrid(1.0, 8),
                         p=make_exponent("constant", (2.5,), torus(16))),
     "thm1 exponent field must live on the flow grid"),
    (lambda: thm2_config(torus(8), TimeGrid(1.0, 8), q=None), "fixed spatial exponent q"),
    (lambda: thm2_config(torus(8), TimeGrid(1.0, 8),
                         p=_time_exponent(GridSpec(1, (1.0,), (8,), PERIODIC, (0.0,)))),
     "sampled on a truncated interval"),
    (lambda: thm2_config(torus(8), TimeGrid(1.0, 8),
                         p=_time_exponent(GridSpec(1, (2.0,), (8,), TRUNCATED, (0.0,)))),
     r"interval must cover \[0, T\]"),
    (lambda: initial_term(single_mode_u0(torus(8)), None, TimeGrid(1.0, 8),
                          make_workspace(torus(16))), "data and workspace grids differ"),
    (lambda: bilinear_term(SpaceTimeField(np.zeros((9, 3) + torus(8).shape), TimeGrid(1.0, 8),
                                          torus(8)), make_workspace(torus(16))),
     "field and workspace grids differ"),
], ids=["time-exponent-samples", "thm1-exponent-grid", "thm2-without-q",
        "thm2-periodic-exponent", "time-exponent-interval", "initial-term-grid",
        "bilinear-term-grid"])
def test_mismatched_exponents_and_grids_are_refused(build, match):
    with pytest.raises(ValueError, match=match):
        build()


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
        const = TensorField(
            [[np.full(g.shape, 0.7) for _ in range(3)] for _ in range(3)], g)
        with_force = initial_term(u0, steady_force(tensor_divergence(const, ws), tg), tg, ws)
        without = initial_term(u0, None, tg, ws)
        assert np.max(np.abs(with_force.data - without.data)) < 1e-14

    def test_sampled_force_reduces_to_plain_accumulation(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 10)
        u0 = VectorField.from_arrays([np.zeros(g.shape)] * 3, g)
        wave = wave_field(g, along=1, arg=lambda X: np.cos(X[0]))  # e perp k: solenoidal
        force = SeparableField(((wave, np.cos(2.0 * tg.nodes)),), tg)
        out = initial_term(u0, force, tg, ws)
        ref = duhamel_accumulate(lambda i: ws.forward(force.frame(i)), tg, ws)
        assert np.max(np.abs(out.data - ref)) < 1e-14

    def test_data_and_sampled_force_add_up(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 10)
        u0 = two_mode_u0(g, 0.7)
        force = modulated_force(g, tg, amplitude=0.9)
        out = initial_term(u0, force, tg, ws)
        duh = duhamel_accumulate(lambda i: ws.forward(force.frame(i)), tg, ws)
        for i, t in enumerate(tg.nodes):
            want = heat_convolve(u0, t, ws).values + duh[i]
            assert np.max(np.abs(out.data[i] - want)) < 1e-14

    def test_divergent_sampled_force_rejected(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 8)
        u0 = VectorField.from_arrays([np.zeros(g.shape)] * 3, g)
        grad = wave_field(g, along=0, arg=lambda X: np.cos(X[0]))  # div != 0
        with pytest.raises(ForceDivergenceError, match="node 0"):
            initial_term(u0, steady_force(grad, tg), tg, ws)


class TestBilinearTerm:
    def test_zero_history(self):
        g = torus(8)
        tg = TimeGrid(1.0, 8)
        out = bilinear_term(SpaceTimeField(np.zeros((tg.steps + 1, 3) + g.shape), tg, g),
                            make_workspace(g))
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
            assert relative_divergence(VectorField(out.data[i], g), ws) < 1e-12

    def test_starts_from_zero(self):
        g = torus(8)
        tg = TimeGrid(0.5, 8)
        u = taylor_green_history(g, tg)
        out = bilinear_term(u, make_workspace(g))
        assert np.max(np.abs(out.data[0])) == 0.0

    def test_runs_on_the_calling_thread_alone(self, monkeypatch):
        # the whole-stack reference of a sweep does not run through the
        # scheduler the sweep tests check
        g, tg = torus(8), TimeGrid(0.5, 8)
        ws = make_workspace(g)
        u = taylor_green_history(g, tg)

        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountingThread)
        out = bilinear_term(u, ws)
        assert started == []
        want = duhamel_accumulate(lambda i: mild_solver._transport_hat(u.data[i], ws), tg, ws)
        assert out.data.tobytes() == want.tobytes()

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
        direct = mixed_norm(ScalarField(np.sqrt(np.sum(u0.values * u0.values, axis=0)), g),
                            p, 3.0)
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
        p = ExponentField(3.0 + 0.4 * np.cos(pg.axis_coords(0)), pg)
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
        u = SpaceTimeField(np.zeros((tg.steps + 1, 3) + g.shape), tg, g)
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

    @pytest.mark.parametrize("regime", ["thm1", "thm2"])
    def test_each_trial_ratio_matches_the_stacked_transport(self, regime):
        # each trial's frames are those of the stacked draw bit for bit, and
        # its ratio is that of bilinear_term on the stack
        g, tg = torus(8), TimeGrid(1.0, 12)
        ws = make_workspace(g)
        if regime == "thm1":
            p, q = make_exponent("radial-log", (2.5, 0.5), g), None
        else:
            pg = GridSpec(1, (tg.T,), (tg.steps,), TRUNCATED, (0.0,))
            p, q = ExponentField(3.0 + np.sin(pg.axis_coords(0)) ** 2, pg), 10.0

        def norm(v):
            if regime == "thm1":
                return norm_E_thm1(v, p).value
            return norm_E_thm2(v, p, q).value

        got = list(mild_solver._trial_ratios(regime, p, q, tg, ws, 4, 7, 3.0, 1e-8))
        rng, draws = np.random.default_rng(7), np.random.default_rng(7)
        want = []
        for _ in range(4):
            u = divfree_history(g, tg, rng)
            trial = mild_solver._trial_modes(g, tg, draws)
            for i in range(tg.steps + 1):
                assert np.array_equal(trial.frame(i), u.data[i])
            want.append(norm(bilinear_term(u, ws)) / norm(u) ** 2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert estimate_bilinear_constant(regime, p, q, tg, ws, trials=4, seed=7) == max(got)

    @pytest.mark.parametrize("regime, want", [
        ("thm1", 0.011009409224691489),
        ("thm2", 0.03838726308341171),
    ])
    def test_seeded_draws_keep_their_constant(self, regime, want):
        # c_B of three seed-0 trials on 16^3 x 16: thm1 on radial-log
        # (2.5, 0.5), thm2 on criterion 09's p = 3 + sin^2 t with q = 10.
        # A moved draw changes it at O(1), rounding at a few ulp
        g, tg = torus(16), TimeGrid(1.0, 16)
        if regime == "thm1":
            p, q = make_exponent("radial-log", (2.5, 0.5), g), None
        else:
            pg = GridSpec(1, (1.0,), (16,), TRUNCATED, (0.0,))
            p, q = ExponentField(3.0 + np.sin(pg.coords()[0]) ** 2, pg), 10.0
        got = estimate_bilinear_constant(regime, p, q, tg, make_workspace(g), trials=3, seed=0)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_three_transport_spectra_per_trial_and_no_history(self, monkeypatch):
        import tracemalloc
        g, tg = torus(16), TimeGrid(1.0, 64)
        ws = make_workspace(g)
        p = make_exponent("radial-log", (2.5, 0.5), g)
        stack = 8 * (tg.steps + 1) * 3 * 16**3
        transport = mild_solver._transport_hat
        calls, started = [], []

        def counting(u, ws, v=None):
            calls.append(v is not None)
            return transport(u, ws, v)

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(mild_solver, "_transport_hat", counting)
        monkeypatch.setattr(threading, "Thread", CountingThread)
        tracemalloc.start()
        try:
            estimate_bilinear_constant("thm1", p, None, tg, ws, trials=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(calls) == [False] * 6 + [True] * 3  # 2 diagonal, 1 cross per trial
        assert len(started) == 1  # the trials run two at a time
        assert peak < 0.5 * stack, peak / stack

    def test_bad_trial_count_rejected(self):
        g = torus(8)
        p = make_exponent("constant", (2.5,), g)
        with pytest.raises(ValueError):
            estimate_bilinear_constant("thm1", p, None, TimeGrid(1.0, 8),
                                       make_workspace(g), trials=0)

    def test_a_trial_never_pairs_parallel_modes(self):
        # seed 70's first trial paired two waves along one wavevector line, a
        # shear flow whose transport vanishes, so c_B read 1.2e-17 and the
        # gate passed data that then diverged
        g, tg = torus(16), TimeGrid(1.0, 16)
        p = make_exponent("radial-log", (2.5, 0.5), g)
        c = estimate_bilinear_constant("thm1", p, None, tg, make_workspace(g), trials=1, seed=70)
        assert c > 1e-3

    def test_a_trial_pair_does_not_alias_away_on_a_coarse_grid(self):
        # on 8 points per axis seed 13 drew the modes (2,2,2) and (2,-2,2),
        # whose sum (4,0,4) and difference (0,4,0) lie where every derivative
        # symbol is zero, so the transport aliased away and c_B read 3.2e-17
        g, tg = torus(8), TimeGrid(1.0, 16)
        p = make_exponent("radial-log", (2.5, 0.5), g)
        c = estimate_bilinear_constant("thm1", p, None, tg, make_workspace(g), trials=1, seed=13)
        assert c > 1e-3

    def test_workspace_must_be_a_3d_torus(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a trial wave was drawn")
        monkeypatch.setattr(mild_solver, "_transverse_wave", no_draw)
        grid = GridSpec(1, (TWO_PI,), (16,), PERIODIC)
        p = make_exponent("constant", (2.5,), grid)
        with pytest.raises(ValueError, match="three-dimensional torus"):
            estimate_bilinear_constant("thm1", p, None, TimeGrid(1.0, 8), make_workspace(grid))


@pytest.mark.parametrize("measure", [
    lambda u, p, ws: estimate_bilinear_constant("thm3", p, 5.0, u.tg, ws),
    lambda u, p, ws: estimate_bilinear_constant("thm2", p, None, u.tg, ws),
    lambda u, p, ws: estimate_bilinear_constant("thm2", p, np.inf, u.tg, ws),
    lambda u, p, ws: norm_E_thm2(u, p, -1.0),
    lambda u, p, ws: norm_E_thm2(u, p, 0.5),
    lambda u, p, ws: norm_E_thm2(u, p, np.inf),
    lambda u, p, ws: norm_E_thm2(u, p, np.nan),
], ids=["estimate-thm3", "estimate-no-q", "estimate-q-inf",
        "norm-q-negative", "norm-q-below-1", "norm-q-inf", "norm-q-nan"])
def test_bad_regime_or_q_fails_before_any_transform(measure, monkeypatch):
    g = torus(8)
    tg = TimeGrid(1.0, 8)
    pg = GridSpec(1, (tg.T,), (tg.steps,), TRUNCATED, (0.0,))
    p = ExponentField(3.0 + np.sin(pg.axis_coords(0)) ** 2, pg)
    u = taylor_green_history(g, tg)
    ws = make_workspace(g)

    def no_transform(*args):
        raise AssertionError("transform before the regime and q checks")
    monkeypatch.setattr(SpectralWorkspace, "forward", no_transform)
    monkeypatch.setattr(SpectralWorkspace, "inverse", no_transform)
    with pytest.raises(ValueError, match="regime must be|q must be"):
        measure(u, p, ws)


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
        raw = ExponentField(closed.samples, closed.grid)
        force = modulated_force(g, tg)
        ladders = [smallness_check(thm2_config(g, tg, amplitude=0.3, force=force, p=p),
                                   1.0).ladder
                   for p in (closed, raw)]
        assert ladders[0] == ladders[1]

    def test_divergent_sampled_force_fails_the_thm2_gate(self):
        g = torus(8)
        tg = TimeGrid(1.0, 16)
        grad = wave_field(g, along=0, arg=lambda X: 0.01 * np.cos(X[0]))  # div != 0
        force = SeparableField(modulated_force(g, tg).modes + steady_force(grad, tg).modes, tg)
        cfg = thm2_config(g, tg, amplitude=0.3, force=force)
        with pytest.raises(ForceDivergenceError):
            smallness_check(cfg, 0.05)

    def test_ladder_accepts_a_sampled_force(self):
        g = torus(8)
        tg = TimeGrid(1.0, 16)
        wave = wave_field(g, along=1, arg=lambda X: np.cos(X[0]))
        force = SeparableField(((wave, 0.01 * np.cos(tg.nodes)),), tg)
        cfg = thm2_config(g, tg, amplitude=0.02, force=force)
        v = smallness_check(cfg, 0.05)
        assert len(v.ladder) == tg.steps - 1
        assert v.passed
        check_ladder(v, cfg, 0.05)


class TestFixedPoint:
    def test_a_zero_estimate_is_refused(self, monkeypatch):
        # a zero c_B would put the gate's threshold at infinity
        monkeypatch.setattr(mild_solver, "estimate_bilinear_constant", lambda *args: 0.0)
        cfg = thm1_config(torus(8), TimeGrid(1.0, 8))
        with pytest.raises(ValueError, match="bilinear constant must be positive"):
            picard_solve(cfg)

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
        # the sweep stops at node 1, with the helper forming the nodes after
        # it: the helper is joined before the error leaves the sweep
        before = threading.active_count()
        with pytest.raises(PicardBlowupError, match="iterate 1 produced non-finite"):
            ms.picard_solve(cfg, c_b=1e-2)
        assert threading.active_count() == before

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
        g = torus()
        tg = TimeGrid(1.0, 16)
        force = tensor_force(g, tg, seed=2, amplitude=0.05)
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
        g, tg = torus(12), TimeGrid(1.0, 16)
        if case == "thm1":
            cfg = thm1_config(g, tg, u0=two_mode_u0(g, 0.5))
        elif case == "thm2-sampled-force":
            cfg = thm2_config(g, tg, amplitude=0.3, force=modulated_force(g, tg, 0.5))
        else:
            force = tensor_force(g, tg, seed=2, amplitude=0.3)
            cfg = thm2_config(g, tg, amplitude=0.3, force=force)
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


def transport_ahead(u, ws):
    """The transport spectra of a history stack through the solver's
    stream; ``_transport_hat`` is looked up per node, so a test may patch
    it."""
    return _Lanes(lambda i: mild_solver._transport_hat(u[i], ws), len(u), 2)


class TestTransportPipeline:
    @pytest.mark.parametrize("force", [None, "sampled"])
    def test_prefetched_stream_matches_the_serial_spectra(self, force):
        # each node is handed out, then written over as a sweep does; each
        # stream runs twice, as picard_solve opens one per sweep.  A force's
        # node spectrum is its modes' transforms summed, the same bits on
        # every call, and its frame's transform up to rounding
        g, tg = torus(8), TimeGrid(1.0, 8)
        ws = make_workspace(g)
        u = taylor_green_history(g, tg).data.copy()
        force_at = None
        if force is not None:
            sampled = modulated_force(g, tg)
            force_at = mild_solver._force_at_nodes(sampled, tg, ws)
            for i in range(tg.steps + 1):
                want = ws.forward(sampled.frame(i))
                got = force_at(i)
                assert got.tobytes() == force_at(i).tobytes()
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

        def serial(u):
            b = [mild_solver._transport_hat(u[i], ws) for i in range(len(u))]
            return b, [-x if force_at is None else force_at(i) - x for i, x in enumerate(b)]

        streams = (lambda: transport_ahead(u, ws),
                   lambda: _Lanes(mild_solver._iterate_hat(u, force_at, ws), len(u), 2))
        for _ in range(2):
            for k, stream in enumerate(streams):
                want = serial(u.copy())[k]
                with stream() as hat:
                    for i in range(tg.steps + 1):
                        assert hat(i).tobytes() == want[i].tobytes()
                        u[i] = 0.9 * u[i] + 0.1

    def test_nodes_the_caller_forms_ahead_keep_the_bits(self, monkeypatch):
        # a helper that dawdles before each job: the caller finds the node it
        # needs still in progress and forms later nodes itself meanwhile
        g, tg = torus(8), TimeGrid(1.0, 16)
        ws = make_workspace(g)
        u = taylor_green_history(g, tg).data
        transport = mild_solver._transport_hat
        main, formed = threading.get_ident(), []

        def dawdling(frame, ws):
            if threading.get_ident() != main:
                time.sleep(0.02)
            hat = transport(frame, ws)
            node = (frame.ctypes.data - frame.base.ctypes.data) // frame.nbytes
            formed.append((node, threading.get_ident() == main))
            return hat

        want = [transport(u[i], ws).tobytes() for i in range(tg.steps + 1)]
        monkeypatch.setattr(mild_solver, "_transport_hat", dawdling)
        with transport_ahead(u, ws) as hat:
            got = [hat(i).tobytes() for i in range(tg.steps + 1)]
        assert got == want
        # every node formed once, the caller's in order and more than node 0
        assert sorted(node for node, _ in formed) == list(range(tg.steps + 1))
        mine = [node for node, by_caller in formed if by_caller]
        assert mine == sorted(mine) and len(mine) >= 3

    def test_helper_jobs_keep_the_callers_error_state(self, monkeypatch):
        # before each node is asked for, wait until it has been formed: the
        # caller then never forms a node, and every node runs on the helper
        g, tg = torus(8), TimeGrid(1.0, 4)
        ws = make_workspace(g)
        u = taylor_green_history(g, tg).data
        transport = mild_solver._transport_hat
        seen = {}

        def recording(frame, ws):
            node = (frame.ctypes.data - frame.base.ctypes.data) // frame.nbytes
            hat = transport(frame, ws)
            seen[node] = (threading.get_ident(), np.geterr())
            return hat

        monkeypatch.setattr(mild_solver, "_transport_hat", recording)
        with np.errstate(all="raise"), transport_ahead(u, ws) as hat:
            for i in range(tg.steps + 1):
                with hat.cv:
                    assert hat.cv.wait_for(lambda: i in hat.done, timeout=60)
                hat(i)
        assert sorted(seen) == list(range(tg.steps + 1))
        assert all(thread != threading.get_ident() for thread, _ in seen.values())
        assert all(set(err.values()) == {"raise"} for _, err in seen.values())

    @pytest.mark.parametrize("caller", ["initial_term", "smallness_check", "picard_solve"])
    def test_a_divergent_force_node_fails_before_any_inverse(self, monkeypatch, caller):
        # two modes whose gradient parts cancel at every node pass; broken at
        # node 5 alone, the sum is refused there before any inverse transform
        # and without a helper thread, though each mode is divergent
        g, tg = torus(8), TimeGrid(1.0, 8)
        wave = wave_field(g, along=1, arg=lambda X: np.cos(X[0]))
        grad = wave_field(g, along=0, arg=lambda X: 0.5 * np.cos(X[0]))
        m = 0.05 * np.cos(3.0 * tg.nodes)
        broken = m.copy()
        broken[5] += 0.01

        def config(second):
            force = SeparableField(((wave + grad, m), (wave - grad, second)), tg)
            return thm2_config(g, tg, amplitude=0.3, force=force)

        def call(cfg):
            if caller == "initial_term":
                initial_term(cfg.u0, cfg.force_spec, tg, make_workspace(g))
            elif caller == "smallness_check":
                smallness_check(cfg, 0.05)
            else:
                picard_solve(cfg, c_b=0.05)

        call(config(m))
        cfg = config(broken)  # built first: the config projects its data
        inverse, inverses = SpectralWorkspace.inverse, []

        def counting(ws, hat):
            inverses.append(hat.shape)
            return inverse(ws, hat)

        monkeypatch.setattr(SpectralWorkspace, "inverse", counting)
        before = threading.active_count()
        with pytest.raises(ForceDivergenceError, match="node 5 ") as info:
            call(cfg)
        assert inverses == []
        assert threading.active_count() == before
        # the defect is the one relative_divergence reads off node 5's frame
        monkeypatch.undo()
        frame = VectorField(cfg.force_spec.frame(5), g)
        reported = float(str(info.value).split("divergence ")[1].split(" ")[0])
        assert reported == pytest.approx(relative_divergence(frame, make_workspace(g)), rel=1e-3)

    @pytest.mark.parametrize("caller", ["bilinear_term", "estimate_bilinear_constant",
                                        "picard_solve"])
    def test_a_failing_transport_surfaces_and_the_helper_exits(self, monkeypatch, caller):
        g, tg = torus(8), TimeGrid(1.0, 8)
        ws = make_workspace(g)
        transport = mild_solver._transport_hat

        def failing(frame, ws, v=None):
            # a c_B trial fails at its cross-mode spectrum; a history's frames
            # are node views u[i] of a stack, so the offset names node 3
            if v is not None:
                raise ArithmeticError("transport failed at a cross-mode spectrum")
            if frame.base is not None and (
                    frame.ctypes.data - frame.base.ctypes.data == 3 * frame.nbytes):
                raise ArithmeticError("transport failed at node 3")
            return transport(frame, ws)

        monkeypatch.setattr(mild_solver, "_transport_hat", failing)
        before = threading.active_count()
        where = "cross-mode" if caller == "estimate_bilinear_constant" else "node 3"
        with pytest.raises(ArithmeticError, match=where):
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
