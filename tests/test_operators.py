import numpy as np
import pytest
from scipy.signal import fftconvolve

from varns import (
    PERIODIC,
    TRUNCATED,
    GridSpec,
    RadialOrderError,
    ScalarField,
    TimeGrid,
    VectorField,
    default_radius_ladder,
    divergence,
    duhamel_accumulate,
    duhamel_force,
    grad_heat_kernel_defect,
    heat_convolve,
    leray_project,
    make_workspace,
    maximal_function,
    maximal_function_stack,
    radial_distance,
    radial_majorant_defect,
    radial_majorant_defects,
    relative_divergence,
    riesz_potential_direct,
    riesz_potential_stack,
    riesz_transform,
    tensor_divergence,
    SpaceTimeField,
    TensorField,
)
from varns.operators import _transport_hat, duhamel_frames

TWO_PI = 2.0 * np.pi
RIESZ_HALF_AT_TWO = 0.8284271247461903  # 2 (sqrt 2 - 1)


def torus(res=16):
    return GridSpec(3, (TWO_PI,) * 3, (res,) * 3, PERIODIC)


def smooth_random(grid, seed, modes=3):
    """Band-limited random field: integer modes up to ``modes`` per axis."""
    rng = np.random.default_rng(seed)
    X = grid.coords()
    out = np.zeros(grid.shape)
    for _ in range(8):
        k = rng.integers(-modes, modes + 1, grid.dimension)
        if not k.any():
            continue
        amp = rng.uniform(0.2, 1.0)
        phase = rng.uniform(0, TWO_PI)
        out += amp * np.cos(sum(k[a] * X[a] for a in range(grid.dimension)) + phase)
    return ScalarField(out, grid)


class TestSpectralIdentities:
    def test_transform_round_trip(self):
        g = torus()
        ws = make_workspace(g)
        f = smooth_random(g, 0)
        back = ws.inverse(ws.forward(f.values))
        assert np.max(np.abs(back - f.values)) < 1e-12

    def test_single_axis_transform_of_a_plane_wave(self):
        g = torus()
        ws = make_workspace(g)
        X = g.coords()
        f = ScalarField(np.broadcast_to(np.cos(X[0]), g.shape).copy(), g)
        out = riesz_transform(f, 0, ws)
        target = np.broadcast_to(np.sin(X[0]), g.shape)
        assert np.max(np.abs(out.values - target)) < 1e-13

    def test_transforms_square_sum_to_negative_identity(self):
        g = torus()
        ws = make_workspace(g)
        f = smooth_random(g, 1)
        mean = f.values.mean()
        acc = np.zeros(g.shape)
        for axis in range(3):
            acc += riesz_transform(riesz_transform(f, axis, ws), axis, ws).values
        target = -(f.values - mean)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(acc - target)) / scale < 1e-12

    def test_projection_kills_gradients(self):
        g = torus()
        ws = make_workspace(g)
        X = g.coords()
        phase = np.broadcast_to(np.sin(X[0] + 2 * X[1]), g.shape)
        slope = np.broadcast_to(np.cos(X[0] + 2 * X[1]), g.shape)
        grad = VectorField.from_arrays([slope, 2 * slope, np.zeros(g.shape)], g)
        out = leray_project(grad, ws)
        assert np.max(np.abs(out.components[0].values)) < 1e-12 * np.max(np.abs(phase))

    def test_projection_fixes_solenoidal_fields(self):
        g = torus()
        ws = make_workspace(g)
        X = g.coords()
        v = VectorField.from_arrays(
            [np.zeros(g.shape),
             np.broadcast_to(np.cos(X[0]), g.shape).copy(),
             np.broadcast_to(np.sin(X[0]), g.shape).copy()], g)
        out = leray_project(v, ws)
        for a in range(3):
            assert np.max(np.abs(out.components[a].values - v.components[a].values)) < 1e-13

    def test_projection_is_idempotent(self):
        g = torus()
        ws = make_workspace(g)
        v = VectorField.from_arrays(
            [smooth_random(g, s).values for s in (2, 3, 4)], g)
        once = leray_project(v, ws)
        twice = leray_project(once, ws)
        for a in range(3):
            gap = np.max(np.abs(twice.components[a].values - once.components[a].values))
            assert gap < 1e-13

    def test_projected_fields_have_no_divergence(self):
        g = torus()
        ws = make_workspace(g)
        v = VectorField.from_arrays(
            [smooth_random(g, s).values for s in (5, 6, 7)], g)
        out = leray_project(v, ws)
        assert relative_divergence(out, ws) < 1e-12
        div = divergence(out, ws)
        assert np.max(np.abs(div.values)) < 1e-11

    def test_projection_leaves_its_input_untouched(self):
        g = torus(12)
        ws = make_workspace(g)
        values = np.stack([smooth_random(g, s).values for s in (8, 9, 10)])
        before = values.copy()
        leray_project(VectorField(values, g), ws)
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_transport_spectrum_matches_the_full_tensor_formula(self, workers):
        # u (x) u in full, its transform, the row divergence with i k on
        # Nyquist-zeroed wavenumbers, then the projection, all in plain numpy
        g = torus(12)
        ws = make_workspace(g, workers)
        u = np.random.default_rng(11).standard_normal((3,) + g.shape)
        n = g.resolution[0]
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=g.spacings[0])
        k[n // 2] = 0.0
        kk = np.array(np.meshgrid(k, k, k[:n // 2 + 1], indexing="ij"))
        tensor = np.fft.rfftn(u[:, None] * u[None, :], axes=(-3, -2, -1))
        div = np.einsum("l...,lm...->m...", 1j * kk, tensor)
        k2 = np.sum(kk * kk, axis=0)
        want = div - kk * np.sum(kk * div, axis=0) / np.where(k2 > 0, k2, 1.0)
        got = _transport_hat(u, ws)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_relative_divergence_of_a_gradient_is_one(self):
        g = torus()
        ws = make_workspace(g)
        X = g.coords()
        grad = VectorField.from_arrays(
            [np.broadcast_to(np.cos(X[0]), g.shape).copy(),
             np.zeros(g.shape), np.zeros(g.shape)], g)
        assert relative_divergence(grad, ws) == pytest.approx(1.0, abs=1e-12)

    def test_tensor_divergence_matches_rowwise_formula(self):
        g = torus()
        ws = make_workspace(g)
        comps = [[smooth_random(g, 10 + 3 * l + m) for m in range(3)] for l in range(3)]
        t = TensorField.from_arrays([[c.values for c in row] for row in comps], g)
        out = tensor_divergence(t, ws)
        X = g.coords()
        # cross-check one component against a spectral scalar derivative
        k0_only = ScalarField(np.broadcast_to(np.cos(X[0] + X[2]), g.shape).copy(), g)
        t2 = TensorField.from_arrays(
            [[k0_only.values if (l, m) == (0, 1) else np.zeros(g.shape) for m in range(3)]
             for l in range(3)], g)
        out2 = tensor_divergence(t2, ws)
        expected = np.broadcast_to(-np.sin(X[0] + X[2]), g.shape)
        assert np.max(np.abs(out2.components[1].values - expected)) < 1e-13
        assert out.components[0].values.shape == g.shape

    def test_workspace_requires_a_periodic_grid(self):
        box = GridSpec(3, (1.0,) * 3, (8,) * 3, TRUNCATED, (0.0,) * 3)
        with pytest.raises(ValueError):
            make_workspace(box)


class TestStackedTransforms:
    def test_batched_transforms_match_per_slice_bit_for_bit(self):
        g = torus(12)
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((4, 3) + g.shape)
        for workers in (1, 2):
            ws = make_workspace(g, workers)
            hats = ws.forward(stack)
            assert hats.shape[:2] == (4, 3)
            for j in range(4):
                for m in range(3):
                    assert np.array_equal(hats[j, m], ws.forward(stack[j, m]))
            back = ws.inverse(hats)
            for j in range(4):
                for m in range(3):
                    assert np.array_equal(back[j, m], ws.inverse(hats[j, m]))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_real_space_stacks_match_single_fields_bit_for_bit(self, monkeypatch, threads):
        monkeypatch.setenv("VARNS_THREADS", threads)
        rng = np.random.default_rng(16)
        box = GridSpec(3, (6.0,) * 3, (12, 10, 12), TRUNCATED, (-3.0,) * 3)
        for grid in (box, torus(12)):
            stack = rng.standard_normal((2, 3) + grid.shape)
            radii = (0.3, 1.2, 0.5 * min(grid.extents))
            got = maximal_function_stack(stack, grid, radii)
            for j, m in np.ndindex(2, 3):
                one = maximal_function(ScalarField(stack[j, m], grid), radii).values
                assert np.array_equal(got[j, m], one)
        stack = rng.standard_normal((3,) + box.shape)
        got = riesz_potential_stack(stack, box, 1.0)
        for j in range(3):
            one = riesz_potential_direct(ScalarField(stack[j], box), 1.0).values
            assert np.array_equal(got[j], one)
        g = GridSpec(3, (8.0,) * 3, (16,) * 3, PERIODIC, (-4.0,) * 3)
        phi = ScalarField(np.exp(-((radial_distance(g) / 0.7) ** 2)), g)
        stack = np.stack([smooth_random(g, 30 + j, modes=2).values for j in range(3)])
        got = radial_majorant_defects(phi, stack)
        assert got.shape == (3,)
        for j in range(3):
            assert got[j] == radial_majorant_defect(phi, ScalarField(stack[j], g))

    def test_stacks_must_end_in_the_grid_shape(self):
        g = GridSpec(1, (4.0,), (16,), TRUNCATED, (0.0,))
        with pytest.raises(ValueError, match="shape"):
            maximal_function_stack(np.ones((2, 15)), g, (0.5,))
        with pytest.raises(ValueError, match="non-finite"):
            riesz_potential_stack(np.full((2, 16), np.nan), g, 0.5)

    def test_workspace_follows_the_thread_setting(self, monkeypatch):
        g = torus(10)
        monkeypatch.setenv("VARNS_THREADS", "1")
        assert make_workspace(g).workers == 1
        monkeypatch.setenv("VARNS_THREADS", "2")
        assert make_workspace(g).workers == 2
        assert make_workspace(g, 1).workers == 1


class TestHeatFlow:
    def test_zero_time_is_the_identity(self):
        g = torus()
        ws = make_workspace(g)
        f = smooth_random(g, 8)
        assert heat_convolve(f, 0.0, ws) is f

    def test_plane_wave_eigenvalue(self):
        g = torus()
        ws = make_workspace(g)
        X = g.coords()
        f = ScalarField(np.broadcast_to(np.cos(2 * X[0]), g.shape).copy(), g)  # |k|^2 = 4
        out = heat_convolve(f, 0.25, ws)
        assert np.max(np.abs(out.values - np.exp(-1.0) * f.values)) < 1e-14

    def test_constants_are_preserved(self):
        g = torus()
        ws = make_workspace(g)
        f = ScalarField(np.full(g.shape, 2.5), g)
        out = heat_convolve(f, 3.0, ws)
        assert np.max(np.abs(out.values - 2.5)) < 1e-13

    def test_semigroup_property(self):
        g = torus()
        ws = make_workspace(g)
        f = smooth_random(g, 9)
        a = heat_convolve(heat_convolve(f, 0.3, ws), 0.2, ws)
        b = heat_convolve(f, 0.5, ws)
        assert np.max(np.abs(a.values - b.values)) < 1e-13

    def test_vector_input(self):
        g = torus()
        ws = make_workspace(g)
        v = VectorField.from_arrays([smooth_random(g, s).values for s in (11, 12, 13)], g)
        out = heat_convolve(v, 0.1, ws)
        for a in range(3):
            direct = heat_convolve(ScalarField(v.components[a].values, g), 0.1, ws)
            assert np.array_equal(out.components[a].values, direct.values)

    def test_negative_time_rejected(self):
        g = torus()
        ws = make_workspace(g)
        with pytest.raises(ValueError):
            heat_convolve(smooth_random(g, 1), -0.1, ws)


class TestDuhamel:
    def test_zero_forcing_accumulates_nothing(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(1.0, 16)
        zero = SpaceTimeField.zeros(tg, g)
        out = duhamel_force(zero, tg, ws)
        assert np.max(np.abs(out.data)) == 0.0

    def test_initial_node_is_zero(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(1.0, 16)
        data = np.broadcast_to(
            np.stack([smooth_random(g, s).values for s in (1, 2, 3)]),
            (tg.steps + 1, 3) + g.shape).copy()
        out = duhamel_force(SpaceTimeField(data, tg, g), tg, ws)
        assert np.max(np.abs(out.data[0])) == 0.0

    def test_steady_single_mode_matches_closed_form(self):
        # constant-in-time forcing cos(x0) has |k|^2 = 1, so the integral
        # is (1 - e^-t) cos(x0) at every node
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(1.0, 256)
        X = g.coords()
        frame = np.stack([np.broadcast_to(np.cos(X[0]), g.shape).copy(),
                          np.zeros(g.shape), np.zeros(g.shape)])
        data = np.broadcast_to(frame, (tg.steps + 1, 3) + g.shape).copy()
        out = duhamel_force(SpaceTimeField(data, tg, g), tg, ws)
        worst = 0.0
        for i, t in enumerate(tg.nodes):
            expected = (1.0 - np.exp(-t)) * frame[0]
            worst = max(worst, np.max(np.abs(out.data[i, 0] - expected)))
        assert worst < 1e-4
        assert np.max(np.abs(out.data[:, 1:])) < 1e-15

    def test_linearity(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 12)
        rng = np.random.default_rng(3)
        fa = rng.standard_normal((tg.steps + 1, 3) + g.shape)
        fb = rng.standard_normal((tg.steps + 1, 3) + g.shape)
        a = duhamel_force(SpaceTimeField(fa, tg, g), tg, ws)
        b = duhamel_force(SpaceTimeField(fb, tg, g), tg, ws)
        combo = duhamel_force(SpaceTimeField(2.0 * fa - 0.5 * fb, tg, g), tg, ws)
        gap = np.max(np.abs(combo.data - (2.0 * a.data - 0.5 * b.data)))
        assert gap < 1e-12 * max(1.0, np.max(np.abs(combo.data)))

    def test_accumulate_and_force_agree(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 10)
        rng = np.random.default_rng(4)
        data = rng.standard_normal((tg.steps + 1, 3) + g.shape)
        force = SpaceTimeField(data, tg, g)

        def hat(i):
            return [ws.forward(data[i, m]) for m in range(3)]

        stack = duhamel_accumulate(hat, tg, ws)
        assert np.array_equal(stack, duhamel_force(force, tg, ws).data)

    def test_each_node_is_read_before_it_is_yielded(self):
        # the solver overwrites its node-i input once node i has been yielded
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 6)
        calls = []

        def hat(i):
            calls.append(i)
            return np.zeros((3,) + ws.k2.shape, dtype=complex)

        for i, _ in enumerate(duhamel_frames(hat, tg, ws)):
            assert calls == list(range(i + 1))
        assert calls == list(range(tg.steps + 1))


def brute_ball_average(f, radii, points):
    """Direct all-pairs evaluation of the windowed-average maximum."""
    grid = f.grid
    h = grid.spacings
    fa = np.abs(f.values)
    out = []
    for idx in points:
        best = 0.0
        for r in radii:
            half = [int(np.floor(r / h[a])) for a in range(grid.dimension)]
            ranges = [range(-k, k + 1) for k in half]
            total, count = 0.0, 0
            for off in np.ndindex(*[2 * k + 1 for k in half]):
                o = [off[a] - half[a] for a in range(grid.dimension)]
                d2 = sum((o[a] * h[a]) ** 2 for a in range(grid.dimension))
                if d2 > r * r:
                    continue
                count += 1
                j = [idx[a] + o[a] for a in range(grid.dimension)]
                if grid.topology == PERIODIC:
                    j = [j[a] % grid.resolution[a] for a in range(grid.dimension)]
                    total += fa[tuple(j)]
                elif all(0 <= j[a] < grid.resolution[a] for a in range(grid.dimension)):
                    total += fa[tuple(j)]
            best = max(best, total / count)
        out.append(best)
    return np.array(out)


class TestWindowedMaximalAverage:
    def test_constant_field_is_fixed(self):
        g = torus(12)
        f = ScalarField(np.full(g.shape, -1.7), g)
        out = maximal_function(f, default_radius_ladder(g))
        assert np.max(np.abs(out.values - 1.7)) < 1e-12

    def test_ball_indicator_is_one_at_the_center(self):
        g = GridSpec(3, (8.0,) * 3, (16,) * 3, PERIODIC, (-4.0,) * 3)
        ball = ScalarField((radial_distance(g) <= 1.0).astype(float), g)
        out = maximal_function(ball, (0.3, 0.7, 1.0))
        center = tuple(n // 2 for n in g.resolution)
        assert out.values[center] == pytest.approx(1.0, abs=1e-12)

    def test_single_cell_window_returns_the_field_itself(self):
        g = GridSpec(3, (2.0,) * 3, (10,) * 3, TRUNCATED, (0.0,) * 3)
        rng = np.random.default_rng(5)
        f = ScalarField(rng.standard_normal(g.shape), g)
        tiny = 0.49 * min(g.spacings)
        out = maximal_function(f, (tiny,))
        assert np.array_equal(out.values, np.abs(f.values))

    def test_dominates_the_field_with_a_single_cell_rung(self):
        g = GridSpec(3, (6.0,) * 3, (12,) * 3, TRUNCATED, (-3.0,) * 3)
        rng = np.random.default_rng(6)
        f = ScalarField(rng.standard_normal(g.shape), g)
        radii = default_radius_ladder(g) + (0.49 * min(g.spacings),)
        out = maximal_function(f, radii)
        assert np.all(out.values >= np.abs(f.values) - 1e-12)

    def test_sublinear_in_the_field(self):
        g = GridSpec(1, (4.0,), (512,), TRUNCATED, (0.0,))
        rng = np.random.default_rng(7)
        a = ScalarField(rng.standard_normal(g.shape), g)
        b = ScalarField(rng.standard_normal(g.shape), g)
        radii = (0.3, 0.9)
        ma = maximal_function(a, radii).values
        mb = maximal_function(b, radii).values
        mab = maximal_function(ScalarField(a.values + b.values, g), radii).values
        assert np.all(mab <= ma + mb + 1e-12)

    def test_matches_brute_force_on_a_truncated_box(self):
        g = GridSpec(3, (6.0,) * 3, (14,) * 3, TRUNCATED, (-3.0,) * 3)
        rng = np.random.default_rng(8)
        f = ScalarField(rng.standard_normal(g.shape) * np.exp(-radial_distance(g)), g)
        radii = (0.5, 1.1, 2.0)
        out = maximal_function(f, radii)
        points = [tuple(rng.integers(0, 14, 3)) for _ in range(20)]
        brute = brute_ball_average(f, radii, points)
        got = np.array([out.values[p] for p in points])
        assert np.max(np.abs(got - brute)) < 1e-10

    def test_matches_brute_force_on_a_torus(self):
        g = GridSpec(3, (TWO_PI,) * 3, (10,) * 3, PERIODIC)
        f = smooth_random(g, 9, modes=2)
        radii = (0.7, 1.5)
        out = maximal_function(f, radii)
        rng = np.random.default_rng(10)
        points = [tuple(rng.integers(0, 10, 3)) for _ in range(20)]
        brute = brute_ball_average(f, radii, points)
        got = np.array([out.values[p] for p in points])
        assert np.max(np.abs(got - brute)) < 1e-10

    @pytest.mark.parametrize("grid", [
        GridSpec(1, (4.0,), (33,), TRUNCATED, (0.0,)),
        GridSpec(3, (5.0, 6.0, 5.0), (11, 12, 10), TRUNCATED, (-2.5, -3.0, -2.5)),
    ])
    def test_truncated_matches_direct_summation(self, grid):
        rng = np.random.default_rng(14)
        f = ScalarField(rng.standard_normal(grid.shape), grid)
        radii = (0.4, 0.9, 1.7, 0.5 * min(grid.extents))
        fa = np.abs(f.values)
        h = grid.spacings
        want = np.zeros(grid.shape)
        for r in radii:
            half = [int(np.floor(r / h[a])) for a in range(grid.dimension)]
            padded = np.pad(fa, [(k, k) for k in half])
            total, count = np.zeros(grid.shape), 0
            for off in np.ndindex(*[2 * k + 1 for k in half]):
                if sum(((o - k) * ha) ** 2 for o, k, ha in zip(off, half, h)) > r * r:
                    continue
                count += 1
                total += padded[tuple(slice(o, o + n) for o, n in zip(off, grid.shape))]
            want = np.maximum(want, total / count)
        got = maximal_function(f, radii).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    def test_radius_ladder_shape(self):
        g = GridSpec(3, (6.0,) * 3, (12,) * 3, TRUNCATED, (-3.0,) * 3)
        ladder = default_radius_ladder(g)
        assert len(ladder) == 12
        assert ladder[0] == pytest.approx(0.49 * 0.5)
        assert ladder[-1] == pytest.approx(3.0)
        ratios = np.diff(np.log(ladder))
        assert np.max(np.abs(ratios - ratios[0])) < 1e-12

    def test_out_of_range_radius_rejected(self):
        g = GridSpec(1, (2.0,), (8,), TRUNCATED, (0.0,))
        f = ScalarField(np.ones(g.shape), g)
        with pytest.raises(ValueError):
            maximal_function(f, (1.5,))
        with pytest.raises(ValueError):
            maximal_function(f, ())


class TestFractionalIntegral:
    def test_interval_indicator_closed_form(self):
        g = GridSpec(1, (4.0,), (8192,), TRUNCATED, (0.0,))
        x = g.axis_coords(0)
        f = ScalarField(((x >= 0.0) & (x < 1.0)).astype(float), g)
        out = riesz_potential_direct(f, 0.5)
        idx = int(np.argmin(np.abs(x - 2.0)))
        assert abs(out.values[idx] - RIESZ_HALF_AT_TWO) < 1e-4
        # sharper check against the closed form at the actual probe abscissa
        x0 = x[idx]
        exact = 2.0 * (np.sqrt(x0) - np.sqrt(x0 - 1.0))
        assert abs(out.values[idx] - exact) < 1e-6

    @pytest.mark.parametrize("grid, sigma", [
        (GridSpec(1, (4.0,), (64,), TRUNCATED, (0.0,)), 0.5),
        (GridSpec(1, (3.0,), (75,), TRUNCATED, (-1.0,)), 0.3),
        (GridSpec(3, (2.0,) * 3, (12, 12, 12), TRUNCATED, (-1.0,) * 3), 2.0),
        (GridSpec(3, (2.0, 3.0, 2.5), (9, 14, 11), TRUNCATED, (-1.0,) * 3), 1.0),
    ])
    def test_matches_the_linear_convolution(self, grid, sigma):
        # reference: the kernel on the full (2n-1) offset box, convolved linearly
        rng = np.random.default_rng(15)
        f = ScalarField(rng.standard_normal(grid.shape), grid)
        offsets = np.meshgrid(
            *[np.arange(1 - n, n) * h for n, h in zip(grid.resolution, grid.spacings)],
            indexing="ij", sparse=True)
        dist2 = sum(o * o for o in offsets)
        with np.errstate(divide="ignore"):
            kernel = grid.cell_volume * dist2 ** (0.5 * (sigma - grid.dimension))
        if grid.dimension == 1:
            cell = 2.0 * (0.5 * grid.spacings[0]) ** sigma / sigma
        else:
            r_eq = (3.0 * grid.cell_volume / (4.0 * np.pi)) ** (1.0 / 3.0)
            cell = 4.0 * np.pi * r_eq**sigma / sigma
        kernel[tuple(n - 1 for n in grid.resolution)] = cell
        want = fftconvolve(np.abs(f.values), kernel, mode="same")
        got = riesz_potential_direct(f, sigma).values
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_zero_field_maps_to_zero(self):
        g = GridSpec(1, (4.0,), (64,), TRUNCATED, (0.0,))
        out = riesz_potential_direct(ScalarField(np.zeros(g.shape), g), 0.5)
        assert np.max(np.abs(out.values)) == 0.0

    def test_positive_and_scales_with_the_magnitude(self):
        g = GridSpec(1, (4.0,), (256,), TRUNCATED, (0.0,))
        rng = np.random.default_rng(11)
        f = ScalarField(rng.standard_normal(g.shape), g)
        base = riesz_potential_direct(f, 0.5)
        scaled = riesz_potential_direct(ScalarField(-3.0 * f.values, g), 0.5)
        assert np.all(base.values > 0.0)
        assert np.max(np.abs(scaled.values - 3.0 * base.values)) < 1e-12 * np.max(scaled.values)

    def test_monotone_in_the_magnitude(self):
        g = GridSpec(1, (4.0,), (256,), TRUNCATED, (0.0,))
        rng = np.random.default_rng(12)
        small = rng.uniform(0.0, 1.0, g.shape)
        big = small + rng.uniform(0.0, 1.0, g.shape)
        a = riesz_potential_direct(ScalarField(small, g), 0.7)
        b = riesz_potential_direct(ScalarField(big, g), 0.7)
        assert np.all(b.values >= a.values - 1e-12)

    def test_order_bounds_enforced(self):
        g = GridSpec(1, (4.0,), (64,), TRUNCATED, (0.0,))
        f = ScalarField(np.ones(g.shape), g)
        for sigma in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                riesz_potential_direct(f, sigma)

    def test_periodic_grid_rejected(self):
        g = GridSpec(1, (4.0,), (64,), PERIODIC)
        f = ScalarField(np.ones(g.shape), g)
        with pytest.raises(ValueError):
            riesz_potential_direct(f, 0.5)

    def test_three_dimensional_diagonal_consistency(self):
        # the singular-cell weight must keep the value stable when the
        # source is a single occupied cell probed at its own location
        g = GridSpec(3, (2.0,) * 3, (8,) * 3, TRUNCATED, (-1.0,) * 3)
        vals = np.zeros(g.shape)
        vals[4, 4, 4] = 1.0
        out = riesz_potential_direct(ScalarField(vals, g), 2.0)
        h = g.spacings[0]
        r_eq = (3.0 * g.cell_volume / (4.0 * np.pi)) ** (1.0 / 3.0)
        expected_center = 4.0 * np.pi * r_eq ** 2.0 / 2.0
        assert out.values[4, 4, 4] == pytest.approx(expected_center, rel=1e-12)
        # the nearest neighbor sees the plain midpoint kernel
        assert out.values[5, 4, 4] == pytest.approx(g.cell_volume / h, rel=1e-12)


class TestKernelGapFunctional:
    def test_vanishes_at_the_origin(self):
        assert grad_heat_kernel_defect(0.5, (0.0, 0.0, 0.0)) == 0.0

    def test_parabolic_scale_invariance(self):
        x = np.array([0.3, -1.1, 0.7])
        t = 0.8
        base = grad_heat_kernel_defect(t, x)
        for s in (0.5, 2.0, 7.0):
            scaled = grad_heat_kernel_defect(s * s * t, s * x)
            assert scaled == pytest.approx(base, rel=1e-10)

    def test_radial_formula(self):
        t, x = 0.6, np.array([1.0, 2.0, -2.0])
        r2 = float(np.dot(x, x))
        r = np.sqrt(r2)
        g = (4 * np.pi * t) ** -1.5 * np.exp(-r2 / (4 * t))
        expected = r / (2 * t) * g * (t * t + r2 * r2)
        assert grad_heat_kernel_defect(t, x) == pytest.approx(expected, rel=1e-14)

    def test_sweep_maximum_is_grid_stable(self):
        def sweep(n):
            best = 0.0
            for t in (0.01, 0.1, 1.0, 10.0):
                u = np.exp(np.linspace(np.log(1e-2), np.log(25.0), n))
                for r in 2.0 * np.sqrt(u * t):
                    best = max(best, grad_heat_kernel_defect(t, (r, 0.0, 0.0)))
            return best

        coarse, fine = sweep(200), sweep(400)
        assert abs(fine - coarse) / fine < 0.05
        # the scale-invariant supremum sits just under 0.295
        assert 0.28 < fine < 0.30

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            grad_heat_kernel_defect(0.0, (1.0, 0.0, 0.0))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call", [
    lambda g: maximal_function_stack(smooth_random(g, 1).values, g, [NAN]),
    lambda g: grad_heat_kernel_defect(NAN, (1.0, 0.0, 0.0)),
    lambda g: grad_heat_kernel_defect(INF, (1.0, 0.0, 0.0)),
    lambda g: heat_convolve(smooth_random(g, 1), NAN, make_workspace(g)),
    lambda g: heat_convolve(smooth_random(g, 1), INF, make_workspace(g)),
], ids=["maximal-radius-nan", "grad-heat-time-nan", "grad-heat-time-inf",
        "heat-time-nan", "heat-time-inf"])
def test_non_finite_scales_are_refused_up_front(call):
    with pytest.raises(ValueError, match="outside|must be .*finite") as info:
        call(torus(8))
    assert type(info.value) is ValueError


class TestRadialDominationGap:
    def grid(self, res=16):
        return GridSpec(3, (8.0,) * 3, (res,) * 3, PERIODIC, (-4.0,) * 3)

    def test_ball_window_never_beats_the_maximal_average(self):
        g = self.grid()
        ball = ScalarField((radial_distance(g) <= 1.4).astype(float), g)
        f = smooth_random(g, 13, modes=2)
        assert radial_majorant_defect(ball, f) <= 1.0 + 1e-9

    def test_constant_field_saturates_the_bound(self):
        g = self.grid()
        phi = ScalarField(np.exp(-((radial_distance(g) / 0.7) ** 2)), g)
        f = ScalarField(np.full(g.shape, 0.8), g)
        assert radial_majorant_defect(phi, f) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_window_on_random_fields(self):
        g = self.grid()
        phi = ScalarField(np.exp(-((radial_distance(g) / 0.7) ** 2)), g)
        for seed in range(4):
            f = smooth_random(g, 20 + seed, modes=2)
            assert radial_majorant_defect(phi, f) <= 1.0 + 1e-9

    def test_increasing_window_rejected(self):
        g = self.grid()
        phi = ScalarField(radial_distance(g), g)
        with pytest.raises(RadialOrderError):
            radial_majorant_defect(phi, smooth_random(g, 1))

    def test_wide_support_rejected(self):
        g = self.grid()
        phi = ScalarField(np.ones(g.shape), g)
        with pytest.raises(RadialOrderError):
            radial_majorant_defect(phi, smooth_random(g, 1))

    def test_negative_window_rejected(self):
        g = self.grid()
        phi = ScalarField(-np.exp(-(radial_distance(g) ** 2)), g)
        with pytest.raises(RadialOrderError):
            radial_majorant_defect(phi, smooth_random(g, 1))


def direct_majorant(phi, f):
    """Worst ``|phi * f| / (L1(phi) Mf)`` on a torus by direct summation.

    One ``np.roll`` of ``|f|`` per offset; shells group the offsets by their
    distance rounded to 12 digits, and ``Mf`` is the maximal average over
    every ball of whole shells inside the kernel's support.
    """
    g = phi.grid
    fa = np.abs(f.values)
    axes = tuple(range(g.dimension))
    kernel = np.roll(phi.values, [-(n // 2) for n in g.resolution], axis=axes)
    steps = np.meshgrid(*[np.arange(n) for n in g.resolution], indexing="ij")
    dist = np.sqrt(sum((np.minimum(m, n - m) * h) ** 2
                       for m, n, h in zip(steps, g.resolution, g.spacings)))
    peak = kernel.max()
    r_support = min(float(dist[kernel > 1e-13 * peak].max()), 0.5 * min(g.extents))
    key = np.round(dist, 12)
    conv = np.zeros(g.shape)
    total = np.zeros(g.shape)
    maximal = np.zeros(g.shape)
    count = 0
    for r in np.unique(key):
        inside = r <= np.round(r_support, 12)
        for idx in zip(*np.nonzero(key == r)):
            rolled = np.roll(fa, idx, axis=axes)
            conv += kernel[idx] * rolled
            if inside:
                total += rolled
                count += 1
        if inside:
            np.maximum(maximal, total / count, out=maximal)
    conv *= g.cell_volume
    l1 = g.cell_volume * float(kernel.sum())
    live = maximal > 0
    return float(np.max(np.abs(conv[live]) / (l1 * maximal[live])))


def gaussian_window(g, width):
    return ScalarField(np.exp(-((radial_distance(g) / width) ** 2)), g)


def campaign_torus(res):
    # the radial_majorant campaign's torus and kernel
    g = GridSpec(3, (TWO_PI,) * 3, (res,) * 3, PERIODIC)
    return g, gaussian_window(g, 0.0875 * TWO_PI)


class TestRadialMajorantExactness:
    @pytest.mark.parametrize("grid", [
        GridSpec(3, (8.0,) * 3, (16,) * 3, PERIODIC, (-4.0,) * 3),
        GridSpec(3, (8.0, 6.0, 10.0), (16, 16, 20), PERIODIC, (-4.0, -3.0, -5.0)),
    ], ids=["cubic", "anisotropic"])
    def test_matches_direct_summation(self, grid):
        windows = (gaussian_window(grid, 0.5),
                   ScalarField((radial_distance(grid) <= 1.4).astype(float), grid))
        for phi in windows:
            for seed in (40, 41):
                f = smooth_random(grid, seed, modes=3)
                want = direct_majorant(phi, f)
                assert radial_majorant_defect(phi, f) == pytest.approx(want, rel=1e-12)

    def test_single_cell_stays_under_the_layer_cake_bound(self):
        # FFT round-off leaves ball averages slightly positive where every
        # ball misses the cell; counted as live, such points read 1e4-1e5
        box = TestRadialDominationGap().grid()
        for g, phi in (campaign_torus(12), (box, gaussian_window(box, 0.7))):
            values = np.zeros(g.shape)
            values[3, 5, 7] = 1.0
            f = ScalarField(values, g)
            got = radial_majorant_defect(phi, f)
            assert got <= 1.0
            assert got == pytest.approx(direct_majorant(phi, f), rel=1e-12)

    def test_round_off_level_field_stays_under_the_layer_cake_bound(self):
        # near the corner |f| is 1e-20 against max|f| = 1, so an FFT phi * f
        # there is round-off and its ratio read 1.004
        g = TestRadialDominationGap().grid()
        ball = ScalarField((radial_distance(g) <= 1.4).astype(float), g)
        values = np.exp(-radial_distance(g) ** 2)
        values[0, 0, 0] += 1e-20
        assert radial_majorant_defect(ball, ScalarField(values, g)) <= 1.0 + 1e-14

    def test_zero_field_reads_zero(self):
        g, phi = campaign_torus(12)
        assert radial_majorant_defect(phi, ScalarField(np.zeros(g.shape), g)) == 0.0


def _bump(g, center, width):
    d2 = sum(np.minimum(np.abs(x - c), TWO_PI - np.abs(x - c)) ** 2
             for x, c in zip(g.coords(), center))
    return np.exp(-d2 / width**2)


def _worst_case_field(kind, g):
    rng = np.random.default_rng(17)
    x, y, z = g.coords()
    if kind == "constant":
        return np.full(g.shape, 0.8)
    if kind == "ripple":
        return 1.0 + 1e-7 * np.cos(x + 2.0 * y) * np.sin(3.0 * z)
    if kind == "tied-bumps":
        # equal bumps half a box apart: every ratio comes in equal pairs
        return _bump(g, (1.0, 1.0, 1.0), 0.5) + _bump(g, (1.0 + np.pi,) * 3, 0.5)
    if kind == "white-noise":
        return rng.standard_normal(g.shape)
    return (rng.random(g.shape) < 1e-3) * rng.standard_normal(g.shape)


class TestRadialMajorantWorstCases:
    @pytest.mark.parametrize("res", [16, 24])
    @pytest.mark.parametrize("kind", ["constant", "ripple", "tied-bumps",
                                      "white-noise", "sparse-spikes"])
    def test_matches_direct_summation(self, kind, res):
        g, phi = campaign_torus(res)
        f = ScalarField(_worst_case_field(kind, g), g)
        got = radial_majorant_defect(phi, f)
        assert got == pytest.approx(direct_majorant(phi, f), rel=1e-12)
        assert got <= 1.0 + 1e-12


class TestRefinementConsistency:
    def test_transform_values_persist_under_refinement(self):
        # periodic node grids nest under doubling, so a band-limited field
        # transformed on the fine grid restricts to the coarse answer
        g = torus(12)
        gf = g.refine(2)
        f = smooth_random(g, 30, modes=3)
        ff = smooth_random(gf, 30, modes=3)
        coarse = riesz_transform(f, 0, make_workspace(g))
        fine = riesz_transform(ff, 0, make_workspace(gf))
        sub = fine.values[::2, ::2, ::2]
        assert np.max(np.abs(sub - coarse.values)) < 1e-11

    def test_heat_values_persist_under_refinement(self):
        g = torus(12)
        gf = g.refine(2)
        f = smooth_random(g, 31, modes=3)
        ff = smooth_random(gf, 31, modes=3)
        coarse = heat_convolve(f, 0.2, make_workspace(g))
        fine = heat_convolve(ff, 0.2, make_workspace(gf))
        assert np.max(np.abs(fine.values[::2, ::2, ::2] - coarse.values)) < 1e-11
