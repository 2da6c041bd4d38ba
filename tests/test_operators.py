import sys
import threading
import time

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.signal import fftconvolve

from varns import (
    PERIODIC,
    TRUNCATED,
    GridMismatchError,
    GridSpec,
    RadialOrderError,
    ScalarField,
    SeparableField,
    TimeGrid,
    VectorField,
    default_radius_ladder,
    divergence,
    duhamel_accumulate,
    grad_heat_kernel_defect,
    heat_convolve,
    initial_term,
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
    TensorField,
)
from varns.operators import (
    _alias_free_transforms,
    _ball_reach,
    _fast_box,
    _Lanes,
    _transport_hat,
    _two_lanes,
    duhamel_frames,
)

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
    def test_transport_spectrum_matches_the_full_tensor_formula(self, workers, monkeypatch):
        # u (x) u in full, its transform, the row divergence with i k on
        # Nyquist-zeroed wavenumbers, then the projection, all in plain numpy
        g = torus(12)
        monkeypatch.setenv("VARNS_THREADS", str(workers))
        ws = make_workspace(g)
        assert ws.workers == workers
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
        t = TensorField([[c.values for c in row] for row in comps], g)
        out = tensor_divergence(t, ws)
        X = g.coords()
        # cross-check one component against a spectral scalar derivative
        k0_only = ScalarField(np.broadcast_to(np.cos(X[0] + X[2]), g.shape).copy(), g)
        t2 = TensorField(
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
    def test_batched_transforms_match_per_slice_bit_for_bit(self, monkeypatch):
        g = torus(12)
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((4, 3) + g.shape)
        for workers in (1, 2):
            monkeypatch.setenv("VARNS_THREADS", str(workers))
            ws = make_workspace(g)
            assert ws.workers == workers
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
    @pytest.mark.parametrize("grid", [
        GridSpec(1, (4.0,), (33,), TRUNCATED, (0.0,)),
        GridSpec(3, (5.0, 6.0, 4.0), (11, 12, 9), TRUNCATED, (0.0,) * 3),
        torus(12),
        torus(48),
    ])
    def test_pruned_transforms_match_full_ones_bit_for_bit(self, monkeypatch, threads, grid):
        # the pruned transforms skip only lines of zeros, so they must agree
        # with rfftn/irfftn on the whole padded box to the last bit; a torus
        # transforms on its own box, where nothing is pruned.  The 48^3
        # spectrum is above the 256 KB where numpy elides temporaries
        monkeypatch.setenv("VARNS_THREADS", threads)
        rng = np.random.default_rng(17)
        axes = tuple(range(-grid.dimension, 0))
        crop = (...,) + tuple(slice(0, n) for n in grid.resolution)
        if grid.topology == PERIODIC:
            boxes = [grid.shape]
        else:
            boxes = [_fast_box(grid, reach) for reach in
                     ([n - 1 for n in grid.resolution], [2, 3, 1][:grid.dimension])]
        for box in boxes:
            forward, inverse = _alias_free_transforms(grid, box)
            stack = rng.standard_normal((2, 3) + grid.shape)
            want = sfft.rfftn(stack, s=box, axes=axes, workers=int(threads))
            assert np.array_equal(forward(stack), want)
            kernel = rng.standard_normal(box)
            assert np.array_equal(forward(kernel), sfft.rfftn(kernel, axes=axes))
            hat = want * rng.standard_normal(want.shape[-grid.dimension:])
            back = sfft.irfftn(hat, s=box, axes=axes, workers=int(threads))[crop]
            assert np.array_equal(inverse(hat), back)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_real_space_stacks_match_single_fields_bit_for_bit(self, monkeypatch, threads):
        monkeypatch.setenv("VARNS_THREADS", threads)
        rng = np.random.default_rng(16)
        # the 24^3 box (riesz box 48^3) and the 32^3 torus have spectra above
        # the 256 KB where numpy elides temporaries and may round differently
        small = GridSpec(3, (6.0,) * 3, (12, 10, 12), TRUNCATED, (-3.0,) * 3)
        large = GridSpec(3, (12.0,) * 3, (24,) * 3, TRUNCATED, (-6.0,) * 3)
        for grid in (small, large, torus(12), torus(32)):
            stack = rng.standard_normal((2, 3) + grid.shape)
            radii = (0.3, 1.2, 0.5 * min(grid.extents))
            got = maximal_function_stack(stack, grid, radii)
            for j, m in np.ndindex(2, 3):
                one = maximal_function(ScalarField(stack[j, m], grid), radii).values
                assert np.array_equal(got[j, m], one)
        for box in (small, large):
            stack = rng.standard_normal((3,) + box.shape)
            got = riesz_potential_stack(stack, box, 1.0)
            for j in range(3):
                one = riesz_potential_direct(ScalarField(stack[j], box), 1.0).values
                assert np.array_equal(got[j], one)
        for n in (16, 32):
            g = GridSpec(3, (8.0,) * 3, (n,) * 3, PERIODIC, (-4.0,) * 3)
            phi = ScalarField(np.exp(-((radial_distance(g) / 0.7) ** 2)), g)
            stack = np.stack([smooth_random(g, 30 + j, modes=2).values for j in range(3)])
            got = radial_majorant_defects(phi, stack)
            assert got.shape == (3,)
            for j in range(3):
                assert got[j] == radial_majorant_defect(phi, ScalarField(stack[j], g))

    def test_two_lane_cores_are_deterministic(self):
        # seven fields split 4/3 or otherwise between the lanes; every field's
        # result must be its own per-field call, on every run
        rng = np.random.default_rng(23)
        box = GridSpec(3, (6.0,) * 3, (12, 10, 12), TRUNCATED, (-3.0,) * 3)
        g = GridSpec(3, (8.0,) * 3, (16,) * 3, PERIODIC, (-4.0,) * 3)
        phi = ScalarField(np.exp(-((radial_distance(g) / 0.7) ** 2)), g)
        radii = (0.3, 1.2, 3.0)
        cores = [
            (rng.standard_normal((7,) + box.shape),
             lambda v: maximal_function_stack(v, box, radii),
             lambda f: maximal_function(ScalarField(f, box), radii).values),
            (rng.standard_normal((7,) + box.shape),
             lambda v: riesz_potential_stack(v, box, 1.0),
             lambda f: riesz_potential_direct(ScalarField(f, box), 1.0).values),
            (np.stack([smooth_random(g, 40 + j, modes=2).values for j in range(7)]),
             lambda v: radial_majorant_defects(phi, v),
             lambda f: radial_majorant_defect(phi, ScalarField(f, g))),
        ]
        for stack, core, single in cores:
            first = core(stack)
            assert np.array_equal(core(stack), first)
            for j in range(7):
                assert np.array_equal(first[j], single(stack[j]))

    def test_maximal_core_holds_no_spectrum_per_field(self):
        import tracemalloc
        # both radii reach two cells, so one 18^3 box; S is its spectrum
        g = GridSpec(3, (8.0,) * 3, (16,) * 3, TRUNCATED, (-4.0,) * 3)
        stack = np.random.default_rng(0).standard_normal((16,) + g.shape)
        spectrum = 18 * 18 * 10 * 16
        tracemalloc.start()
        try:
            maximal_function_stack(stack, g, (1.0, 1.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # |f| and the output are a stack each.  Each lane holds at most five
        # spectra: its field's, the product with a ball, and the inverse's
        # intermediates; the group holds its two ball spectra.  A spectrum per
        # field would add 16 more
        assert peak < 2 * stack.nbytes + (2 * 5 + 2) * spectrum

    def test_majorant_core_holds_no_spectrum_per_field(self, monkeypatch):
        import tracemalloc
        import varns.operators as operators
        g, phi = campaign_torus(16)
        rng = np.random.default_rng(0)
        field_bytes = np.zeros(g.shape).nbytes
        # one lane: whether two jobs' working sets overlap is a matter of
        # timing, and moved the peak of 4 fields by about 0.6 MB
        monkeypatch.setattr(operators, "_two_lanes", lambda job, n: [job(i) for i in range(n)])

        def peak(count):
            stack = rng.standard_normal((count,) + g.shape)
            tracemalloc.start()
            try:
                radial_majorant_defects(phi, stack)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        radial_majorant_defects(phi, rng.standard_normal((2,) + g.shape))  # warm the caches
        # twelve more fields add twelve |f| of field_bytes each; one more
        # spectrum per field (1.125 field_bytes at 16^3) would break the bound
        assert peak(16) - peak(4) < 2 * 12 * field_bytes

    def test_majorant_core_holds_no_dead_state(self, monkeypatch):
        import tracemalloc
        import varns.operators as operators
        g, phi = campaign_torus(24)
        rng = np.random.default_rng(0)
        field_bytes = np.zeros(g.shape).nbytes
        monkeypatch.setattr(operators, "_two_lanes", lambda job, n: [job(i) for i in range(n)])
        radial_majorant_defects(phi, rng.standard_normal((2,) + g.shape))  # warm the caches
        stack = rng.standard_normal((2,) + g.shape)
        tracemalloc.start()
        try:
            radial_majorant_defects(phi, stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 71.4 field_bytes on a 2-core x86 box: the kernel, tail, support and
        # 30 coarse ball spectra, one job's arrays, and one chunk's gather and
        # its indices.  Keeping the set-up's distances, sorted and rolled
        # kernel, tail and mirror index through the map adds 7 more
        assert peak < 78 * field_bytes

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


class TestTwoLanes:
    def test_results_come_back_in_index_order(self):
        def job(i):
            time.sleep(0.002 * (9 - i))  # later jobs finish sooner
            return i * i
        assert _two_lanes(job, 9) == [i * i for i in range(9)]

    def test_every_job_runs_once_under_contention(self):
        # four maps at once, eight lanes on fewer cores, with thread switches
        # forced often: a lost update of the shared counter would run a job
        # twice or skip one
        interval, count = sys.getswitchinterval(), 2000
        ran, results = [[] for _ in range(4)], [None] * 4

        def run_map(m):
            def job(i):
                ran[m].append(i)
                return i
            results[m] = _two_lanes(job, count)
        sys.setswitchinterval(1e-6)
        try:
            maps = [threading.Thread(target=run_map, args=(m,)) for m in range(4)]
            for t in maps:
                t.start()
            for t in maps:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in maps)
        assert all(sorted(r) == list(range(count)) for r in ran)
        assert results == [list(range(count))] * 4

    @pytest.mark.parametrize("lane", ["caller", "helper"])
    def test_an_error_in_either_lane_reaches_the_caller(self, lane):
        main, meet = threading.get_ident(), threading.Barrier(2, timeout=10)
        started, finished = [], []

        def job(i):
            started.append(i)
            if i < 2:
                meet.wait()  # jobs 0 and 1 run at once, one on each lane
            if (threading.get_ident() == main) == (lane == "caller"):
                raise KeyError(lane)
            time.sleep(0.05)
            finished.append(i)

        before = threading.active_count()
        with pytest.raises(KeyError, match=lane):
            _two_lanes(job, 6)
        assert threading.active_count() == before
        # the other lane finished its job before the error was raised, and
        # neither took another after it
        assert len(finished) == len(started) - 1 < 6

    @pytest.mark.parametrize("count", [0, 1])
    def test_a_count_below_two_starts_no_thread(self, count, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a helper thread was started")
        monkeypatch.setattr(threading, "Thread", no_thread)
        assert _two_lanes(lambda i: i + 1, count) == list(range(1, count + 1))

    def test_the_callers_error_state_reaches_the_helper(self):
        main, meet = threading.get_ident(), threading.Barrier(2, timeout=10)
        seen = {}

        def job(i):
            meet.wait()
            seen[threading.get_ident() == main] = np.geterr()
            with pytest.raises(FloatingPointError):
                np.divide(np.ones(2), 0.0)

        with np.errstate(all="raise"):
            _two_lanes(job, 2)
        assert seen[False] == {"divide": "raise", "over": "raise",
                               "under": "raise", "invalid": "raise"}
        assert seen[True] == seen[False]

    def test_a_stream_hands_out_in_order_at_most_two_ahead(self):
        # thread switches forced often, and jobs and a caller that pause a
        # random few microseconds: each node is formed once and comes back
        # in order, and whenever the caller is between hand-outs at most two
        # nodes have started that it has not been handed.  Nodes start in
        # order, so the count started is the highest node started plus one
        interval, count = sys.getswitchinterval(), 1000
        pauses = np.random.default_rng(0).uniform(0.0, 20e-6, size=(2, count))
        started, ahead, got = [], [], []

        def job(i):
            started.append(i)
            time.sleep(pauses[0, i])
            return i * i

        def consume():
            with _Lanes(job, count, 2) as stream:
                for i in range(count):
                    ahead.append(len(started) - i)
                    got.append(stream(i))
                    time.sleep(pauses[1, i])
        caller = threading.Thread(target=consume)
        sys.setswitchinterval(1e-6)
        try:
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert sorted(started) == list(range(count))
        assert got == [i * i for i in range(count)]
        assert max(ahead) <= 2


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

    @pytest.mark.parametrize("t", [0.0, 0.1])
    def test_input_is_checked_at_every_time(self, t):
        # t = 0 is the identity, but only on a field of the workspace's grid
        ws = make_workspace(torus(8))
        with pytest.raises(GridMismatchError):
            heat_convolve(smooth_random(torus(6), 1), t, ws)
        with pytest.raises(TypeError):
            heat_convolve("not a field", t, ws)
        with pytest.raises(TypeError):
            heat_convolve(TensorField(np.zeros((3, 3) + ws.grid.shape), ws.grid), t, ws)


class TestDuhamel:
    @staticmethod
    def spectra(data, ws):
        """``hat_at_node`` of a sampled history: each frame transformed."""
        return lambda i: ws.forward(data[i])

    def test_zero_forcing_accumulates_nothing(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(1.0, 16)
        zero = np.zeros((tg.steps + 1, 3) + g.shape)
        out = duhamel_accumulate(self.spectra(zero, ws), tg, ws)
        assert np.max(np.abs(out)) == 0.0

    def test_initial_node_is_zero(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(1.0, 16)
        data = np.broadcast_to(
            np.stack([smooth_random(g, s).values for s in (1, 2, 3)]),
            (tg.steps + 1, 3) + g.shape).copy()
        out = duhamel_accumulate(self.spectra(data, ws), tg, ws)
        assert np.max(np.abs(out[0])) == 0.0

    def test_steady_single_mode_matches_closed_form(self):
        # constant-in-time forcing cos(x0) e_1 has |k|^2 = 1, so the
        # integral from zero data is (1 - e^-t) cos(x0) e_1 at every node
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(1.0, 256)
        X = g.coords()
        wave = np.broadcast_to(np.cos(X[0]), g.shape).copy()
        frame = VectorField.from_arrays([np.zeros(g.shape), wave, np.zeros(g.shape)], g)
        zero = VectorField(np.zeros((3,) + g.shape), g)
        force = SeparableField(((frame, np.ones(tg.steps + 1)),), tg)
        out = initial_term(zero, force, tg, ws).data
        worst = 0.0
        for i, t in enumerate(tg.nodes):
            expected = (1.0 - np.exp(-t)) * wave
            worst = max(worst, np.max(np.abs(out[i, 1] - expected)))
        assert worst < 1e-4
        assert np.max(np.abs(out[:, 0])) < 1e-15
        assert np.max(np.abs(out[:, 2])) < 1e-15

    def test_linearity(self):
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 12)
        rng = np.random.default_rng(3)
        fa = rng.standard_normal((tg.steps + 1, 3) + g.shape)
        fb = rng.standard_normal((tg.steps + 1, 3) + g.shape)
        a = duhamel_accumulate(self.spectra(fa, ws), tg, ws)
        b = duhamel_accumulate(self.spectra(fb, ws), tg, ws)
        combo = duhamel_accumulate(self.spectra(2.0 * fa - 0.5 * fb, ws), tg, ws)
        gap = np.max(np.abs(combo - (2.0 * a - 0.5 * b)))
        assert gap < 1e-12 * max(1.0, np.max(np.abs(combo)))

    def test_accumulate_and_force_agree(self):
        # the forced initial term from zero data is the plain accumulation of
        # the force's frames, bit for bit for a steady one-mode force, whose
        # node spectra are its field's transform times exactly 1
        g = torus(8)
        ws = make_workspace(g)
        tg = TimeGrid(0.5, 10)
        rng = np.random.default_rng(4)
        field = leray_project(VectorField(rng.standard_normal((3,) + g.shape), g), ws)
        force = SeparableField(((field, np.ones(tg.steps + 1)),), tg)

        def hat(i):
            return [ws.forward(field.values[m]) for m in range(3)]

        stack = duhamel_accumulate(hat, tg, ws)
        zero = VectorField(np.zeros((3,) + g.shape), g)
        assert np.array_equal(stack, initial_term(zero, force, tg, ws).data)
        assert np.array_equal(stack, duhamel_accumulate(self.spectra(force.data, ws), tg, ws))

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

    def test_ball_reach_follows_the_mask_not_the_floor(self):
        # floor(3h/h) rounds to 2 here, but the mask keeps offset 3: with a
        # box one cell short, the last node's mass wrapped onto node 0
        g = GridSpec(1, (1.380952380952381,), (8,), TRUNCATED, (0.0,))
        h = g.spacings[0]
        assert _ball_reach(3 * h, h) == 3
        f = np.zeros(g.shape)
        f[-1] = 1.0
        out = maximal_function(ScalarField(f, g), (3 * h,)).values
        assert out[-1] == pytest.approx(1.0 / 7.0, rel=1e-14)
        assert abs(out[0]) < 1e-15

    def test_ladder_over_several_boxes_matches_direct_summation(self):
        # unequal spacings give each axis its own reach; the ladder spans a
        # one-cell ball, a ball one cell wide on two axes only, and radii
        # whose boxes all differ
        grid = GridSpec(3, (6.0, 5.0, 7.0), (14, 12, 11), TRUNCATED, (-3.0, -2.5, -3.5))
        h = grid.spacings
        radii = (0.2, 0.45, 0.9, 1.4, 2.5)
        boxes = {_fast_box(grid, [_ball_reach(r, ha) for ha in h]) for r in radii[1:]}
        assert len(boxes) >= 3
        rng = np.random.default_rng(18)
        stack = rng.standard_normal((2,) + grid.shape)
        want = np.zeros(stack.shape)
        for r in radii:
            half = [int(r / ha) + 1 for ha in h]
            padded = np.pad(np.abs(stack), [(0, 0)] + [(k, k) for k in half])
            total, count = np.zeros(stack.shape), 0
            for off in np.ndindex(*[2 * k + 1 for k in half]):
                if sum(((o - k) * ha) ** 2 for o, k, ha in zip(off, half, h)) > r * r:
                    continue
                count += 1
                total += padded[(slice(None),) + tuple(slice(o, o + n) for o, n in zip(off, grid.shape))]
            want = np.maximum(want, total / count)
        got = maximal_function_stack(stack, grid, radii)
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



@pytest.mark.parametrize("build, match", [
    (lambda: riesz_transform(smooth_random(torus(8), 1), 3, make_workspace(torus(8))),
     r"axis must be in \[0, 3\), got 3"),
    (lambda: radial_majorant_defects(
        ScalarField(np.ones((8,) * 3), GridSpec(3, (1.0,) * 3, (8,) * 3, TRUNCATED)),
        np.ones((8,) * 3)), "the majorant comparison runs on periodic grids"),
    (lambda: radial_majorant_defects(ScalarField(np.ones((9,) * 3), torus(9)),
                                     np.ones((9,) * 3)), "resolutions must be even"),
    (lambda: radial_majorant_defects(ScalarField(np.zeros((8,) * 3), torus(8)),
                                     np.ones((8,) * 3)), "kernel is identically zero"),
], ids=["riesz-transform-axis", "majorant-truncated", "majorant-odd", "majorant-zero-kernel"])
def test_bad_axes_grids_and_kernels_are_refused(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize("core, grid", [
    (lambda g, empty: maximal_function_stack(empty, g, [1.0]), torus(8)),
    (lambda g, empty: riesz_potential_stack(empty, g, 1.0),
     GridSpec(3, (1.0,) * 3, (8,) * 3, TRUNCATED)),
    (lambda g, empty: radial_majorant_defects(gaussian_window(g, 0.5), empty), torus(8)),
], ids=["maximal", "riesz-potential", "radial-majorant"])
def test_an_empty_stack_is_refused(core, grid):
    with pytest.raises(ValueError, match="a stack needs at least one field"):
        core(grid, np.zeros((0,) + grid.shape))

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


class TestRadialMajorantBudget:
    def test_fields_past_the_budget_keep_their_single_field_bits(self, monkeypatch):
        # at 32^3 white noise runs out of verify budget over the coarse balls,
        # takes the rest of the ladder and is verified again; the constant
        # and the smooth field stop under the budget
        g, phi = campaign_torus(32)
        stack = np.stack([_worst_case_field("white-noise", g),
                          _worst_case_field("constant", g), smooth_random(g, 5).values])
        forward = sfft.rfftn
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)
        monkeypatch.setattr(sfft, "rfftn", counted)
        ratios, transforms = [], []
        for values in stack:
            calls.clear()
            ratios.append(radial_majorant_defect(phi, ScalarField(values, g)))
            transforms.append(len(calls))
        # the extra forward transforms are the balls outside the bound
        assert transforms[0] > transforms[1] == transforms[2]
        got = radial_majorant_defects(phi, stack)
        assert [float(r) for r in got] == ratios
        f = ScalarField(stack[0], g)
        assert ratios[0] == pytest.approx(direct_majorant(phi, f), rel=1e-12)
        assert ratios[0] <= 1.0 + 1e-12


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
