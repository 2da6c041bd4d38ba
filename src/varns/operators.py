"""Operators on sampled fields: maximal averages, spectral multipliers,
singular-kernel quadrature, and the heat semigroup.

Spectral operators act on periodic grids through the real FFT of a cached
:class:`SpectralWorkspace`.  Arrays are stacked: transforms run over the
trailing ``grid.dimension`` axes, and every leading axis (vector
components, tensor rows, batches of products) is a batch axis.  Each public
spectral operator is forward transform, hat-level helper, inverse
transform; :mod:`varns.mild_solver` takes its spectral steps from the same
helpers.  There is one copy of each: the projected transport spectrum of
one frame ends in the Leray projection of :func:`leray_project`, and
:func:`duhamel_frames` is the one Duhamel recurrence, streaming node frames
so that a history need not be stored.  Odd (derivative-type) symbols use
wavenumbers with the Nyquist plane zeroed, the standard convention that
keeps real fields real and makes the first-order identities exact on
band-limited data; even symbols such as the heat multiplier use the full
wavenumbers.

The real-space operators (maximal averages, the fractional integral and
the radial-majorant check) take stacks as well: ``(..., *grid.shape)``
values whose leading axes run over independent fields, with a thin
single-field wrapper over each.  Every spectrum that depends only on the
grid (ball masks, the fractional kernel) is built once per stacked call and
applied to each field in turn; only the majorant's finer balls, which a field
needs once its verify budget runs out, are built in that field's job.  The
radial-majorant check bounds every point from a few FFT balls and sums the
maximal average exactly, shell by shell, only at the points that can decide
the maximum.  On truncated boxes the field is extended by zero and
convolved circularly on the smallest fast box whose wrap-around lands on the
extension only: ``n + reach`` cells per axis, with
``reach`` the kernel's half-width in cells, as the kernel's own support
decides it.  Each kernel gets its own box, so the maximal function groups
its radii by box and transforms each group's balls once.  The transforms on
such a box are pruned: they skip the lines that hold only padding, and
agree bit for bit with ``rfftn``/``irfftn`` on the whole box; a torus uses
them on its own box, where nothing is pruned.  All three cores run one job
per field that transforms ``|f|`` once, multiplies by the call's kernel
spectra and inverts, so no spectrum is held for every field at once.
Independent jobs are mapped on two lanes, the calling thread and one helper
(:func:`_two_lanes`; :class:`_Lanes` also streams the solver's sweeps), and
every merge of their results is a maximum or a write to the field's own
slot, so no bit depends on which lane ran what.  Kernel quadrature (the
fractional integral) uses midpoint weights off the diagonal and a
closed-form cell integral on it.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .fields import (
    PERIODIC,
    TRUNCATED,
    GridSpec,
    ScalarField,
    TensorField,
    TimeGrid,
    VectorField,
    _check_values,
    require_same_grid,
)


class RadialOrderError(ValueError):
    """A kernel that must be radially nonincreasing is not."""


def worker_count() -> int:
    """FFT worker cap, from the VARNS_THREADS environment variable (default 1).

    A value that is not an integer of at least 1 raises ``ValueError``.
    """
    raw = os.environ.get("VARNS_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"VARNS_THREADS must be a positive integer, got {raw!r}")
    return workers


class _Lanes:
    """``job(0), ..., job(count - 1)`` formed by the calling thread and one
    helper thread, and handed to the caller in index order: inside
    ``with``, ``lanes(i)`` returns ``job(i)``, asked for in order.

    Both lanes take indices in order from one counter under a lock, and
    neither takes one ``window`` or more past the last index handed out
    (no limit by default).  The caller is handed a finished job at once;
    otherwise it forms the next free index itself, which is ``i`` when
    nobody has taken it, until the helper has finished ``i``, and waits
    when the window is full.  Each result goes to its own index only, so
    no output depends on which lane ran which job.  The helper starts on
    entry, in a copy of the caller's context, so its jobs keep the
    caller's numpy error state, and it is joined on exit.  An error raised
    in either lane stops both from taking more jobs, and is raised to the
    caller once the helper has been joined.  A count below 2 starts no
    thread.
    """

    def __init__(self, job, count: int, window: int | None = None):
        self.job, self.count = job, count
        self.window = count if window is None else window
        self.cv = threading.Condition()
        self.taken = self.handed = 0
        self.done, self.errors, self.closed = {}, {}, False  # index -> result or error
        self.helper = None

    def __enter__(self) -> _Lanes:
        if self.count >= 2:
            self.helper = threading.Thread(target=contextvars.copy_context().run,
                                           args=(self._lane, self._stopped))
            self.helper.start()
        return self

    def __exit__(self, *exc) -> None:
        with self.cv:
            self.closed = True
            self.cv.notify_all()
        if self.helper is not None:
            self.helper.join()

    def _stopped(self) -> bool:
        return bool(self.errors) or self.closed or self.taken == self.count

    def _lane(self, until) -> None:
        """Form the next free job until ``until()`` holds, waiting while
        none is free."""
        def free():
            return not self._stopped() and self.taken < self.handed + self.window
        while True:
            with self.cv:
                self.cv.wait_for(lambda: until() or free())
                if until():
                    return
                i, self.taken = self.taken, self.taken + 1
            try:
                out, into = self.job(i), self.done
            except BaseException as exc:
                out, into = exc, self.errors
            with self.cv:
                into[i] = out
                self.cv.notify_all()

    def __call__(self, i: int):
        self._lane(lambda: i in self.done or self.errors)
        if self.errors:
            self.__exit__()
            raise next(iter(self.errors.values()))  # the first error raised
        with self.cv:
            self.handed = i + 1
            self.cv.notify_all()
            return self.done.pop(i)


def _two_lanes(job, count: int) -> list:
    """``[job(0), ..., job(count - 1)]``, mapped by :class:`_Lanes`."""
    with _Lanes(job, count) as lanes:
        return [lanes(i) for i in range(count)]


@dataclass(frozen=True)
class SpectralWorkspace:
    """Precomputed wavenumber tables for one periodic grid.

    ``k_deriv`` are the Nyquist-zeroed wavenumbers (odd symbols), ``k2``
    the squared full ones (even symbols) and ``k2_deriv`` the squared
    Nyquist-zeroed ones; all are broadcastable against the half-complex
    spectrum layout of the real FFT.  ``parseval`` weighs each bin of that
    layout by the number of full-spectrum bins it stands for (1 on the
    self-conjugate planes, 2 elsewhere).  ``forward`` and ``inverse``
    transform over the trailing grid axes of a stack.
    """

    grid: GridSpec
    k_deriv: tuple[np.ndarray, ...]
    k2: np.ndarray
    k2_deriv: np.ndarray
    parseval: np.ndarray
    workers: int

    def forward(self, values: np.ndarray) -> np.ndarray:
        axes = tuple(range(-self.grid.dimension, 0))
        return sfft.rfftn(values, axes=axes, workers=self.workers)

    def inverse(self, hat: np.ndarray) -> np.ndarray:
        axes = tuple(range(-self.grid.dimension, 0))
        return sfft.irfftn(hat, s=self.grid.shape, axes=axes, workers=self.workers)


def make_workspace(grid: GridSpec) -> SpectralWorkspace:
    """The cached spectral workspace for a periodic grid.

    Its worker count is :func:`worker_count` read at call time, so a
    changed ``VARNS_THREADS`` takes effect for grids already cached.
    """
    return _workspace(grid, worker_count())


@lru_cache(maxsize=16)
def _workspace(grid: GridSpec, workers: int) -> SpectralWorkspace:
    if grid.topology != PERIODIC:
        raise ValueError("spectral operators need a periodic grid")
    dim = grid.dimension
    k_full, k_deriv = [], []
    for axis in range(dim):
        n = grid.resolution[axis]
        h = grid.spacings[axis]
        last = axis == dim - 1
        freq = sfft.rfftfreq(n, d=h) if last else sfft.fftfreq(n, d=h)
        k = 2.0 * np.pi * freq
        kd = k.copy()
        if n % 2 == 0:
            # self-conjugate bin of the real transform: zero for odd symbols
            kd[-1 if last else n // 2] = 0.0
        shape = [1] * dim
        shape[axis] = k.size
        k_full.append(k.reshape(shape))
        k_deriv.append(kd.reshape(shape))
    k2 = sum(k * k for k in k_full)
    k2_deriv = sum(k * k for k in k_deriv)
    parseval = np.full(k2.shape, 2.0)
    parseval[..., 0] = 1.0
    if grid.resolution[-1] % 2 == 0:
        parseval[..., -1] = 1.0
    return SpectralWorkspace(grid, tuple(k_deriv), k2, k2_deriv, parseval, workers)


# Hat-level helpers.  ``hats`` is a spectrum stack whose first axis runs
# over the grid dimension: a vector (dim, ...) or a tensor (dim, dim, ...).

def _div_hat(hats: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """``sum_l i k_l hats[l]``: the divergence of a vector spectrum, the row
    divergence ``(div T)_m = sum_l d_l T_lm`` of a tensor spectrum."""
    return sum(1j * ws.k_deriv[l] * hats[l] for l in range(ws.grid.dimension))


def _k_dot(hats: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    # summed apart from _div_hat: dividing that by i would move the last bits
    return sum(ws.k_deriv[j] * hats[j] for j in range(ws.grid.dimension))


def _leray_hat(hats: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Project a vector spectrum onto its divergence-free part in place and
    return it; the mean mode passes through."""
    scale = _k_dot(hats, ws)
    # where k2_deriv is 0 every k_deriv is 0, so scale is 0 there already
    scale /= np.where(ws.k2_deriv > 0.0, ws.k2_deriv, 1.0)
    for j in range(ws.grid.dimension):
        hats[j] -= ws.k_deriv[j] * scale
    return hats


def _transport_hat(u: np.ndarray, ws: SpectralWorkspace,
                   v: np.ndarray | None = None) -> np.ndarray:
    """Leray-projected divergence spectrum of ``u (x) u`` for one vector frame,
    or of ``u (x) v + v (x) u`` for two.

    The product tensor is symmetric, so only its upper triangle is
    transformed, one entry at a time: entry ``(a, b)`` is term ``l = a`` of
    row ``m = b`` of the row divergence and term ``l = b`` of row ``a``.
    Row-major order over the triangle adds the terms of every row in order
    of ``l``, as ``_div_hat`` sums them, while one product field is held at
    a time.  :func:`_leray_hat` projects the result.
    """
    dim = ws.grid.dimension
    ik = [1j * k for k in ws.k_deriv]
    out = np.empty((dim,) + ws.k2.shape, dtype=complex)
    product = np.empty(u.shape[1:])
    for a in range(dim):
        for b in range(a, dim):
            np.multiply(u[a], u[b] if v is None else v[b], out=product)
            if v is not None:
                product += u[b] * v[a]
            hat = ws.forward(product)
            for l, m in {(a, b), (b, a)}:
                if l == 0:
                    np.multiply(ik[0], hat, out=out[m])
                else:
                    out[m] += ik[l] * hat
    return _leray_hat(out, ws)


def _relative_divergence_hat(hats: np.ndarray, ws: SpectralWorkspace) -> float:
    """Divergence content of a vector spectrum relative to its gradient content."""
    w = ws.parseval
    num = np.sum(w * np.abs(_k_dot(hats, ws)) ** 2)
    den = np.sum(w * ws.k2_deriv * sum(np.abs(h) ** 2 for h in hats))
    if den == 0.0:
        return 0.0
    return float(np.sqrt(num / den))


def _heat_multiplier(t: float, ws: SpectralWorkspace) -> np.ndarray:
    return np.exp(-t * ws.k2)


def riesz_transform(f: ScalarField, axis: int, ws: SpectralWorkspace) -> ScalarField:
    """Riesz transform along one axis: symbol ``-i k_axis / |k|``, zero mean mode."""
    require_same_grid(f, grid=ws.grid)
    dim = ws.grid.dimension
    if not 0 <= axis < dim:
        raise ValueError(f"axis must be in [0, {dim}), got {axis}")
    mag = np.sqrt(ws.k2_deriv)
    symbol = np.where(mag > 0.0, ws.k_deriv[axis] / np.where(mag > 0, mag, 1.0), 0.0)
    return ScalarField(ws.inverse(-1j * symbol * ws.forward(f.values)), ws.grid)


def divergence(v: VectorField, ws: SpectralWorkspace) -> ScalarField:
    """Spectral divergence of a vector field."""
    require_same_grid(v, grid=ws.grid)
    return ScalarField(ws.inverse(_div_hat(ws.forward(v.values), ws)), ws.grid)


def tensor_divergence(t: TensorField, ws: SpectralWorkspace) -> VectorField:
    """Row divergence ``(div T)_m = sum_l d_l T_{lm}`` of a tensor field."""
    require_same_grid(t, grid=ws.grid)
    return VectorField(ws.inverse(_div_hat(ws.forward(t.values), ws)), ws.grid)


def leray_project(v: VectorField, ws: SpectralWorkspace) -> VectorField:
    """Project onto divergence-free fields; the mean mode passes through."""
    require_same_grid(v, grid=ws.grid)
    return VectorField(ws.inverse(_leray_hat(ws.forward(v.values), ws)), ws.grid)


def relative_divergence(v: VectorField, ws: SpectralWorkspace) -> float:
    """Spectral divergence content relative to the gradient content of ``v``."""
    require_same_grid(v, grid=ws.grid)
    return _relative_divergence_hat(ws.forward(v.values), ws)


def heat_convolve(f, t: float, ws: SpectralWorkspace):
    """Heat semigroup at time ``t`` applied spectrally; ``t = 0`` is the identity."""
    t = float(t)
    if not 0 <= t < math.inf:
        raise ValueError(f"heat time must be nonnegative and finite, got {t}")
    if not isinstance(f, (ScalarField, VectorField)):
        raise TypeError(f"heat_convolve expects a scalar or vector field, got {type(f)!r}")
    require_same_grid(f, grid=ws.grid)
    if t == 0.0:
        return f
    return type(f)(ws.inverse(_heat_multiplier(t, ws) * ws.forward(f.values)), ws.grid)


def duhamel_frames(hat_at_node, tg: TimeGrid, ws: SpectralWorkspace, start=None):
    """Trapezoid-in-time heat accumulation of a spectral forcing history,
    yielded as physical node frames.

    ``hat_at_node(i)`` must return the stacked component spectra at node
    ``i``, or ``hat_at_node`` is ``None`` for no forcing.  It is called once
    per node, in order, and always before the frame at that node is
    yielded, so a caller may overwrite its node-``i`` input once node ``i``
    has been yielded.  Yields the accumulator at nodes ``0 .. steps``, one
    inverse transform per node: node 0 is the inverse of ``start``, or
    exactly zero when there is no ``start``.  The running form multiplies
    the accumulator spectrum by the one-step decay, which reproduces the
    trapezoid rule applied to the closed-form integrand and carries the
    heat flow of ``start`` along.
    """
    decay = _heat_multiplier(tg.dt, ws)
    dim = ws.grid.dimension
    acc = np.zeros((dim,) + ws.k2.shape, complex) if start is None else np.array(start, complex)
    prev = None if hat_at_node is None else np.asarray(hat_at_node(0))
    yield np.zeros((dim,) + ws.grid.shape) if start is None else ws.inverse(acc)
    half = 0.5 * tg.dt
    for i in range(1, tg.steps + 1):
        acc *= decay
        if prev is not None:
            cur = np.asarray(hat_at_node(i))
            acc += half * (decay * prev + cur)
            prev = cur
        yield ws.inverse(acc)


def duhamel_accumulate(hat_at_node, tg: TimeGrid, ws: SpectralWorkspace) -> np.ndarray:
    """The physical space-time stack of :func:`duhamel_frames`; node 0 is zero."""
    out = np.empty((tg.steps + 1, ws.grid.dimension) + ws.grid.shape)
    for i, frame in enumerate(duhamel_frames(hat_at_node, tg, ws)):
        out[i] = frame
    return out


def default_radius_ladder(grid: GridSpec) -> tuple[float, ...]:
    """Geometric ladder of 12 radii from a single cell up to half the box extent."""
    r0 = 0.49 * min(grid.spacings)
    r1 = 0.5 * min(grid.extents)
    return tuple(float(r0 * (r1 / r0) ** (i / 11)) for i in range(12))


def _offset_dist2(shape: tuple[int, ...], spacings: tuple[float, ...]) -> np.ndarray:
    """Squared torus distance of every node of a periodic box from node 0."""
    axes = []
    for n, h in zip(shape, spacings):
        m = np.arange(n, dtype=float)
        axes.append(np.minimum(m, n - m) * h)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return sum(d * d for d in mesh)


def _abs_stack(values, grid: GridSpec) -> tuple[np.ndarray, tuple[int, ...]]:
    """``|values|`` of a validated stack whose trailing axes are the grid
    axes, with its leading axes flattened into one, and their shape."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("a stack needs at least one field")
    lead = arr.shape[:max(arr.ndim - grid.dimension, 0)]
    return np.abs(_check_values(arr, grid, "stack", lead)).reshape((-1,) + grid.shape), lead


def _fast_box(grid: GridSpec, reach) -> tuple[int, ...]:
    """Smallest fast real-FFT box with ``n + reach`` cells per axis: a
    kernel reaching ``reach`` cells then wraps onto the zero extension only,
    so the circular convolution equals the linear one on the grid."""
    return tuple(sfft.next_fast_len(n + k, real=True) for n, k in zip(grid.resolution, reach))


def _alias_free_transforms(grid: GridSpec, box: tuple[int, ...]):
    """Forward and inverse real FFTs of a zero-extended stack on ``box``,
    pruned to skip the zero padding.

    The forward transform runs the last axis over the data lines only, then
    each other axis in order on its padded length; the inverse runs the
    other axes in order, cropping each to the grid as soon as it is done,
    then the last axis, and scales by ``1/N`` once at the end.  Every line
    that is transformed is transformed exactly as by ``rfftn``/``irfftn``
    with ``s=box``, and the lines skipped hold zeros, so the results agree
    with them bit for bit.  A ``box``-shaped input (a kernel) is transformed
    in full.  The inverse consumes its input: its first axis is transformed
    in place, so pass it a spectrum the caller owns and will not read again.
    """
    d = grid.dimension
    workers = worker_count()
    # irfftn's scale factor, formed as pocketfft forms it
    scale = float(1 / np.longdouble(math.prod(box)))

    def forward(values):
        hat = sfft.rfft(values, n=box[-1], axis=-1, workers=workers)
        for ax in range(d - 1):
            hat = sfft.fft(hat, n=box[ax], axis=ax - d, overwrite_x=True, workers=workers)
        return hat

    def inverse(hat):
        for ax in range(d - 1):
            hat = sfft.ifft(hat, axis=ax - d, norm="forward", overwrite_x=ax == 0,
                            workers=workers)
            hat = hat[(...,) + (slice(0, grid.resolution[ax]),) + (slice(None),) * (d - 1 - ax)]
        out = sfft.irfft(hat, n=box[-1], axis=-1, norm="forward", workers=workers)
        return out[..., :grid.resolution[-1]] * scale
    return forward, inverse


def _ball_reach(r: float, h: float) -> int:
    """Largest offset ``m`` in cells with ``(m*h)**2 <= r*r``: how far along
    one axis the ball mask of :func:`maximal_function_stack` reaches.  It is
    taken from the mask's own comparison, since ``floor(r/h)`` can round
    one cell short of it."""
    m = int(r / h) + 1
    while (m * h) * (m * h) > r * r:
        m -= 1
    return m


def maximal_function_stack(values, grid: GridSpec, radii) -> np.ndarray:
    """:func:`maximal_function` of every field in a ``(..., *grid.shape)`` stack.

    A radius whose ball holds one cell contributes ``|f|`` itself.  The
    others are grouped by box: the grid on a torus, and on a truncated box
    the smallest fast box that keeps each radius's own ball clear of
    wrap-around.  Per group, largest box first, each ball mask is
    transformed once; then each field is one job, mapped on two lanes
    (:func:`_two_lanes`), that transforms ``|f|`` once and folds the
    average over every ball of the group into its own field's maximum.
    Both topologies use :func:`_alias_free_transforms`; on the grid's own
    box they prune nothing.
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("radius ladder is empty")
    rmax = 0.5 * min(grid.extents)
    for r in radii:
        if not 0 < r <= rmax * (1 + 1e-12):
            raise ValueError(f"radius {r} outside (0, {rmax}]")
    fa, lead = _abs_stack(values, grid)
    out = np.zeros(fa.shape)
    groups: dict[tuple[int, ...], list[float]] = {}
    for r in radii:
        reach = [_ball_reach(r, h) for h in grid.spacings]
        if not any(reach):
            np.maximum(out, fa, out=out)
        else:
            box = _fast_box(grid, reach) if grid.topology == TRUNCATED else grid.shape
            groups.setdefault(box, []).append(r)
    for box in sorted(groups, key=math.prod, reverse=True):
        forward, inverse = _alias_free_transforms(grid, box)
        dist2 = _offset_dist2(box, grid.spacings)
        masks = [dist2 <= r * r for r in groups[box]]
        balls = [(forward(m.astype(float)), int(np.count_nonzero(m))) for m in masks]
        del dist2, masks  # the map holds the ball spectra only

        def average(i):
            fhat = forward(fa[i])
            for ball_hat, count in balls:
                np.maximum(out[i], inverse(fhat * ball_hat) / count, out=out[i])
        _two_lanes(average, len(fa))
    return out.reshape(lead + grid.shape)


def maximal_function(f: ScalarField, radii) -> ScalarField:
    """Pointwise max of discrete ball averages of ``|f|`` over a radius ladder.

    A ball collects the cells whose center offsets lie within the radius;
    truncated boxes read the field as zero outside, periodic boxes wrap.
    Radii must stay within half the smallest box extent.
    """
    return ScalarField(maximal_function_stack(f.values, f.grid, radii), f.grid)


def _diagonal_cell_integral(grid: GridSpec, sigma: float) -> float:
    # closed-form integral of |y|^(sigma - n) over the singular cell
    if grid.dimension == 1:
        h = grid.spacings[0]
        return 2.0 * (0.5 * h) ** sigma / sigma
    r_eq = (3.0 * grid.cell_volume / (4.0 * np.pi)) ** (1.0 / 3.0)
    return 4.0 * np.pi * r_eq**sigma / sigma


def riesz_potential_stack(values, grid: GridSpec, sigma: float) -> np.ndarray:
    """:func:`riesz_potential_direct` of every field in a ``(..., *grid.shape)``
    stack; the kernel is built and transformed once per call, and the
    fields are convolved on two lanes (:func:`_two_lanes`), each in its
    own spectrum, to bound the memory."""
    if grid.topology != TRUNCATED:
        raise ValueError("the fractional integral runs on truncated boxes")
    sigma = float(sigma)
    if not 0.0 < sigma < grid.dimension:
        raise ValueError(f"order must lie in (0, {grid.dimension}), got {sigma}")
    fa, lead = _abs_stack(values, grid)
    box = _fast_box(grid, [n - 1 for n in grid.resolution])
    forward, inverse = _alias_free_transforms(grid, box)
    dist2 = _offset_dist2(box, grid.spacings)
    with np.errstate(divide="ignore"):
        kernel = grid.cell_volume * dist2 ** (0.5 * (sigma - grid.dimension))
    kernel[(0,) * grid.dimension] = _diagonal_cell_integral(grid, sigma)
    kernel_hat = forward(kernel)
    # two fields' spectra are held at once; the box-sized inputs are not
    del dist2, kernel
    out = np.empty(fa.shape)

    def convolve(i):
        hat = forward(fa[i])
        hat *= kernel_hat
        out[i] = inverse(hat)
    _two_lanes(convolve, len(fa))
    return out.reshape(lead + grid.shape)


def riesz_potential_direct(f: ScalarField, sigma: float) -> ScalarField:
    """Fractional integral ``int |f(y)| / |x - y|^(n - sigma) dy`` on a box.

    Direct quadrature against the zero-extended field: midpoint weights off
    the diagonal, the analytic cell integral on it (an equal-volume ball in
    three dimensions).  Note the absolute value: the operator is positive
    and sublinear, not linear.
    """
    return ScalarField(riesz_potential_stack(f.values, f.grid, sigma), f.grid)


def grad_heat_kernel_defect(t: float, x) -> float:
    """Gap functional ``|grad g_t(x)| * (t^2 + |x|^4)`` of the heat kernel.

    Scale invariant under ``(t, x) -> (s^2 t, s x)``; vanishes at ``x = 0``
    and stays bounded over the whole quadrant.
    """
    t = float(t)
    if not 0 < t < math.inf:
        raise ValueError(f"time must be positive and finite, got {t}")
    x = np.asarray(x, dtype=float).reshape(-1)
    r2 = float(np.dot(x, x))
    r = np.sqrt(r2)
    g = (4.0 * np.pi * t) ** -1.5 * np.exp(-r2 / (4.0 * t))
    return float(r / (2.0 * t) * g * (t * t + r2 * r2))


# Balls in the FFT bound of the radial-majorant check, and the points whose
# maximal averages are summed exactly in one pass.
_COARSE_BALLS = 32
_VERIFY_CHUNK = 16


def _padded_gather(shape: tuple[int, ...], offsets: np.ndarray):
    """Read ``|f|`` at ``x + offset`` for many points from one wrapped copy.

    Returns the per-axis pad, the flat step of every offset in the padded
    copy, and a map from flat grid indices to flat padded indices.  Torus
    offsets take their signed representative, which stays within half the
    resolution because the support ball does.
    """
    steps = [np.where(m > n // 2, m - n, m)
             for m, n in zip(np.unravel_index(offsets, shape), shape)]
    pad = [int(np.abs(s).max()) for s in steps]
    strides = np.cumprod([1] + [n + 2 * p for n, p in zip(shape[:0:-1], pad[:0:-1])])[::-1]
    jumps = sum(s * st for s, st in zip(steps, strides))

    def base(points):
        return sum((m + p) * st for m, p, st in zip(np.unravel_index(points, shape), pad, strides))
    return pad, jumps, base


def radial_majorant_defects(phi: ScalarField, values) -> np.ndarray:
    """:func:`radial_majorant_defect` of every field in a ``(..., *grid.shape)``
    stack against one kernel; returns the ratios in the stack's leading shape.

    The maximal average ``Mf`` runs over every ball of whole offset shells
    inside the kernel's support, and is found by bound and verify:

    - **Bound.**  FFT averages of ``|f|`` over at most 32 of those balls, evenly
      spaced in radius from the point itself to the support ball, give
      ``M_S <= Mf``.  An FFT average over ``N`` grid points carries absolute
      round-off below ``e = eps * log2(N) * max|f|`` (measured errors stay
      an order of magnitude under it), and so does ``|phi * f| / L1(phi)``,
      so ``UB = (|phi * f| / L1(phi) + e) / (M_S - e)`` bounds each point's
      ratio (infinite where ``M_S <= e``).
    - **Verify.**  Points are visited in descending ``UB``, 16 at a time.
      At each, ``Mf`` is summed exactly from a periodically padded copy of
      ``|f|``: shell sums, then their cumulative sums over the ladder.  The
      same gather against ``phi`` at the mirrored offsets sums ``|phi * f|``
      over the support ball, and one FFT convolution of the kernel's tail
      beyond it (values below ``1e-13`` of the peak) adds the rest.  The
      search stops once the next bound is at most ``best * (1 + slack)``,
      ``slack = 4 * eps * log2(N)``.  That covers the bound's own round-off
      (``2e`` relative where the averages are of the size of ``max|f|``), so
      a field with tied ratios, such as a constant, stops after one chunk,
      and the result is within ``1 + slack`` of the maximum over all points.
    - **Budget.**  A field still unresolved after ``rest * N / (4 * S)``
      points, with ``rest`` balls outside the bound and ``S`` offsets in the
      support ball, grows its bound to every ball and is verified again.
      The budget costs about a fifteenth of those FFT balls (measured at
      24^3 and 48^3 on a 2-core x86 box), so a rough or sparse field costs
      about what an all-shell pass does.
    - **Two lanes** (:func:`_two_lanes`).  Each field is one job: it
      transforms ``|f|`` once, forms its own convolutions, live points and
      bound, verifies, and returns its ratio.  The spectra of ``phi``, its
      tail, the support ball and the coarse balls are built once per call
      and only read by the jobs; a field past its budget transforms the
      other balls in its own job.

    A point is live when its support ball meets the support of ``f``,
    counted exactly by rounding an FFT convolution of the indicator of
    ``f != 0``; elsewhere ``Mf = 0`` and the point is skipped.  Where every
    average is below ``e``, an FFT ``phi * f`` would be round-off of its own
    size, but the verified ratios are summed, so they hold there too.  The
    kernel checks run once per call.
    """
    grid = phi.grid
    if grid.topology != PERIODIC:
        raise ValueError("the majorant comparison runs on periodic grids")
    if any(n % 2 for n in grid.resolution):
        raise ValueError("resolutions must be even so the box center is a node")
    fa, lead = _abs_stack(values, grid)
    pv = phi.values
    if np.any(pv < 0):
        raise RadialOrderError("kernel must be nonnegative")
    peak = float(pv.max())
    if peak == 0.0:
        raise RadialOrderError("kernel is identically zero")
    rolled = np.roll(pv, [-(n // 2) for n in grid.resolution],
                     axis=tuple(range(grid.dimension)))
    dist = np.sqrt(_offset_dist2(grid.shape, grid.spacings))
    if np.any(np.diff(rolled.ravel()[np.argsort(dist.ravel(), kind="stable")]) > 1e-9 * peak):
        raise RadialOrderError("kernel is not radially nonincreasing about the box center")
    rmax = 0.5 * min(grid.extents)
    if float(rolled[dist > rmax].max(initial=0.0)) > 1e-12 * peak:
        raise RadialOrderError("kernel support exceeds half the box extent")

    ws = make_workspace(grid)
    l1 = grid.cell_volume * float(rolled.sum())
    r_support = min(float(dist[rolled > 1e-13 * peak].max()), rmax)
    # the support ball's offsets in shell order: ball k closes at radii[k]
    # and holds the first sizes[k] offsets
    keys = np.round(dist, 12)
    flat_keys = keys.ravel()
    offsets = np.flatnonzero(flat_keys <= np.round(r_support, 12))
    offsets = offsets[np.argsort(flat_keys[offsets], kind="stable")]
    radii, starts = np.unique(flat_keys[offsets], return_index=True)
    sizes = np.append(starts[1:], offsets.size)
    pad, jumps, base = _padded_gather(grid.shape, offsets)
    # phi * f at x is the gather at x + offset against phi at -offset, plus
    # the kernel's tail beyond the support ball
    mirror = np.ravel_multi_index(
        [-m % n for m, n in zip(np.unravel_index(offsets, grid.shape), grid.shape)], grid.shape)
    weights = grid.cell_volume * rolled.ravel()[mirror]
    beyond = rolled.copy()
    beyond.ravel()[offsets] = 0.0
    phi_hat = ws.forward(rolled)
    tail_hat = ws.forward(beyond)
    support_hat = ws.forward((keys <= radii[-1]).astype(float))
    del dist, rolled, beyond, mirror  # the jobs read the spectra and weights
    round_off = np.finfo(float).eps * np.log2(fa[0].size)

    def ball(k):
        return ws.forward((keys <= radii[k]).astype(float)), sizes[k]

    coarse = np.unique(np.searchsorted(radii, np.linspace(0.0, radii[-1], _COARSE_BALLS)))
    rest = np.setdiff1d(np.arange(radii.size), coarse)
    budget = int(rest.size * fa[0].size / (4 * offsets.size)) if rest.size else math.inf
    # ball 0, always coarse, is the point itself: the bound starts at |f|
    coarse = [ball(k) for k in coarse[1:]]

    def ratio(i):
        f = fa[i]
        fhat = ws.forward(f)
        conv = np.abs(grid.cell_volume * ws.inverse(phi_hat * fhat)).ravel()
        tail = (grid.cell_volume * ws.inverse(tail_hat * fhat)).ravel()
        points = np.flatnonzero(
            ws.inverse(ws.forward((f != 0).astype(float)) * support_hat) > 0.5)
        wrapped = np.pad(f, [(p, p) for p in pad], mode="wrap").ravel()
        e = round_off * float(f.max())
        maximal = f.copy()
        best = 0.0
        # raise the bound over the coarse balls and verify under the budget;
        # if it runs out, add the rest and verify to the end
        for balls, limit in ((coarse, budget), (map(ball, rest), math.inf)):
            for ball_hat, size in balls:
                np.maximum(maximal, ws.inverse(ball_hat * fhat) / size, out=maximal)
            low = maximal.ravel()[points] - e
            with np.errstate(divide="ignore"):
                ub = np.where(low > 0, (conv[points] / l1 + e) / low, np.inf)
            rank = np.argsort(-ub, kind="stable")
            ranked, ub = points[rank], ub[rank]
            for s in range(0, ranked.size, _VERIFY_CHUNK):
                if ub[s] <= best * (1.0 + 4.0 * round_off):
                    return best
                if s >= limit:
                    break
                chunk = ranked[s:s + _VERIFY_CHUNK]
                gathered = wrapped[base(chunk)[:, None] + jumps]
                shell_sums = np.add.reduceat(gathered, starts, axis=1)
                mf = (np.cumsum(shell_sums, axis=1) / sizes).max(axis=1)
                num = np.abs((gathered * weights).sum(axis=1) + tail[chunk])
                del gathered  # before the next chunk is gathered
                best = max(best, float(np.max(num / (l1 * mf))))
            else:
                return best
    return np.array(_two_lanes(ratio, len(fa))).reshape(lead)


def radial_majorant_defect(phi: ScalarField, f: ScalarField) -> float:
    """Worst ratio of ``|phi * f|`` against ``L1(phi)`` times the maximal average.

    ``phi`` must be nonnegative, radially nonincreasing about the box
    center, and supported within half the box extent; the convolution is
    circular.  The maximal average runs over every ball of whole offset
    shells inside the support, which makes the layer-cake bound ``<= 1``
    hold up to roundoff.  Points whose support ball misses the support of
    ``f`` have no maximal average and are left out; a zero field reads 0.
    The maximum is found by bound and verify, see
    :func:`radial_majorant_defects`: it is summed exactly at the deciding
    points and lies within ``1 + 4 eps log2(N)`` of the maximum over all
    points.
    """
    require_same_grid(phi, f)
    return float(radial_majorant_defects(phi, f.values))
