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
applied to the whole stack.  The radial-majorant check bounds every point
from a few FFT balls and sums the maximal average exactly, shell by shell,
only at the points that can decide the maximum.  On truncated boxes the field
is extended by zero and convolved circularly on the smallest fast box whose
wrap-around lands on the extension only: ``n + reach`` cells per axis, with
``reach`` the kernel's half-width in cells.  Kernel quadrature (the
fractional integral) uses midpoint weights off the diagonal and a
closed-form cell integral on it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .fields import (
    PERIODIC,
    TRUNCATED,
    GridSpec,
    ScalarField,
    SpaceTimeField,
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


@dataclass(frozen=True)
class SpectralWorkspace:
    """Precomputed wavenumber tables for one periodic grid.

    ``k_deriv`` are the Nyquist-zeroed wavenumbers (odd symbols), ``k2``
    the squared full ones (even symbols) and ``k2_deriv`` the squared
    Nyquist-zeroed ones; all are broadcastable against the half-complex
    spectrum layout of the real FFT.  ``forward`` and ``inverse`` transform
    over the trailing grid axes of a stack.
    """

    grid: GridSpec
    k_deriv: tuple[np.ndarray, ...]
    k2: np.ndarray
    k2_deriv: np.ndarray
    workers: int

    def forward(self, values: np.ndarray) -> np.ndarray:
        axes = tuple(range(-self.grid.dimension, 0))
        return sfft.rfftn(values, axes=axes, workers=self.workers)

    def inverse(self, hat: np.ndarray) -> np.ndarray:
        axes = tuple(range(-self.grid.dimension, 0))
        return sfft.irfftn(hat, s=self.grid.shape, axes=axes, workers=self.workers)


def make_workspace(grid: GridSpec, workers: int | None = None) -> SpectralWorkspace:
    """The cached spectral workspace for a periodic grid.

    ``workers`` defaults to :func:`worker_count` read at call time, so a
    changed ``VARNS_THREADS`` takes effect for grids already cached.
    """
    return _workspace(grid, worker_count() if workers is None else workers)


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
    return SpectralWorkspace(grid, tuple(k_deriv), k2, k2_deriv, workers)


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


def _transport_hat(u: np.ndarray, ws: SpectralWorkspace) -> np.ndarray:
    """Leray-projected divergence spectrum of ``u (x) u`` for one vector frame.

    The product tensor is symmetric, so only its upper triangle is
    transformed.  The row divergence is the sum of ``_div_hat(full)``, run
    in one output buffer straight from the upper-triangle spectra without
    building the full tensor, and :func:`_leray_hat` projects that buffer.
    """
    dim = ws.grid.dimension
    upper = np.triu_indices(dim)
    row = np.empty((dim, dim), dtype=int)
    row[upper] = row.T[upper] = np.arange(upper[0].size)
    products = ws.forward(u[upper[0]] * u[upper[1]])
    ik = [1j * k for k in ws.k_deriv]
    out = np.empty((dim,) + ws.k2.shape, dtype=complex)
    for m in range(dim):
        np.multiply(ik[0], products[row[0, m]], out=out[m])
        for l in range(1, dim):
            out[m] += ik[l] * products[row[l, m]]
    return _leray_hat(out, ws)


def _parseval_weights(ws: SpectralWorkspace) -> np.ndarray:
    w = np.full(ws.k2.shape, 2.0)
    w[..., 0] = 1.0
    if ws.grid.resolution[-1] % 2 == 0:
        w[..., -1] = 1.0
    return w


def _relative_divergence_hat(hats: np.ndarray, ws: SpectralWorkspace) -> float:
    """Divergence content of a vector spectrum relative to its gradient content."""
    w = _parseval_weights(ws)
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
    with np.errstate(invalid="ignore", divide="ignore"):
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
    if t == 0.0:
        return f
    if not isinstance(f, (ScalarField, VectorField)):
        raise TypeError(f"heat_convolve expects a scalar or vector field, got {type(f)!r}")
    require_same_grid(f, grid=ws.grid)
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


def duhamel_force(force: SpaceTimeField, tg: TimeGrid, ws: SpectralWorkspace) -> SpaceTimeField:
    """Heat-propagated time integral of a sampled forcing history."""
    require_same_grid(force, grid=ws.grid)
    if force.tg != tg:
        raise ValueError("force history and time grid disagree")
    return SpaceTimeField(duhamel_accumulate(lambda i: ws.forward(force.data[i]), tg, ws),
                          tg, ws.grid)


def default_radius_ladder(grid: GridSpec, count: int = 12) -> tuple[float, ...]:
    """Geometric radius ladder from a single cell up to half the box extent."""
    if count < 2:
        raise ValueError(f"ladder needs at least 2 rungs, got {count}")
    r0 = 0.49 * min(grid.spacings)
    r1 = 0.5 * min(grid.extents)
    return tuple(float(r0 * (r1 / r0) ** (i / (count - 1))) for i in range(count))


def _offset_dist2(shape: tuple[int, ...], spacings: tuple[float, ...]) -> np.ndarray:
    """Squared torus distance of every node of a periodic box from node 0."""
    axes = []
    for n, h in zip(shape, spacings):
        m = np.arange(n, dtype=float)
        axes.append(np.minimum(m, n - m) * h)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    return sum(d * d for d in mesh)


def _stack(values, grid: GridSpec) -> np.ndarray:
    """Validated float stack whose trailing axes are the grid axes."""
    arr = np.asarray(values, dtype=float)
    return _check_values(arr, grid, "stack", arr.shape[:max(arr.ndim - grid.dimension, 0)])


def _alias_free_transforms(grid: GridSpec, reach):
    """Forward and inverse real FFTs of a zero-extended stack on the smallest
    fast box with ``n + reach`` cells per axis.  A kernel reaching ``reach``
    cells then wraps onto the zero extension only, so the circular
    convolution equals the linear one on the grid."""
    box = tuple(sfft.next_fast_len(n + k, real=True) for n, k in zip(grid.resolution, reach))
    axes = tuple(range(-grid.dimension, 0))
    crop = (...,) + tuple(slice(0, n) for n in grid.resolution)
    workers = worker_count()

    def forward(values):
        return sfft.rfftn(values, s=box, axes=axes, workers=workers)

    def inverse(hat):
        return sfft.irfftn(hat, s=box, axes=axes, workers=workers)[crop]
    return box, forward, inverse


def maximal_function_stack(values, grid: GridSpec, radii) -> np.ndarray:
    """:func:`maximal_function` of every field in a ``(..., *grid.shape)`` stack.

    ``|f|`` is transformed once per field and each ball mask once per call;
    the inverse transforms run field by field to bound the memory.
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("radius ladder is empty")
    rmax = 0.5 * min(grid.extents)
    for r in radii:
        if not 0 < r <= rmax * (1 + 1e-12):
            raise ValueError(f"radius {r} outside (0, {rmax}]")
    fa = np.abs(_stack(values, grid))
    if grid.topology == TRUNCATED:
        reach = [int(np.floor(max(radii) / h)) for h in grid.spacings]
        box, forward, inverse = _alias_free_transforms(grid, reach)
    else:
        ws = make_workspace(grid)
        box, forward, inverse = grid.shape, ws.forward, ws.inverse
    dist2 = _offset_dist2(box, grid.spacings)
    fhat = forward(fa)
    out = np.zeros(fa.shape)
    batch = list(np.ndindex(fa.shape[:fa.ndim - grid.dimension]))
    for r in radii:
        mask = (dist2 <= r * r).astype(float)
        count = int(np.count_nonzero(mask))
        if count == 1:
            np.maximum(out, fa, out=out)
            continue
        mask_hat = forward(mask)
        for i in batch:
            np.maximum(out[i], inverse(fhat[i] * mask_hat) / count, out=out[i])
    return out


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
    fields are convolved one by one to bound the memory."""
    if grid.topology != TRUNCATED:
        raise ValueError("the fractional integral runs on truncated boxes")
    sigma = float(sigma)
    if not 0.0 < sigma < grid.dimension:
        raise ValueError(f"order must lie in (0, {grid.dimension}), got {sigma}")
    fa = np.abs(_stack(values, grid))
    box, forward, inverse = _alias_free_transforms(grid, [n - 1 for n in grid.resolution])
    dist2 = _offset_dist2(box, grid.spacings)
    with np.errstate(divide="ignore"):
        kernel = grid.cell_volume * dist2 ** (0.5 * (sigma - grid.dimension))
    kernel[(0,) * grid.dimension] = _diagonal_cell_integral(grid, sigma)
    kernel_hat = forward(kernel)
    out = np.empty(fa.shape)
    for i in np.ndindex(fa.shape[:fa.ndim - grid.dimension]):
        out[i] = inverse(forward(fa[i]) * kernel_hat)
    return out


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
    fa = np.abs(_stack(values, grid))
    pv = phi.values
    if np.any(pv < 0):
        raise RadialOrderError("kernel must be nonnegative")
    peak = float(pv.max())
    if peak == 0.0:
        raise RadialOrderError("kernel is identically zero")
    rolled = np.roll(pv, [-(n // 2) for n in grid.resolution],
                     axis=tuple(range(grid.dimension)))
    dist = np.sqrt(_offset_dist2(grid.shape, grid.spacings))
    order = np.argsort(dist.ravel(), kind="stable")
    sorted_vals = rolled.ravel()[order]
    slack = 1e-9 * peak
    if np.any(np.diff(sorted_vals) > slack):
        raise RadialOrderError("kernel is not radially nonincreasing about the box center")
    rmax = 0.5 * min(grid.extents)
    sorted_dist = dist.ravel()[order]
    outside = sorted_dist > rmax
    if np.any(outside) and float(sorted_vals[outside].max(initial=0.0)) > 1e-12 * peak:
        raise RadialOrderError("kernel support exceeds half the box extent")

    ws = make_workspace(grid)
    fhat = ws.forward(fa)
    conv = grid.cell_volume * ws.inverse(ws.forward(rolled) * fhat)
    l1 = grid.cell_volume * float(rolled.sum())

    support = sorted_dist[sorted_vals > 1e-13 * peak]
    r_support = min(float(support.max()) if support.size else 0.0, rmax)
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
    tail = rolled.copy()
    tail.ravel()[offsets] = 0.0
    tail = grid.cell_volume * ws.inverse(ws.forward(tail) * fhat)

    batch = fa.shape[:fa.ndim - grid.dimension]
    fa = fa.reshape((-1,) + grid.shape)
    fhat = fhat.reshape((len(fa),) + fhat.shape[fhat.ndim - grid.dimension:])
    conv = np.abs(conv).reshape(len(fa), -1)
    tail = tail.reshape(len(fa), -1)
    support_hat = ws.forward((keys <= radii[-1]).astype(float))
    live = ws.inverse(ws.forward((fa != 0).astype(float)) * support_hat) > 0.5
    live = live.reshape(len(fa), -1)

    round_off = np.finfo(float).eps * np.log2(fa[0].size)
    maximal = np.zeros(fa.shape)
    ratios = np.zeros(len(fa))

    def raise_bound(fields, balls):
        bound = maximal[fields]
        hats = fhat[fields]
        for k in balls:
            if sizes[k] == 1:
                np.maximum(bound, fa[fields], out=bound)
                continue
            average = ws.inverse(ws.forward((keys <= radii[k]).astype(float)) * hats)
            average /= sizes[k]
            np.maximum(bound, average, out=bound)
        maximal[fields] = bound

    def verify(j, budget):
        """Raise ``ratios[j]`` to its maximum; False if the budget ran out."""
        e = round_off * float(fa[j].max())
        points = np.flatnonzero(live[j])
        low = maximal[j].ravel()[points] - e
        with np.errstate(divide="ignore"):
            ub = np.where(low > 0, (conv[j, points] / l1 + e) / low, np.inf)
        rank = np.argsort(-ub, kind="stable")
        points, ub = points[rank], ub[rank]
        wrapped = np.pad(fa[j], [(p, p) for p in pad], mode="wrap").ravel()
        best = ratios[j]
        for s in range(0, points.size, _VERIFY_CHUNK):
            if ub[s] <= best * (1.0 + 4.0 * round_off):
                break
            if budget is not None and s >= budget:
                ratios[j] = best
                return False
            chunk = points[s:s + _VERIFY_CHUNK]
            gathered = wrapped[base(chunk)[:, None] + jumps]
            shell_sums = np.add.reduceat(gathered, starts, axis=1)
            mf = (np.cumsum(shell_sums, axis=1) / sizes).max(axis=1)
            num = np.abs((gathered * weights).sum(axis=1) + tail[j, chunk])
            best = max(best, float(np.max(num / (l1 * mf))))
        ratios[j] = best
        return True

    coarse = np.unique(np.searchsorted(radii, np.linspace(0.0, radii[-1], _COARSE_BALLS)))
    rest = np.setdiff1d(np.arange(radii.size), coarse)
    budget = int(rest.size * fa[0].size / (4 * offsets.size)) if rest.size else None
    pending = np.arange(len(fa))
    for balls in (coarse, rest):
        if not pending.size:
            break
        raise_bound(pending, balls)
        pending = np.array([j for j in pending if not verify(j, budget)], dtype=int)
        budget = None  # with every ball in the bound, verify to the end
    return ratios.reshape(batch)


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
