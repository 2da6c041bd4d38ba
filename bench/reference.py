"""Reference computations for the benchmark's correctness checks.

Everything here is written from the definitions with numpy and scipy only
and never imports varns, so a fault in the library cannot hide inside its
own check.  Inputs are plain arrays plus the box geometry (resolution,
extents, origin, topology) read off the library's grid objects.

Conventions shared with the library's documentation: truncated boxes sample
at cell midpoints and read fields as zero outside, periodic boxes sample at
``origin + i*h``; odd (derivative) symbols zero the self-conjugate Nyquist
bin, even ones (the heat multiplier) keep it.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp


# ---------------------------------------------------------------- geometry

class Box:
    """Uniform box: ``n`` cells per axis over ``[origin, origin + extents]``."""

    def __init__(self, resolution, extents, origin, periodic: bool):
        self.n = tuple(int(r) for r in resolution)
        self.extents = tuple(float(e) for e in extents)
        self.origin = tuple(float(o) for o in origin)
        self.periodic = bool(periodic)
        self.h = tuple(e / r for e, r in zip(self.extents, self.n))
        self.cell_volume = float(np.prod(self.h))

    @classmethod
    def of(cls, grid) -> "Box":
        return cls(grid.resolution, grid.extents, grid.origin,
                   grid.topology == "periodic")

    def axis(self, a: int) -> np.ndarray:
        i = np.arange(self.n[a], dtype=float)
        return self.origin[a] + (i if self.periodic else i + 0.5) * self.h[a]

    def radius(self) -> np.ndarray:
        """Distance from the box center, minimum image on a torus."""
        sq = np.zeros(self.n)
        for a in range(len(self.n)):
            d = np.abs(self.axis(a) - (self.origin[a] + 0.5 * self.extents[a]))
            if self.periodic:
                d = np.minimum(d, self.extents[a] - d)
            shape = [1] * len(self.n)
            shape[a] = self.n[a]
            sq = sq + (d * d).reshape(shape)
        return np.sqrt(sq)


def exponent(family: str, params, box: Box) -> np.ndarray:
    """Samples of a closed-form exponent family on a box."""
    params = tuple(float(v) for v in params)
    if family == "constant":
        return np.full(box.n, params[0])
    if family == "radial-log":
        return params[0] + params[1] / np.log(np.e + box.radius())
    if family == "gaussian-bump":
        width = params[2] if len(params) > 2 else 1.0
        return params[0] + params[1] * np.exp(-(box.radius() / width) ** 2)
    if family == "sinusoidal":
        prod = np.ones(box.n)
        for a in range(len(box.n)):
            shape = [1] * len(box.n)
            shape[a] = box.n[a]
            x = box.axis(a) - box.origin[a]
            prod = prod * np.sin(2.0 * np.pi * x / box.extents[a]).reshape(shape)
        return params[0] + params[1] * prod
    raise ValueError(f"no reference for exponent family {family!r}")


# ------------------------------------------------------------------- norms

def luxemburg(values, p, cell_volume: float) -> float:
    """Luxemburg norm by ``brentq`` on the log-modular in ``s = log(lam)``.

    ``log rho(e^s) = log w + logsumexp(p * (log|f| - s))`` is continuous and
    strictly decreasing, so its root is bracketed by stepping out from
    ``log max|f|``; solving for ``log(lam)`` makes the tolerance relative.
    """
    a = np.abs(np.asarray(values, dtype=float)).ravel()
    pp = np.broadcast_to(np.asarray(p, dtype=float), np.shape(values)).ravel()
    live = a > 0.0
    if not live.any():
        return 0.0
    la, pp = np.log(a[live]), pp[live]
    lw = np.log(cell_volume)

    def g(s: float) -> float:
        return float(lw + logsumexp(pp * (la - s)))

    lo = hi = float(la.max())
    step = 1.0
    while g(lo) <= 0.0:
        lo -= step
        step *= 2.0
    step = 1.0
    while g(hi) > 0.0:
        hi += step
        step *= 2.0
    return float(np.exp(brentq(g, lo, hi, xtol=1e-14, rtol=4.0 * np.finfo(float).eps,
                               maxiter=500)))


def classical(values, q: float, cell_volume: float) -> float:
    a = np.abs(np.asarray(values, dtype=float))
    return float((cell_volume * np.sum(a ** q)) ** (1.0 / q))


def mixed(values, p, frak_p: float, cell_volume: float) -> float:
    return max(luxemburg(values, p, cell_volume), classical(values, frak_p, cell_volume))


# ---------------------------------------------------------------- spectral

class Torus:
    """Real-FFT wavenumber tables of a periodic 3-d box."""

    def __init__(self, box: Box):
        if not box.periodic or len(box.n) != 3:
            raise ValueError("spectral reference needs a 3-d torus")
        self.box = box
        k_full, k_odd = [], []
        for a, (n, h) in enumerate(zip(box.n, box.h)):
            last = a == 2
            freq = np.fft.rfftfreq(n, d=h) if last else np.fft.fftfreq(n, d=h)
            k = 2.0 * np.pi * freq
            kd = k.copy()
            if n % 2 == 0:
                kd[-1 if last else n // 2] = 0.0
            shape = [1, 1, 1]
            shape[a] = k.size
            k_full.append(k.reshape(shape))
            k_odd.append(kd.reshape(shape))
        self.kd = k_odd
        self.k2 = sum(k * k for k in k_full)
        self.kd2 = sum(k * k for k in k_odd)

    def fwd(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(values, axes=(-3, -2, -1))

    def inv(self, hat: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(hat, s=self.box.n, axes=(-3, -2, -1))

    def leray(self, g: np.ndarray) -> np.ndarray:
        """Remove the gradient part of stacked spectra ``g[m]``; mean mode kept."""
        dot = sum(self.kd[j] * g[j] for j in range(3))
        live = self.kd2 > 0.0
        scale = np.where(live, dot / np.where(live, self.kd2, 1.0), 0.0)
        return np.stack([g[j] - self.kd[j] * scale for j in range(3)])

    def transport_hat(self, u: np.ndarray) -> np.ndarray:
        """Spectrum of ``P div(u (x) u)`` for one frame ``u[m]``."""
        g = np.zeros((3,) + self.k2.shape, dtype=complex)
        for l in range(3):
            for m in range(3):
                g[m] += 1j * self.kd[l] * self.fwd(u[l] * u[m])
        return self.leray(g)

    def relative_divergence(self, u: np.ndarray) -> float:
        """Divergence content of one frame against its gradient content."""
        hats = self.fwd(u)
        w = np.full(self.k2.shape, 2.0)
        w[..., 0] = 1.0
        if self.box.n[2] % 2 == 0:
            w[..., -1] = 1.0
        div = sum(self.kd[j] * hats[j] for j in range(3))
        num = np.sum(w * np.abs(div) ** 2)
        den = np.sum(w * self.kd2 * np.sum(np.abs(hats) ** 2, axis=0))
        return 0.0 if den == 0.0 else float(np.sqrt(num / den))


def duhamel(hat_at_node, steps: int, dt: float, torus: Torus):
    """Trapezoid Duhamel sum ``int_0^t e^{(t-s) Lap} g(s) ds``, node by node.

    Yields the physical frame at every node, starting with the zero frame at
    node 0.  Over one step the trapezoid rule applied to the closed-form
    integrand gives ``acc_i = d*acc_{i-1} + dt/2 * (d*g_{i-1} + g_i)`` with
    ``d = exp(-dt |k|^2)``.
    """
    decay = np.exp(-dt * torus.k2)
    prev = hat_at_node(0)
    acc = np.zeros_like(prev)
    yield np.zeros((3,) + torus.box.n)
    for i in range(1, steps + 1):
        cur = hat_at_node(i)
        acc = decay * acc + 0.5 * dt * (decay * prev + cur)
        prev = cur
        yield torus.inv(acc)


def initial_frames(u0: np.ndarray, force, steps: int, T: float, torus: Torus):
    """Heat flow of ``u0`` plus the Duhamel sum of a sampled force, per node."""
    dt = T / steps
    u0_hat = torus.fwd(u0)
    forced = None
    if force is not None:
        forced = duhamel(lambda i: torus.fwd(force[i]), steps, dt, torus)
    for i in range(steps + 1):
        frame = torus.inv(np.exp(-(i * dt) * torus.k2) * u0_hat)
        if forced is not None:
            frame = frame + next(forced)
        yield frame


class RegimeNorm:
    """Streaming energy norm of a space-time stack fed one frame at a time.

    ``thm1``: mixed norm of the pointwise supremum over time of ``|u|``.
    ``thm2``: Luxemburg norm in time of the node-wise ``L^q`` norms averaged
    onto the time cells, against the temporal exponent ``p``.
    """

    def __init__(self, regime: str, p: np.ndarray, box: Box, dt: float,
                 q: float | None = None, frak_p: float = 3.0):
        self.regime, self.p, self.box, self.dt = regime, p, box, dt
        self.q, self.frak_p = q, frak_p
        self.sup2 = None
        self.nodes: list[float] = []

    def add(self, frame: np.ndarray) -> None:
        mag2 = np.sum(frame * frame, axis=0)
        if self.regime == "thm1":
            self.sup2 = mag2 if self.sup2 is None else np.maximum(self.sup2, mag2)
        else:
            self.nodes.append(classical(np.sqrt(mag2), self.q, self.box.cell_volume))

    def value(self) -> float:
        if self.regime == "thm1":
            return mixed(np.sqrt(self.sup2), self.p, self.frak_p, self.box.cell_volume)
        nodes = np.asarray(self.nodes)
        return luxemburg(0.5 * (nodes[:-1] + nodes[1:]), self.p, self.dt)


def fixed_point_check(u: np.ndarray, u0: np.ndarray, force, T: float, torus: Torus,
                      norm_of) -> dict:
    """Residual ``u - e0 + B(u)`` of the mild equation and the norms around it.

    ``u`` is the returned stack ``u[node, m, ...]``; ``norm_of()`` makes a
    fresh :class:`RegimeNorm`.  Everything streams over nodes, so at most a
    few frames are alive beside ``u``.  Returns the residual norm, the norm
    of ``e0`` (the data size), the norm of ``u`` and the worst relative
    divergence over the nodes.
    """
    steps = u.shape[0] - 1
    dt = T / steps
    e0_frames = initial_frames(u0, force, steps, T, torus)
    b_frames = duhamel(lambda i: torus.transport_hat(u[i]), steps, dt, torus)
    res, e0n, un = norm_of(), norm_of(), norm_of()
    worst_div = 0.0
    for i in range(steps + 1):
        e0 = next(e0_frames)
        res.add(u[i] - e0 + next(b_frames))
        e0n.add(e0)
        un.add(u[i])
        worst_div = max(worst_div, torus.relative_divergence(u[i]))
    return {"residual": res.value(), "delta": e0n.value(), "norm": un.value(),
            "divergence": worst_div}


# ------------------------------------------------------- real-space operators

def _shifted(padded: np.ndarray, pad: int, offset, n) -> np.ndarray:
    sl = tuple(slice(pad + o, pad + o + m) for o, m in zip(offset, n))
    return padded[sl]


def maximal_truncated(f: np.ndarray, radii, box: Box) -> np.ndarray:
    """Max over radii of ball averages of ``|f|``, zero outside the box.

    A ball holds the cells whose center offsets lie within the radius; sums
    are accumulated offset by offset in order of distance.
    """
    fa = np.abs(f)
    radii = sorted(float(r) for r in radii)
    half = [int(np.floor(radii[-1] / h)) for h in box.h]
    pad = max(half)
    padded = np.pad(fa, pad)
    grids = np.meshgrid(*[np.arange(-k, k + 1) for k in half], indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    dist2 = sum((offs[:, a] * box.h[a]) ** 2 for a in range(len(box.n)))
    order = np.argsort(dist2, kind="stable")
    offs, dist2 = offs[order], dist2[order]
    total = np.zeros(box.n)
    count = 0
    out = np.zeros(box.n)
    j = 0
    for r in radii:
        while j < len(dist2) and dist2[j] <= r * r:
            total += _shifted(padded, pad, offs[j], box.n)
            count += 1
            j += 1
        np.maximum(out, total / count, out=out)
    return out


def radius_ladder(box: Box, count: int = 12) -> list[float]:
    r0 = 0.49 * min(box.h)
    r1 = 0.5 * min(box.extents)
    return [r0 * (r1 / r0) ** (i / (count - 1)) for i in range(count)]


def fractional_integral(f: np.ndarray, sigma: float, box: Box,
                        chunk: int = 256) -> np.ndarray:
    """``sum_y |f(y)| K(x - y)`` by direct summation over every pair.

    ``K`` is the cell volume times ``|x - y|^(sigma - n)`` off the diagonal
    and the exact integral of ``|y|^(sigma - n)`` over the singular cell on
    it (an equal-volume ball in three dimensions).
    """
    dim = len(box.n)
    pts = np.stack([g.ravel() for g in np.meshgrid(
        *[box.axis(a) for a in range(dim)], indexing="ij")], axis=1)
    fa = np.abs(f).ravel()
    if dim == 1:
        diag = 2.0 * (0.5 * box.h[0]) ** sigma / sigma
    else:
        r_eq = (3.0 * box.cell_volume / (4.0 * np.pi)) ** (1.0 / 3.0)
        diag = 4.0 * np.pi * r_eq ** sigma / sigma
    out = np.empty(fa.size)
    for start in range(0, fa.size, chunk):
        x = pts[start:start + chunk]
        d2 = np.sum((x[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        with np.errstate(divide="ignore"):
            k = box.cell_volume * d2 ** (0.5 * (sigma - dim))
        k[d2 == 0.0] = diag
        out[start:start + chunk] = k @ fa
    return out.reshape(box.n)


def radial_majorant(phi_of_distance, f: np.ndarray, box: Box) -> float:
    """Worst ``|phi * f| / (L1(phi) * M f)`` on a torus by direct summation.

    ``phi`` is given as a function of the offset distance; ``M f`` is the
    maximal average over every ball of whole offset shells inside the
    support of ``phi`` (at most half the box).
    """
    fa = np.abs(f)
    grids = np.meshgrid(*[np.arange(m) for m in box.n], indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    wrapped = np.minimum(offs, np.asarray(box.n) - offs)
    dist = np.sqrt(np.sum((wrapped * np.asarray(box.h)) ** 2, axis=1))
    weights = phi_of_distance(dist)
    peak = weights.max()
    rmax = 0.5 * min(box.extents)
    support = dist[weights > 1e-13 * peak]
    r_support = min(float(support.max()), rmax)
    # shells keyed by the exact integer norm of the offset (cubic grids)
    key = np.sum(wrapped * wrapped, axis=1)
    conv = np.zeros(box.n)
    total = np.zeros(box.n)
    maximal = np.zeros(box.n)
    count = 0
    for k in np.unique(key):
        shell = np.nonzero(key == k)[0]
        inside = dist[shell[0]] <= r_support * (1 + 1e-12)
        for idx in shell:
            rolled = np.roll(fa, tuple(offs[idx]), axis=(0, 1, 2))
            conv += weights[idx] * rolled
            if inside:
                total += rolled
                count += 1
        if inside:
            np.maximum(maximal, total / count, out=maximal)
    conv *= box.cell_volume
    l1 = box.cell_volume * float(weights.sum())
    denom = l1 * maximal
    live = denom > 0
    return float(np.max(np.abs(conv[live]) / denom[live]))


def grad_heat_gap(t: float, r: float) -> float:
    """``|grad g_t(x)| (t^2 + |x|^4)`` for the 3-d heat kernel at ``|x| = r``."""
    g = (4.0 * np.pi * t) ** -1.5 * np.exp(-r * r / (4.0 * t))
    return r / (2.0 * t) * g * (t * t + r ** 4)
