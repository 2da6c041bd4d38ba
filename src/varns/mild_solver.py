"""Fixed-point construction of mild solutions on the torus.

The iteration is ``u_{n+1} = e0 - B(u_n, u_n)`` with ``e0`` the heat flow
of the data plus the accumulated forcing, and ``B`` the heat-propagated
projected transport term.  Under the measured smallness gate
``delta < 1 / (4 c_B)`` the increments contract geometrically and the
limit stays within ``2 delta`` in the regime norm.

Two regimes are supported: ``thm1`` measures iterates in a mixed norm of
the pointwise-in-space supremum over time, ``thm2`` in a Luxemburg norm in
time of the spatial fixed-exponent norm trace.  Every spectral step (the
transforms, divergence, Leray projection and transport spectrum) comes from
:mod:`varns.operators`, and every Duhamel sum (``e0``, ``B(u)`` and each
iterate) is a stream of its one recurrence,
:func:`~varns.operators.duhamel_frames`.

A solve holds one space-time stack.  ``B(u)`` is causal, so each iterate is
one sweep over the nodes: the transport spectrum of ``u[i]`` and the force
spectrum advance one Duhamel accumulator that also carries the data's heat
flow, the new frame is one inverse transform of it, and the frame is
measured against ``u[i]`` and then written over it.  ``e0`` is the same
sweep without transport, and the residual a sweep that does not write.

Every transport stream is a two-stage pipeline on one helper thread.  The
transport spectrum of node ``i + 1`` reads only the old ``u[i + 1]``, never
the accumulator, so the helper forms it while the calling thread advances
the accumulator, inverts, checks and measures node ``i`` and writes
``u[i]``.  A spectrum the helper has not started when it is needed is
formed by the calling thread.  Either thread computes it with the same
arithmetic, so every output is bit for bit that of a serial sweep.  The
helper belongs to the call that streams (:func:`picard_solve`,
:func:`estimate_bilinear_constant` or :func:`bilinear_term`) and is shut
down when that call returns or raises.  ``VARNS_THREADS`` still sets the
FFT workers of each transform.

The ``thm2`` gate also scans shorter horizons.  ``e0`` is causal, so on
``[0, t_k]`` it is the first ``k`` time cells of the one stream the gate
measures, and every horizon rung is a Luxemburg norm of a prefix of that
stream's norm trace.
"""
from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField, exponent_from_samples
from .fields import (
    PERIODIC,
    TRUNCATED,
    GridSpec,
    ScalarField,
    SpaceTimeField,
    TensorField,
    TimeGrid,
    VectorField,
)
from .operators import (
    SpectralWorkspace,
    _div_hat,
    _relative_divergence_hat,
    _transport_hat,
    duhamel_accumulate,
    duhamel_frames,
    leray_project,
    make_workspace,
)
from .varlp import NormValue, luxemburg_norm, mixed_norm

_DIV_TOL = 1e-8


def _physical_ram() -> int | None:
    """Bytes of physical memory, or ``None`` where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


class SmallnessError(RuntimeError):
    """The data are too large for the contraction gate and no override was set."""


class PicardBlowupError(FloatingPointError):
    """An iterate produced non-finite values."""


class ForceDivergenceError(ValueError):
    """The forcing is not divergence-free to the required tolerance."""


@dataclass(frozen=True)
class SolverConfig:
    """Everything one fixed-point run needs.

    ``p`` is the spatial exponent field for ``thm1`` (on the flow grid) or
    the temporal one for ``thm2`` (on a 1d grid over ``[0, T]`` with one
    cell per time step).  ``u0`` is projected divergence-free on
    construction.  ``tol_norm`` is the relative tolerance of every
    Luxemburg norm the run takes.  A config whose solve would not fit in
    physical RAM is refused: the solve holds one float64
    ``(steps + 1, 3, *grid)`` stack, plus the complex spectra of a sampled
    force.
    """

    regime: str
    p: ExponentField
    q: float | None
    frak_p: float
    tol_fixedpoint: float
    max_iters: int
    tol_norm: float
    u0: VectorField
    force_spec: TensorField | SpaceTimeField | None
    tg: TimeGrid

    def __post_init__(self):
        if self.regime not in ("thm1", "thm2"):
            raise ValueError(f"regime must be 'thm1' or 'thm2', got {self.regime!r}")
        grid = self.u0.grid
        if grid.topology != PERIODIC or grid.dimension != 3:
            raise ValueError("the flow grid must be a three-dimensional torus")
        if not 1.0 < self.frak_p < math.inf:
            raise ValueError(f"frak_p must exceed 1 and be finite, got {self.frak_p}")
        if not (0.0 < self.tol_fixedpoint < math.inf and 0.0 < self.tol_norm < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 1 <= self.max_iters < math.inf:
            raise ValueError(f"max_iters must be finite and at least 1, got {self.max_iters}")
        self._check_memory()
        if self.regime == "thm1":
            if self.p.grid != grid:
                raise ValueError("thm1 exponent field must live on the flow grid")
        else:
            self._check_thm2_exponents()
        if isinstance(self.force_spec, TensorField):
            if self.force_spec.grid != grid:
                raise ValueError("tensor force must live on the flow grid")
        elif isinstance(self.force_spec, SpaceTimeField):
            if self.force_spec.grid != grid or self.force_spec.tg != self.tg:
                raise ValueError("sampled force must share the flow grid and time grid")
        elif self.force_spec is not None:
            raise TypeError(f"unsupported force specification {type(self.force_spec)!r}")
        ws = make_workspace(grid)
        object.__setattr__(self, "u0", leray_project(self.u0, ws))

    def _check_memory(self):
        grid, nodes = self.u0.grid, self.tg.steps + 1
        stack = 8 * nodes * 3 * math.prod(grid.shape)
        spectra = 0
        if isinstance(self.force_spec, SpaceTimeField):
            half = grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)
            spectra = 16 * nodes * 3 * math.prod(half)
        ram = _physical_ram()
        if ram is not None and stack + spectra > ram:
            raise ValueError(
                f"a solve on the {grid.shape} grid with {self.tg.steps} time steps "
                f"needs about {stack + spectra} bytes (a space-time stack of {stack} "
                f"bytes and {spectra} bytes of force spectra), more than the {ram} "
                f"bytes of RAM available")

    def _check_thm2_exponents(self):
        p, q = self.p, self.q
        if q is None:
            raise ValueError("thm2 needs the fixed spatial exponent q")
        g = p.grid
        if g.dimension != 1 or g.topology != TRUNCATED:
            raise ValueError("thm2 exponent must be sampled on a 1d interval")
        if abs(g.extents[0] - self.tg.T) > 1e-12 * max(1.0, self.tg.T):
            raise ValueError("thm2 exponent interval must cover [0, T]")
        if g.resolution[0] != self.tg.steps:
            raise ValueError("thm2 exponent needs one sample per time step")
        if p.p_minus <= 2.0:
            raise ValueError(f"thm2 needs p > 2 everywhere, got minimum {p.p_minus}")
        if not 3.0 < q < math.inf:
            raise ValueError(f"thm2 needs a finite q > 3, got {q}")
        worst = float(np.max(2.0 / p.samples + 3.0 / q))
        if worst >= 1.0:
            raise ValueError(
                f"thm2 scaling condition 2/p(t) + 3/q < 1 fails, worst value {worst:.6f}"
            )


@dataclass(frozen=True)
class SmallnessVerdict:
    """Measured smallness gate: data size against the contraction threshold.

    ``ladder`` holds ``(T', delta, threshold, passed)`` rows for the node
    horizons ``T' = t_k``, ``k = steps, ..., 2`` (``thm2`` only, largest
    first).  Row 0 is the full horizon, and its ``delta`` is ``delta``.
    ``admissible_T`` is the largest passing horizon, ``None`` when none
    passes.
    """

    delta: float
    threshold: float
    c_b: float
    passed: bool
    admissible_T: float | None = None
    ladder: tuple[tuple[float, float, float, bool], ...] = ()


@dataclass(frozen=True)
class SolverResult:
    """Outcome of a fixed-point run."""

    iterates_norms: tuple[float, ...]
    increments: tuple[float, ...]
    final: SpaceTimeField
    residual: float
    contraction_estimate: float | None
    c_b_estimate: float
    smallness: SmallnessVerdict
    converged: bool
    divergence_defect: float


def initial_term(u0: VectorField, force_spec, tg: TimeGrid,
                 ws: SpectralWorkspace) -> SpaceTimeField:
    """Heat flow of the data plus the accumulated forcing history.

    The forcing may be ``None``, a static tensor whose row divergence is
    the force, or a sampled space-time history.  Either way the resulting
    force must be divergence-free to ``1e-8`` relative or the call fails.
    A static force is transformed once and a sampled one once per node,
    and each node costs one inverse transform (:func:`_e0_frames`).
    :func:`smallness_check` and :func:`picard_solve` measure the same
    frames without storing them.
    """
    grid = ws.grid
    if u0.grid != grid:
        raise ValueError("data and workspace grids differ")
    data = np.empty((tg.steps + 1, grid.dimension) + grid.shape)
    for i, frame in enumerate(_e0_frames(u0, force_spec, tg, ws)):
        data[i] = frame
    return SpaceTimeField(data, tg, grid)


def _e0_frames(u0: VectorField, force_spec, tg: TimeGrid, ws: SpectralWorkspace):
    """Node frames of ``e0``: the data's spectrum starts the Duhamel
    accumulator of the checked force, whose one-step decay carries the
    data's heat flow, so each node costs one inverse transform."""
    return duhamel_frames(_force_at_nodes(force_spec, tg, ws), tg, ws, ws.forward(u0.values))


def _check_force(hat: np.ndarray, what: str, ws: SpectralWorkspace) -> None:
    defect = _relative_divergence_hat(hat, ws)
    if defect > _DIV_TOL:
        raise ForceDivergenceError(f"{what} has relative divergence {defect:.3e} > {_DIV_TOL}")


def _force_at_nodes(force_spec, tg: TimeGrid, ws: SpectralWorkspace):
    """Checked ``hat_at_node`` of a forcing on ``tg``: ``None`` for no
    forcing, the static spectrum of a tensor's row divergence at every node,
    or the spectra of a sampled history, each node transformed once."""
    grid = ws.grid
    if force_spec is None:
        return None
    if isinstance(force_spec, TensorField):
        if force_spec.grid != grid:
            raise ValueError("tensor force and workspace grids differ")
        hat = _div_hat(ws.forward(force_spec.values), ws)
        _check_force(hat, "tensor force", ws)
        return lambda i: hat
    if isinstance(force_spec, SpaceTimeField):
        if force_spec.grid != grid or force_spec.tg != tg:
            raise ValueError("sampled force does not match the requested grids")
        hats = np.empty((tg.steps + 1, grid.dimension) + ws.k2.shape, dtype=complex)
        for i, frame in enumerate(force_spec.data):
            hats[i] = ws.forward(frame)
            _check_force(hats[i], "sampled force", ws)
        return hats.__getitem__
    raise TypeError(f"unsupported force specification {type(force_spec)!r}")


def bilinear_term(u: SpaceTimeField, ws: SpectralWorkspace) -> SpaceTimeField:
    """Heat-propagated projected transport term of ``u`` against itself."""
    if u.grid != ws.grid:
        raise ValueError("field and workspace grids differ")
    with ThreadPoolExecutor(max_workers=1) as pool:
        data = duhamel_accumulate(_transport_at_nodes(u.data, ws, pool), u.tg, ws)
    return SpaceTimeField(data, u.tg, u.grid)


def _transport_at_nodes(u: np.ndarray, ws: SpectralWorkspace, pool: ThreadPoolExecutor):
    """``hat_at_node`` of the transport spectrum of a history stack ``u``,
    formed on ``pool``'s one thread a node ahead of the caller.

    Handing out node ``i`` starts node ``i + 1``, so that spectrum is formed
    while the caller advances its accumulator, inverts and measures node
    ``i``.  The job for node ``i + 1`` reads only ``u[i + 1]``, which
    :func:`~varns.operators.duhamel_frames` lets the caller overwrite only
    after that node is handed out and yielded.  Each job runs in a copy of
    the submitting context, so it keeps the caller's numpy error state.  A
    node whose job has not started (node 0 of each sweep, or any node while
    the helper waits for a core) is formed by the calling thread instead, so
    a sweep never waits for the helper to start a job.
    """
    ahead = None  # the node in flight and its future

    def submit(i: int):
        return pool.submit(contextvars.copy_context().run, _transport_hat, u[i], ws)

    def hat(i: int) -> np.ndarray:
        nonlocal ahead
        job = ahead[1] if ahead is not None and ahead[0] == i else None
        ahead = (i + 1, submit(i + 1)) if i + 1 < len(u) else None
        if job is None or job.cancel():
            return _transport_hat(u[i], ws)
        return job.result()
    return hat


def _iterate_at_nodes(u: np.ndarray, force, ws: SpectralWorkspace, pool: ThreadPoolExecutor):
    """``hat_at_node`` of the next iterate ``e0 - B(u)``: the force spectrum
    (``force`` is a ``hat_at_node`` or ``None``) minus the transport
    spectrum of ``u`` at the same node, which is formed a node ahead on
    ``pool``."""
    transport = _transport_at_nodes(u, ws, pool)

    def hat(i: int) -> np.ndarray:
        g = transport(i)
        return np.negative(g, out=g) if force is None else force(i) - g
    return hat


class _Trace:
    """A regime norm fed one node frame ``(dim, *space)`` at a time, so a
    history, or the difference of two, is measured without holding it.

    ``thm1`` keeps the pointwise supremum over time of ``|u|^2`` for the
    mixed norm; ``thm2`` keeps the spatial ``L^q`` norm at each node, which
    is averaged onto time cells for the Luxemburg norm in time, over every
    cell or over a prefix of them.
    """

    def __init__(self, regime: str, grid: GridSpec, tg: TimeGrid, p: ExponentField,
                 q: float | None = None, frak_p: float = 3.0, tol: float = 1e-8):
        if regime == "thm2":
            g = p.grid
            if g.dimension != 1 or g.resolution[0] != tg.steps:
                raise ValueError("temporal exponent needs one sample per time step")
            if abs(g.extents[0] - tg.T) > 1e-12 * max(1.0, tg.T):
                raise ValueError("temporal exponent interval must cover [0, T]")
        self.regime, self.grid, self.tg, self.p = regime, grid, tg, p
        self.q, self.frak_p, self.tol = q, frak_p, tol
        self.sup = None
        self.nodes = []

    def add(self, frame: np.ndarray) -> None:
        mag2 = np.sum(frame * frame, axis=0)
        if self.regime == "thm1":
            self.sup = mag2 if self.sup is None else np.maximum(self.sup, mag2, out=self.sup)
        else:
            q = self.q
            self.nodes.append((self.grid.cell_volume * np.sum(np.sqrt(mag2) ** q)) ** (1.0 / q))

    def feed(self, frames) -> _Trace:
        for frame in frames:
            self.add(frame)
        return self

    def norm(self, k: int | None = None) -> NormValue:
        """The regime norm of the frames fed.  For ``thm2``, ``k`` restricts
        it to the first ``k`` time cells, ``[0, t_k]``, against the samples
        of ``p`` on those cells; ``None`` takes every cell."""
        if self.regime == "thm1":
            return mixed_norm(ScalarField(np.sqrt(self.sup), self.grid), self.p,
                              self.frak_p, self.tol)
        nodes = np.array(self.nodes)
        cells = 0.5 * (nodes[:-1] + nodes[1:])
        p = self.p
        if k is not None and k != cells.size:
            p = exponent_from_samples(
                p.samples[:k], GridSpec(1, (self.tg.nodes[k],), (k,), TRUNCATED))
        return luxemburg_norm(ScalarField(cells[:k], p.grid), p, self.tol)


def _trace(cfg: SolverConfig) -> _Trace:
    return _Trace(cfg.regime, cfg.u0.grid, cfg.tg, cfg.p, cfg.q, cfg.frak_p, cfg.tol_norm)


def norm_E_thm1(u: SpaceTimeField, p: ExponentField, frak_p: float = 3.0,
                tol: float = 1e-8) -> NormValue:
    """Mixed norm of the pointwise supremum over time of ``|u|``."""
    return _Trace("thm1", u.grid, u.tg, p, frak_p=frak_p, tol=tol).feed(u.data).norm()


def norm_E_thm2(u: SpaceTimeField, p: ExponentField, q: float,
                tol: float = 1e-8) -> NormValue:
    """Luxemburg norm in time of the spatial fixed-exponent norm trace.

    Node values are averaged onto time cells so the trace lives on the same
    midpoint grid as the temporal exponent.
    """
    return _Trace("thm2", u.grid, u.tg, p, q, tol=tol).feed(u.data).norm()


def regime_norm(u: SpaceTimeField, cfg: SolverConfig) -> NormValue:
    if cfg.regime == "thm1":
        return norm_E_thm1(u, cfg.p, cfg.frak_p, cfg.tol_norm)
    return norm_E_thm2(u, cfg.p, cfg.q, cfg.tol_norm)


def _random_divfree_history(grid: GridSpec, tg: TimeGrid,
                            rng: np.random.Generator, modes: int = 2) -> SpaceTimeField:
    coords = grid.coords()
    data = np.zeros((tg.steps + 1, grid.dimension) + grid.shape)
    for _ in range(modes):
        while True:
            n = rng.integers(-2, 3, size=grid.dimension)
            if np.any(n != 0):
                break
        e = rng.standard_normal(grid.dimension)
        nf = n.astype(float)
        e = e - nf * (nf @ e) / (nf @ nf)
        if np.linalg.norm(e) < 1e-8:
            e = np.roll(nf, 1) - nf * (nf @ np.roll(nf, 1)) / (nf @ nf)
        e = e / np.linalg.norm(e)
        amp = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(2.0 * np.pi * n[a] * (coords[a] - grid.origin[a]) / grid.extents[a]
                  for a in range(grid.dimension))
        wave = amp * np.cos(arg + phase)
        omega = rng.uniform(0.0, 2.0 * np.pi)
        psi = rng.uniform(0.0, 2.0 * np.pi)
        mod = 1.0 + 0.5 * np.cos(omega * tg.nodes + psi)
        for i in range(tg.steps + 1):
            for m in range(grid.dimension):
                data[i, m] += mod[i] * e[m] * wave
    return SpaceTimeField(data, tg, grid)


def estimate_bilinear_constant(regime: str, p: ExponentField, q: float | None,
                               tg: TimeGrid, ws: SpectralWorkspace,
                               trials: int = 3, seed: int = 0,
                               frak_p: float = 3.0, tol: float = 1e-8) -> float:
    """Measured operator constant: worst ``norm(B(u,u)) / norm(u)^2`` over trials.

    Trial fields are seeded divergence-free plane-wave packets with smooth
    time modulation, so repeated calls are deterministic and more trials
    can only raise the estimate.  ``B(u,u)`` is streamed node by node into
    its norm, so one trial stack is the only history held.  The transport
    spectrum of the next node is formed on one helper thread while the
    current node is accumulated, inverted and measured.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(seed)
    best = 0.0
    with ThreadPoolExecutor(max_workers=1) as pool:
        for _ in range(trials):
            u = _random_divfree_history(ws.grid, tg, rng).data
            nu = _Trace(regime, ws.grid, tg, p, q, frak_p, tol).feed(u).norm().value
            frames = duhamel_frames(_transport_at_nodes(u, ws, pool), tg, ws)
            nb = _Trace(regime, ws.grid, tg, p, q, frak_p, tol).feed(frames).norm().value
            del u, frames  # the next trial is drawn with this one released
            if nu > 0:
                best = max(best, nb / (nu * nu))
    return best


def smallness_check(cfg: SolverConfig, c_b: float) -> SmallnessVerdict:
    """Measure the data size and compare against the contraction threshold.

    ``c_b`` must be positive and finite; it is checked before any transform.
    ``e0`` is streamed node by node into its norm trace, never stored: the
    force is transformed once, and the data's spectrum starts the Duhamel
    accumulator, so each node frame is one inverse transform.

    For ``thm2`` the shorter horizons ``T' = t_k``, ``k = steps, ..., 2``,
    are scanned as well.  ``e0`` is causal, so on ``[0, t_k]`` it is the
    first ``k`` cells of the stream just measured: a rung's data size is the
    Luxemburg norm of that prefix of the norm trace, against the samples of
    ``p`` on the same cells.  That norm only grows with the horizon, so the
    passing rungs are the shortest ones.  The rung thresholds rescale the
    measured constant by ``(1 + T') / (1 + T)``.  That horizon dependence is
    assumed, not measured: the library estimates ``c_B`` at the full horizon
    only.
    """
    _check_constant(c_b)
    ws = make_workspace(cfg.u0.grid)
    frames = _e0_frames(cfg.u0, cfg.force_spec, cfg.tg, ws)
    return _smallness(cfg, c_b, _trace(cfg).feed(frames))


def _check_constant(c_b: float) -> None:
    if not 0.0 < c_b < math.inf:
        raise ValueError(f"bilinear constant must be positive and finite, got {c_b}")


def _smallness(cfg: SolverConfig, c_b: float, trace: _Trace) -> SmallnessVerdict:
    # the gate on the norm trace of e0; each thm2 rung is a prefix of it
    delta = trace.norm().value
    threshold = 1.0 / (4.0 * c_b)
    passed = delta < threshold
    if cfg.regime != "thm2":
        return SmallnessVerdict(delta, threshold, c_b, passed)

    ladder = []
    for k in range(cfg.tg.steps, 1, -1):
        T_cand = float(cfg.tg.nodes[k])
        delta_cand = trace.norm(k).value
        c_cand = c_b * (1.0 + T_cand) / (1.0 + cfg.tg.T)
        thr_cand = 1.0 / (4.0 * c_cand)
        ladder.append((T_cand, delta_cand, thr_cand, delta_cand < thr_cand))
    admissible = next((row[0] for row in ladder if row[3]), None)
    return SmallnessVerdict(delta, threshold, c_b, passed, admissible, tuple(ladder))


def _sweep(cfg: SolverConfig, u: np.ndarray, frames, what: str,
           write: bool = True) -> tuple[_Trace, _Trace]:
    """Measure a stream of node frames against the stack ``u``: the traces
    of ``frame - u[i]`` and of ``frame``.  Each frame must be finite, and
    with ``write`` it replaces ``u[i]`` once it has been measured."""
    step, size = _trace(cfg), _trace(cfg)
    for i, frame in enumerate(frames):
        if not np.isfinite(frame).all():
            raise PicardBlowupError(f"{what} produced non-finite values")
        step.add(frame - u[i])
        size.add(frame)
        if write:
            u[i] = frame
    return step, size


def picard_solve(cfg: SolverConfig, c_b: float | None = None, trials: int = 3,
                 seed: int = 0, disable_bilinear: bool = False,
                 override_smallness: bool = False) -> SolverResult:
    """Run the fixed-point iteration until the increments drop below tolerance.

    The solve holds one ``(steps + 1, 3, *grid)`` stack ``u``, plus the
    spectra of a sampled force, transformed once for ``e0`` and every
    iterate.  A given ``c_b`` must be positive and finite; when not given,
    ``c_B`` is estimated before ``u`` is allocated.  ``e0`` is never stored:
    its frames fill ``u`` and stream into the norm trace that the gate and
    its ``thm2`` ladder read.  Each iterate is one sweep that forms
    ``e0 - B(u)`` at node ``i`` as one spectral sum and one inverse
    transform, checks the frame is finite, measures it and its increment,
    and overwrites ``u[i]``.  The residual is that sweep without the write.
    Each sweep runs in two stages: one helper thread forms the transport
    spectrum of node ``i + 1`` from the old ``u[i + 1]`` while this thread
    does the rest of node ``i`` (and forms any spectrum the helper has not
    started).  The helper lives for this call only.

    ``disable_bilinear`` switches the transport term off (the linear heat
    limit); ``override_smallness`` lets the run proceed past a failed gate,
    reporting the failure in the verdict instead of raising.  Non-finite
    frames raise :class:`PicardBlowupError`.
    """
    ws = make_workspace(cfg.u0.grid)
    if c_b is None:
        c_b = estimate_bilinear_constant(
            cfg.regime, cfg.p, cfg.q, cfg.tg, ws, trials, seed, cfg.frak_p, cfg.tol_norm)
        if c_b == 0.0:
            c_b = 1e-30
    _check_constant(c_b)
    tg, grid = cfg.tg, cfg.u0.grid
    u0_hat = ws.forward(cfg.u0.values)
    force = _force_at_nodes(cfg.force_spec, tg, ws)
    u = np.zeros((tg.steps + 1, grid.dimension) + grid.shape)
    _, size = _sweep(cfg, u, duhamel_frames(force, tg, ws, u0_hat), "the initial term")
    verdict = _smallness(cfg, c_b, size)
    if not verdict.passed and not override_smallness:
        raise SmallnessError(
            f"data norm {verdict.delta:.6e} is not below the contraction "
            f"threshold {verdict.threshold:.6e}; pass override_smallness=True to force"
        )

    norms = [verdict.delta]
    increments: list[float] = []
    converged = False
    residual = 0.0
    with ThreadPoolExecutor(max_workers=1) as pool:
        hat = force if disable_bilinear else _iterate_at_nodes(u, force, ws, pool)
        for n in range(1, cfg.max_iters + 1):
            step, size = _sweep(cfg, u, duhamel_frames(hat, tg, ws, u0_hat), f"iterate {n}")
            d = step.norm().value
            increments.append(d)
            norms.append(size.norm().value)
            if d <= cfg.tol_fixedpoint:
                converged = True
                break

        if not disable_bilinear:
            # residual of the fixed-point equation, which is also the next increment
            step, _ = _sweep(cfg, u, duhamel_frames(hat, tg, ws, u0_hat), "the residual",
                             write=False)
            residual = step.norm().value

    contraction = None
    positive = [(a, b) for a, b in zip(increments, increments[1:]) if a > 0]
    if positive:
        contraction = max(b / a for a, b in positive)

    div_defect = 0.0
    for frame in u:
        div_defect = max(div_defect, _relative_divergence_hat(ws.forward(frame), ws))

    return SolverResult(tuple(norms), tuple(increments), SpaceTimeField(u, tg, grid),
                        residual, contraction, c_b, verdict, converged, div_defect)
