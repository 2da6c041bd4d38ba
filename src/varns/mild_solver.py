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

A forcing is a :class:`~varns.fields.SeparableField`, a sum of modes
``m_j(t) F_j(x)``: each ``F_j`` is transformed once, and node ``i``'s
spectrum ``sum_j m_j(t_i) F^_j`` is checked for divergence before the first
inverse transform (:func:`_force_at_nodes`).  The ``c_B`` trials are
two-mode separable fields, and the transport spectrum is bilinear, so three
spectra ``T(V_j, V_k)`` give a trial's at every node (:func:`_trial_ratios`).

A solve holds one space-time stack.  ``B(u)`` is causal, so each iterate is
one sweep over the nodes: the transport spectrum of ``u[i]`` and the force
spectrum advance one Duhamel accumulator that also carries the data's heat
flow, the new frame is one inverse transform of it, and the frame is
measured against ``u[i]`` and then written over it.  ``e0`` is the same
sweep without transport, and the residual a sweep that does not write.
Every sweep starts from the data's frame, so node 0's iterate spectrum is
formed once per solve.

A sweep's iterate forcing ``force(k) - P div(u (x) u)`` never reads the
accumulator and reads only the old ``u[k]``, which the calling thread
overwrites only after node ``k`` is handed out.  So each sweep streams these
node spectra through the two lanes of :class:`~varns.operators._Lanes`,
at most two nodes ahead: the helper forms the next nodes while the calling
thread accumulates, inverts, checks, measures and writes.  The divergence
defect of the solution, and the ``c_B`` trials, are maps on the same two
lanes (:func:`~varns.operators._two_lanes`) whose results are merged by a
maximum.  Either lane forms a node or a trial with the same arithmetic, so
every output is bit for bit that of one thread.  :func:`bilinear_term`, the
stacked reference of a sweep, and the ``e0`` streams run on the calling
thread alone.  ``VARNS_THREADS`` sets the FFT workers of each transform.

The ``thm2`` gate also scans shorter horizons.  ``e0`` is causal, so on
``[0, t_k]`` it is the first ``k`` time cells of the one stream the gate
measures, and every horizon rung is a Luxemburg norm of a prefix of that
stream's norm trace.
"""
from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np

from .exponents import ExponentField
from .fields import (
    PERIODIC,
    TRUNCATED,
    GridSpec,
    ScalarField,
    SeparableField,
    SpaceTimeField,
    TimeGrid,
    VectorField,
    _transverse_wave,
    as_count,
)
from .operators import (
    SpectralWorkspace,
    _k_dot,
    _Lanes,
    _relative_divergence_hat,
    _transport_hat,
    _two_lanes,
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


def _check_flow_grid(grid: GridSpec) -> None:
    if grid.topology != PERIODIC or grid.dimension != 3:
        raise ValueError("the flow grid must be a three-dimensional torus")


def _check_time_exponent(p: ExponentField, tg: TimeGrid) -> None:
    """A temporal exponent has one sample per time step of ``tg`` on a 1d
    interval that covers ``[0, T]``."""
    g = p.grid
    if g.dimension != 1 or g.resolution[0] != tg.steps:
        raise ValueError("temporal exponent needs one sample per time step on a 1d interval")
    if abs(g.extents[0] - tg.T) > 1e-12 * max(1.0, tg.T):
        raise ValueError("temporal exponent interval must cover [0, T]")


def _check_force_spec(force_spec, grid: GridSpec, tg: TimeGrid) -> None:
    """A forcing is ``None`` or a separable field on ``grid`` and ``tg``."""
    if force_spec is not None and not isinstance(force_spec, SeparableField):
        raise TypeError(f"a force must be a SeparableField, got {type(force_spec)!r}")
    if force_spec is not None and (force_spec.grid != grid or force_spec.tg != tg):
        raise ValueError("the force must share the flow grid and time grid")


@dataclass(frozen=True)
class SolverConfig:
    """Everything one fixed-point run needs.

    ``p`` is the spatial exponent field for ``thm1`` (on the flow grid) or
    the temporal one for ``thm2`` (on a 1d grid over ``[0, T]`` with one
    cell per time step).  ``u0`` is projected divergence-free on
    construction.  ``tol_norm`` is the relative tolerance of every
    Luxemburg norm the run takes.  A config whose solve would not fit in
    physical RAM is refused: the solve holds one float64
    ``(steps + 1, 3, *grid)`` stack.  ``force_spec`` is ``None`` or a
    :class:`~varns.fields.SeparableField` on the flow grid and ``tg``.
    """

    regime: str
    p: ExponentField
    q: float | None
    frak_p: float
    tol_fixedpoint: float
    max_iters: int
    tol_norm: float
    u0: VectorField
    force_spec: SeparableField | None
    tg: TimeGrid

    def __post_init__(self):
        if self.regime not in ("thm1", "thm2"):
            raise ValueError(f"regime must be 'thm1' or 'thm2', got {self.regime!r}")
        grid = self.u0.grid
        _check_flow_grid(grid)
        if not 1.0 < self.frak_p < math.inf:
            raise ValueError(f"frak_p must exceed 1 and be finite, got {self.frak_p}")
        if not (0.0 < self.tol_fixedpoint < math.inf and 0.0 < self.tol_norm < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 1 <= self.max_iters < math.inf:
            raise ValueError(f"max_iters must be finite and at least 1, got {self.max_iters}")
        object.__setattr__(self, "max_iters", as_count(self.max_iters, "max_iters"))
        self._check_memory()
        if self.regime == "thm1":
            if self.p.grid != grid:
                raise ValueError("thm1 exponent field must live on the flow grid")
        else:
            self._check_thm2_exponents()
        _check_force_spec(self.force_spec, grid, self.tg)
        ws = make_workspace(grid)
        object.__setattr__(self, "u0", leray_project(self.u0, ws))

    def _check_memory(self):
        grid = self.u0.grid
        stack = 8 * (self.tg.steps + 1) * 3 * math.prod(grid.shape)
        ram = _physical_ram()
        if ram is not None and stack > ram:
            raise ValueError(
                f"a solve on the {grid.shape} grid with {self.tg.steps} time steps "
                f"needs a space-time stack of about {stack} bytes, more than the "
                f"{ram} bytes of RAM available")

    def _check_thm2_exponents(self):
        p, q = self.p, self.q
        if q is None:
            raise ValueError("thm2 needs the fixed spatial exponent q")
        _check_time_exponent(p, self.tg)
        if p.grid.topology != TRUNCATED:
            raise ValueError("thm2 exponent must be sampled on a truncated interval")
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
    """Heat flow of the data plus the accumulated forcing.

    ``force_spec`` is ``None`` or a :class:`~varns.fields.SeparableField`
    whose sum must be divergence-free to ``1e-8`` relative at every node,
    or the call fails before any inverse transform.  Each mode is
    transformed once, and each node costs one inverse transform
    (:func:`_e0_frames`).  :func:`smallness_check` and :func:`picard_solve`
    measure the same frames without storing them.
    """
    grid = ws.grid
    if u0.grid != grid:
        raise ValueError("data and workspace grids differ")
    data = np.empty((tg.steps + 1, grid.dimension) + grid.shape)
    for i, frame in enumerate(_e0_frames(u0, force_spec, tg, ws)):
        data[i] = frame
    return SpaceTimeField(data, tg, grid)


def _e0_frames(u0: VectorField, force_spec, tg: TimeGrid, ws: SpectralWorkspace):
    """Node frames of ``e0``: the checked force's Duhamel accumulator,
    started from the data's spectrum, one inverse transform per node."""
    return duhamel_frames(_force_at_nodes(force_spec, tg, ws), tg, ws, ws.forward(u0.values))


def _force_at_nodes(force_spec, tg: TimeGrid, ws: SpectralWorkspace):
    """Checked ``hat_at_node`` of a forcing on ``tg``, ``None`` for none.

    Each mode is transformed once, and node ``i``'s spectrum
    ``S_i = sum_j m_j[i] F^_j`` is formed afresh when asked for.  Modes may
    cancel, so every ``S_i`` is checked here, before any inverse transform:
    ``k . S_i`` is summed pointwise from the modes' own, as in ``S_i``, and
    the gradient content of ``S_i`` is the modes' Gram form in ``m[i]``.  A
    divergent node raises :class:`ForceDivergenceError` naming it.
    """
    _check_force_spec(force_spec, ws.grid, tg)
    if force_spec is None:
        return None
    spectra = [ws.forward(field.values) for field, _ in force_spec.modes]
    w, divergences = ws.parseval, [_k_dot(f, ws) for f in spectra]
    gram = np.array([[np.sum(w * ws.k2_deriv * (f * g.conj()).real.sum(axis=0))
                      for g in spectra] for f in spectra])
    for i, m in enumerate(np.array([mod for _, mod in force_spec.modes]).T):
        num, den = np.sum(w * np.abs(force_spec.frame(i, divergences)) ** 2), m @ gram @ m
        defect = math.sqrt(num / den) if den > 0.0 else 0.0
        if defect > _DIV_TOL:
            raise ForceDivergenceError(
                f"the force at node {i} has relative divergence {defect:.3e} > {_DIV_TOL}")
    return partial(force_spec.frame, parts=spectra)


def bilinear_term(u: SpaceTimeField, ws: SpectralWorkspace) -> SpaceTimeField:
    """Heat-propagated projected transport term of ``u`` against itself, on the
    calling thread alone: the stacked reference of a :func:`picard_solve` sweep."""
    if u.grid != ws.grid:
        raise ValueError("field and workspace grids differ")
    data = duhamel_accumulate(lambda i: _transport_hat(u.data[i], ws), u.tg, ws)
    return SpaceTimeField(data, u.tg, u.grid)


def _iterate_hat(u: np.ndarray, force, ws: SpectralWorkspace):
    """Node spectrum of the next iterate ``e0 - B(u)``: the force spectrum
    (``force`` is a ``hat_at_node`` or ``None``) minus the transport
    spectrum of ``u`` at the same node."""
    def hat(i: int) -> np.ndarray:
        g = _transport_hat(u[i], ws)
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
        if regime not in ("thm1", "thm2"):
            raise ValueError(f"regime must be 'thm1' or 'thm2', got {regime!r}")
        if regime == "thm2":
            if q is None or not 1.0 <= q < math.inf:
                raise ValueError(f"q must be at least 1 and finite, got {q}")
            _check_time_exponent(p, tg)
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
            p = ExponentField(p.samples[:k], GridSpec(1, (self.tg.nodes[k],), (k,), TRUNCATED))
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


def _trial_modes(grid: GridSpec, tg: TimeGrid, rng: np.random.Generator) -> SeparableField:
    """The seeded trial field ``u = sum_j m_j(t) V_j(x)`` of two modes: per mode
    a transverse plane wave ``V_j`` as the divergence-free corpus draws them,
    then the modulation ``m_j = 1 + cos(omega t + psi) / 2`` at the nodes.
    The second wave is redrawn while its mode is parallel to the first's:
    such a pair is a shear flow, whose transport vanishes identically.  It
    is redrawn too while the pair's sum and difference modes are both dead
    on the grid (on every axis 0 or the Nyquist index, where every
    derivative symbol is zero), as on axes of 8 points or fewer they can be:
    the transport then aliases away."""
    res = np.array(grid.resolution)

    def dead(mode):
        m = mode % res
        return bool(np.all((m == 0) | (2 * m == res)))
    modes, first = [], None
    for _ in range(2):
        mode, wave = _transverse_wave(rng, grid)
        while first is not None and (not np.cross(first, mode).any()
                                     or dead(first + mode) and dead(first - mode)):
            mode, wave = _transverse_wave(rng, grid)
        first = mode
        omega = rng.uniform(0.0, 2.0 * np.pi)
        psi = rng.uniform(0.0, 2.0 * np.pi)
        modes.append((VectorField(wave, grid), 1.0 + 0.5 * np.cos(omega * tg.nodes + psi)))
    return SeparableField(tuple(modes), tg)


def _trial_ratios(regime: str, p: ExponentField, q: float | None, tg: TimeGrid,
                  ws: SpectralWorkspace, trials: int, seed: int, frak_p: float,
                  tol: float) -> list[float]:
    """``norm(B(u, u)) / norm(u)^2`` of each seeded trial, in draw order
    (0 for a zero trial).

    A trial is a sum of time-separable modes ``m_j(t) V_j(x)``, and the
    transport spectrum is bilinear, so ``B(u, u)`` is the Duhamel stream of
    ``sum_{j<=k} m_j(t_i) m_k(t_i) T(V_j, V_k)``: one transport spectrum per
    pair of modes, three for two modes.  Node frames of ``u`` are formed
    from the modes as they are measured, so no history is held.  Every
    trial's modes are drawn first, in order from one generator; then the
    trials are mapped (:func:`~varns.operators._two_lanes`), and their
    maximum does not depend on which lane measured which.
    """
    rng = np.random.default_rng(seed)
    grid, nodes = ws.grid, tg.steps + 1
    drawn = [_trial_modes(grid, tg, rng) for _ in range(trials)]

    def ratio(n: int) -> float:
        size = _Trace(regime, grid, tg, p, q, frak_p, tol)
        transport = _Trace(regime, grid, tg, p, q, frak_p, tol)
        trial = drawn[n]
        nu = size.feed(trial.frame(i) for i in range(nodes)).norm().value
        fields = [v.values for v, _ in trial.modes]
        mods = [m for _, m in trial.modes]
        pairs = [(j, k) for j in range(len(fields)) for k in range(j, len(fields))]
        spectra = [_transport_hat(fields[j], ws, None if j == k else fields[k])
                   for j, k in pairs]

        def hat(i: int) -> np.ndarray:
            return sum(mods[j][i] * mods[k][i] * g for (j, k), g in zip(pairs, spectra))
        nb = transport.feed(duhamel_frames(hat, tg, ws)).norm().value
        return nb / (nu * nu) if nu > 0 else 0.0
    return _two_lanes(ratio, trials)


def estimate_bilinear_constant(regime: str, p: ExponentField, q: float | None,
                               tg: TimeGrid, ws: SpectralWorkspace,
                               trials: int = 3, seed: int = 0,
                               frak_p: float = 3.0, tol: float = 1e-8) -> float:
    """Measured operator constant: worst ``norm(B(u,u)) / norm(u)^2`` over trials.

    Trial fields are seeded divergence-free plane-wave packets with smooth
    time modulation, so repeated calls are deterministic and more trials
    can only raise the estimate.  Each trial is a two-mode
    :class:`~varns.fields.SeparableField` measured from its modes
    (:func:`_trial_ratios`): three transport spectra, and ``u`` and
    ``B(u,u)`` streamed node by node into their norms, so no history is
    held.  The trials are mapped on two lanes (:func:`_trial_ratios`).  The
    workspace must be a three-dimensional torus, as a
    :class:`SolverConfig`'s flow grid is.
    """
    trials = as_count(trials, "trials")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    _check_flow_grid(ws.grid)
    return max(_trial_ratios(regime, p, q, tg, ws, trials, seed, frak_p, tol))


def smallness_check(cfg: SolverConfig, c_b: float) -> SmallnessVerdict:
    """Measure the data size and compare against the contraction threshold.

    ``c_b`` must be positive and finite; it is checked before any transform.
    ``e0`` is streamed node by node into its norm trace, never stored, on
    the calling thread alone: each force mode is transformed once, and the
    data's spectrum starts the Duhamel accumulator, so each node frame is
    one inverse transform.

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
    trace = _trace(cfg).feed(_e0_frames(cfg.u0, cfg.force_spec, cfg.tg, ws))
    return _smallness(cfg, c_b, trace)


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


def _sweep(u: np.ndarray, frames, what: str, step: _Trace | None = None,
           size: _Trace | None = None, write: bool = True) -> None:
    """Measure a stream of node frames against the stack ``u``: ``step``,
    when given, is fed ``frame - u[i]`` and ``size`` is fed ``frame``.  Each
    frame must be finite, and with ``write`` it replaces ``u[i]`` once it
    has been measured."""
    for i in range(len(u)):
        frame = next(frames)
        if not np.isfinite(frame).all():
            raise PicardBlowupError(f"{what} produced non-finite values")
        if step is not None:
            step.add(frame - u[i])
        if size is not None:
            size.add(frame)
        if write:
            u[i] = frame
        del frame  # not held while the next frame is formed


def picard_solve(cfg: SolverConfig, c_b: float | None = None, trials: int = 3,
                 seed: int = 0, disable_bilinear: bool = False,
                 override_smallness: bool = False) -> SolverResult:
    """Run the fixed-point iteration until the increments drop below tolerance.

    The solve holds one ``(steps + 1, 3, *grid)`` stack ``u``.  ``c_b``
    must be positive and finite, given or estimated; when not given, ``c_B``
    is estimated before ``u`` is allocated, and so is the force checked, whose
    node spectra every sweep forms from its modes.  ``e0`` is never stored:
    its frames fill ``u`` and stream into the norm trace that the gate and
    its ``thm2`` ladder read.  Each iterate is one sweep that forms
    ``e0 - B(u)`` at node ``i`` as one spectral sum and one inverse
    transform, checks the frame is finite, measures it and its increment,
    and overwrites ``u[i]``.  The residual is that sweep without the write.

    Each iterate and residual sweep opens its own stream of the nodes'
    ``force(k) - P div(u[k] (x) u[k])`` from the old ``u[k]``, formed by
    this thread and one helper at most two nodes ahead
    (:class:`~varns.operators._Lanes`), so the helper is joined when the
    sweep ends, also when a non-finite frame ends it early.  ``e0`` has no
    transport, so its sweep runs on this thread alone.  The divergence
    defect is the largest over the solution's frames, mapped on the same
    two lanes.

    ``disable_bilinear`` switches the transport term off (the linear heat
    limit); ``override_smallness`` lets the run proceed past a failed gate,
    reporting the failure in the verdict instead of raising.  Non-finite
    frames raise :class:`PicardBlowupError`.
    """
    ws = make_workspace(cfg.u0.grid)
    if c_b is None:
        c_b = estimate_bilinear_constant(
            cfg.regime, cfg.p, cfg.q, cfg.tg, ws, trials, seed, cfg.frak_p, cfg.tol_norm)
    _check_constant(c_b)
    tg, grid = cfg.tg, cfg.u0.grid
    force = _force_at_nodes(cfg.force_spec, tg, ws)
    u0_hat = ws.forward(cfg.u0.values)
    u = np.zeros((tg.steps + 1, grid.dimension) + grid.shape)
    size = _trace(cfg)
    _sweep(u, duhamel_frames(force, tg, ws, u0_hat), "the initial term", size=size)
    verdict = _smallness(cfg, c_b, size)
    if not verdict.passed and not override_smallness:
        raise SmallnessError(
            f"data norm {verdict.delta:.6e} is not below the contraction "
            f"threshold {verdict.threshold:.6e}; pass override_smallness=True to force"
        )

    if disable_bilinear:
        stream = partial(nullcontext, force)
    else:
        iterate = _iterate_hat(u, force, ws)
        # u[0] is the data's frame after every sweep, so node 0's spectrum
        # is the same in each; every sweep reads it, so nothing may write it
        first = iterate(0)
        first.flags.writeable = False
        stream = partial(_Lanes, lambda i: first if i == 0 else iterate(i), len(u), 2)
    norms = [verdict.delta]
    increments: list[float] = []
    converged = False
    residual = 0.0
    for n in range(1, cfg.max_iters + 1):
        step, size = _trace(cfg), _trace(cfg)
        with stream() as hat:
            _sweep(u, duhamel_frames(hat, tg, ws, u0_hat), f"iterate {n}", step, size)
        d = step.norm().value
        increments.append(d)
        norms.append(size.norm().value)
        if d <= cfg.tol_fixedpoint:
            converged = True
            break

    if not disable_bilinear:
        # residual of the fixed-point equation, which is also the next increment
        step = _trace(cfg)
        with stream() as hat:
            _sweep(u, duhamel_frames(hat, tg, ws, u0_hat), "the residual", step, write=False)
        residual = step.norm().value

    div_defect = max(_two_lanes(lambda i: _relative_divergence_hat(ws.forward(u[i]), ws),
                                len(u)))

    contraction = None
    positive = [(a, b) for a, b in zip(increments, increments[1:]) if a > 0]
    if positive:
        contraction = max(b / a for a, b in positive)

    return SolverResult(tuple(norms), tuple(increments), SpaceTimeField(u, tg, grid),
                        residual, contraction, c_b, verdict, converged, div_defect)
