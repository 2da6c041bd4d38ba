"""Fixed-point construction of mild solutions on the torus.

The iteration is ``u_{n+1} = e0 - B(u_n, u_n)`` with ``e0`` the heat flow
of the data plus the accumulated forcing, and ``B`` the heat-propagated
projected transport term.  Under the measured smallness gate
``delta < 1 / (4 c_B)`` the increments contract geometrically and the
limit stays within ``2 delta`` in the regime norm.

Two regimes are supported: ``thm1`` measures iterates in a mixed norm of
the pointwise-in-space supremum over time, ``thm2`` in a Luxemburg norm in
time of the spatial fixed-exponent norm trace.  Every spectral step (the
transforms, divergence, Leray projection, heat multiplier and Duhamel sum)
comes from :mod:`varns.operators`.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField, resample_exponent
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
    _heat_multiplier,
    _leray_hat,
    _relative_divergence_hat,
    duhamel_accumulate,
    duhamel_spectra,
    leray_project,
    make_workspace,
)
from .varlp import NormValue, luxemburg_norm, mixed_norm

_DIV_TOL = 1e-8
_LADDER_POINTS = 16
_LADDER_SPAN = 64.0  # smallest horizon candidate is T / span
_LIVE_STACKS = 3  # (steps + 1, 3, *grid) stacks a solve holds at its peak


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
    Luxemburg norm the run takes.
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
        if self.frak_p <= 1:
            raise ValueError(f"frak_p must exceed 1, got {self.frak_p}")
        if self.tol_fixedpoint <= 0 or self.tol_norm <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
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
        stack = 8 * (self.tg.steps + 1) * 3 * math.prod(self.u0.grid.shape)
        ram = _physical_ram()
        if ram is not None and _LIVE_STACKS * stack > ram:
            raise ValueError(
                f"a solve on the {self.u0.grid.shape} grid with {self.tg.steps} time steps "
                f"needs about {_LIVE_STACKS * stack} bytes ({_LIVE_STACKS} space-time stacks "
                f"of {stack}), more than the {ram} bytes of RAM available")

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
        if q <= 3.0:
            raise ValueError(f"thm2 needs q > 3, got {q}")
        worst = float(np.max(2.0 / p.samples + 3.0 / q))
        if worst >= 1.0:
            raise ValueError(
                f"thm2 scaling condition 2/p(t) + 3/q < 1 fails, worst value {worst:.6f}"
            )


@dataclass(frozen=True)
class SmallnessVerdict:
    """Measured smallness gate: data size against the contraction threshold.

    ``ladder`` holds ``(T, delta, threshold, passed)`` rows for the scanned
    horizon candidates (``thm2`` only, largest first); ``admissible_T`` is
    the first passing horizon, ``None`` when none passes.
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
    A static force is transformed once and a sampled one once per node.
    At each node the heat flow of the data and the Duhamel accumulator of
    :func:`duhamel_spectra` are summed in spectral space and inverse-
    transformed once.
    """
    grid = ws.grid
    if u0.grid != grid:
        raise ValueError("data and workspace grids differ")
    hats = _force_spectra(force_spec, tg, ws)
    data = np.empty((tg.steps + 1, grid.dimension) + grid.shape)
    frames = _e0_frames(ws.forward(u0.values), _at_nodes(hats, ws), tg, ws)
    for i, frame in enumerate(frames):
        data[i] = frame
    return SpaceTimeField(data, tg, grid)


def _check_force(hat: np.ndarray, what: str, ws: SpectralWorkspace) -> None:
    defect = _relative_divergence_hat(hat, ws)
    if defect > _DIV_TOL:
        raise ForceDivergenceError(f"{what} has relative divergence {defect:.3e} > {_DIV_TOL}")


def _force_spectra(force_spec, tg: TimeGrid, ws: SpectralWorkspace) -> np.ndarray | None:
    """Checked spectra of a forcing: ``None`` for no forcing, the static
    ``(dim, *half)`` spectrum of a tensor's row divergence, or the
    ``(steps + 1, dim, *half)`` stack of a history sampled on ``tg``."""
    grid = ws.grid
    if force_spec is None:
        return None
    if isinstance(force_spec, TensorField):
        if force_spec.grid != grid:
            raise ValueError("tensor force and workspace grids differ")
        hat = _div_hat(ws.forward(force_spec.values), ws)
        _check_force(hat, "tensor force", ws)
        return hat
    if isinstance(force_spec, SpaceTimeField):
        if force_spec.grid != grid or force_spec.tg != tg:
            raise ValueError("sampled force does not match the requested grids")
        hats = np.empty((tg.steps + 1, grid.dimension) + ws.k2.shape, dtype=complex)
        for i, frame in enumerate(force_spec.data):
            hats[i] = ws.forward(frame)
            _check_force(hats[i], "sampled force", ws)
        return hats
    raise TypeError(f"unsupported force specification {type(force_spec)!r}")


def _at_nodes(hats: np.ndarray | None, ws: SpectralWorkspace):
    """``hat_at_node`` of :func:`_force_spectra`'s result on its own time grid."""
    if hats is None:
        return None
    if hats.ndim == ws.grid.dimension + 1:  # static
        return lambda i: hats
    return hats.__getitem__


def _interpolated(hats: np.ndarray | None, src: TimeGrid, tg: TimeGrid,
                  ws: SpectralWorkspace):
    """``hat_at_node`` on ``tg`` of force spectra sampled on ``src``: linear
    in time between the two nearest samples, every frame checked again."""
    if hats is None or hats.ndim == ws.grid.dimension + 1:
        return _at_nodes(hats, ws)
    pos = tg.nodes / src.dt
    lo = np.minimum(np.floor(pos).astype(int), src.steps - 1)
    frac = pos - lo

    def hat(i: int) -> np.ndarray:
        frame = (1.0 - frac[i]) * hats[lo[i]] + frac[i] * hats[lo[i] + 1]
        _check_force(frame, "sampled force", ws)
        return frame
    return hat


def _e0_frames(u0_hat: np.ndarray, hat_at_node, tg: TimeGrid, ws: SpectralWorkspace):
    """Node frames of ``e0`` on ``tg``, one at a time: the heat multiplier
    times ``u0_hat`` plus the Duhamel accumulator of ``hat_at_node`` (``None``
    for no forcing), summed in spectral space and inverted once per node."""
    accs = None if hat_at_node is None else duhamel_spectra(hat_at_node, tg, ws)
    for i, t in enumerate(tg.nodes):
        hat = _heat_multiplier(t, ws) * u0_hat
        if i > 0 and accs is not None:
            hat += next(accs)
        yield ws.inverse(hat)


def bilinear_term(u: SpaceTimeField, ws: SpectralWorkspace) -> SpaceTimeField:
    """Heat-propagated projected transport term of ``u`` against itself."""
    if u.grid != ws.grid:
        raise ValueError("field and workspace grids differ")
    # the product tensor u_l u_m is symmetric: transform its upper triangle
    # once and index the full tensor out of it
    dim = ws.grid.dimension
    upper = np.triu_indices(dim)
    full = np.empty((dim, dim), dtype=int)
    full[upper] = full.T[upper] = np.arange(upper[0].size)

    def ghat(i: int):
        ui = u.data[i]
        products = ws.forward(ui[upper[0]] * ui[upper[1]])
        return _leray_hat(_div_hat(products[full], ws), ws)

    return SpaceTimeField(duhamel_accumulate(ghat, u.tg, ws), u.tg, u.grid)


# Norm traces read a space-time history one node frame ``(dim, ...space)``
# at a time, so a difference of two histories streams without a third stack.

def _sup_trace(frames) -> np.ndarray:
    out = None
    for f in frames:
        mag2 = np.sum(f * f, axis=0)
        out = mag2 if out is None else np.maximum(out, mag2, out=out)
    return np.sqrt(out)


def _lq_trace(frames, q: float, cell_volume: float) -> np.ndarray:
    return np.array([(cell_volume * np.sum(np.sqrt(np.sum(f * f, axis=0)) ** q)) ** (1.0 / q)
                     for f in frames])


def _thm1_norm(frames, grid: GridSpec, p: ExponentField, frak_p: float,
               tol: float) -> NormValue:
    return mixed_norm(ScalarField(_sup_trace(frames), grid), p, frak_p, tol)


def _thm2_norm(frames, tg: TimeGrid, grid: GridSpec, p: ExponentField, q: float,
               tol: float) -> NormValue:
    g = p.grid
    if g.dimension != 1 or g.resolution[0] != tg.steps:
        raise ValueError("temporal exponent needs one sample per time step")
    if abs(g.extents[0] - tg.T) > 1e-12 * max(1.0, tg.T):
        raise ValueError("temporal exponent interval must cover [0, T]")
    nodes = _lq_trace(frames, q, grid.cell_volume)
    cells = 0.5 * (nodes[:-1] + nodes[1:])
    return luxemburg_norm(ScalarField(cells, g), p, tol)


def norm_E_thm1(u: SpaceTimeField, p: ExponentField, frak_p: float = 3.0,
                tol: float = 1e-8) -> NormValue:
    """Mixed norm of the pointwise supremum over time of ``|u|``."""
    return _thm1_norm(u.data, u.grid, p, frak_p, tol)


def norm_E_thm2(u: SpaceTimeField, p: ExponentField, q: float,
                tol: float = 1e-8) -> NormValue:
    """Luxemburg norm in time of the spatial fixed-exponent norm trace.

    Node values are averaged onto time cells so the trace lives on the same
    midpoint grid as the temporal exponent.
    """
    return _thm2_norm(u.data, u.tg, u.grid, p, q, tol)


def regime_norm(u: SpaceTimeField, cfg: SolverConfig) -> NormValue:
    if cfg.regime == "thm1":
        return norm_E_thm1(u, cfg.p, cfg.frak_p, cfg.tol_norm)
    return norm_E_thm2(u, cfg.p, cfg.q, cfg.tol_norm)


def _frames_norm(frames, cfg: SolverConfig) -> float:
    # the regime norm of a history on the config's grids, streamed by node frame
    if cfg.regime == "thm1":
        return _thm1_norm(frames, cfg.u0.grid, cfg.p, cfg.frak_p, cfg.tol_norm).value
    return _thm2_norm(frames, cfg.tg, cfg.u0.grid, cfg.p, cfg.q, cfg.tol_norm).value


def _difference_norm(a: SpaceTimeField, b: SpaceTimeField, cfg: SolverConfig) -> float:
    return _frames_norm((x - y for x, y in zip(a.data, b.data)), cfg)


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
    can only raise the estimate.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        u = _random_divfree_history(ws.grid, tg, rng)
        if regime == "thm1":
            nu = norm_E_thm1(u, p, frak_p, tol).value
            nb = norm_E_thm1(bilinear_term(u, ws), p, frak_p, tol).value
        else:
            nu = norm_E_thm2(u, p, q, tol).value
            nb = norm_E_thm2(bilinear_term(u, ws), p, q, tol).value
        if nu > 0:
            best = max(best, nb / (nu * nu))
    return best


def _horizon_ladder(T: float) -> list[float]:
    return [float(T * _LADDER_SPAN ** (-j / (_LADDER_POINTS - 1)))
            for j in range(_LADDER_POINTS)]


def smallness_check(cfg: SolverConfig, c_b: float) -> SmallnessVerdict:
    """Measure the data size and compare against the contraction threshold.

    ``e0`` is streamed node by node into its norm trace, never stored: the
    force is transformed once, and each node frame is the data's heat flow
    plus the Duhamel accumulator, summed in spectral space and inverted once.

    For ``thm2`` a decreasing geometric ladder of horizon candidates is
    scanned as well.  Each rung reuses the same force spectra, interpolated
    linearly in time onto its own steps (every interpolated frame passes
    the divergence check), and streams its ``e0`` frames into the norm
    trace the same way.  The rung thresholds rescale the measured constant
    by ``(1 + T') / (1 + T)``.  That horizon dependence is assumed, not
    measured: the library estimates ``c_B`` at the full horizon only.
    """
    return _smallness(cfg, c_b, None, make_workspace(cfg.u0.grid))


def _smallness(cfg: SolverConfig, c_b: float, e0: SpaceTimeField | None,
               ws: SpectralWorkspace) -> SmallnessVerdict:
    # the gate of smallness_check; picard_solve passes the e0 it already holds
    if c_b <= 0:
        raise ValueError(f"bilinear constant must be positive, got {c_b}")
    thm2 = cfg.regime == "thm2"
    if e0 is None or thm2:
        # one transform of the data and of the force serves e0 and every rung
        u0_hat = ws.forward(cfg.u0.values)
        hats = _force_spectra(cfg.force_spec, cfg.tg, ws)
    if e0 is None:
        delta = _frames_norm(_e0_frames(u0_hat, _at_nodes(hats, ws), cfg.tg, ws), cfg)
    else:
        delta = _frames_norm(e0.data, cfg)
    threshold = 1.0 / (4.0 * c_b)
    passed = delta < threshold
    if not thm2:
        return SmallnessVerdict(delta, threshold, c_b, passed)

    ladder = []
    admissible = None
    for T_cand in _horizon_ladder(cfg.tg.T):
        steps = max(2, int(round(cfg.tg.steps * T_cand / cfg.tg.T)))
        tg = TimeGrid(T_cand, steps)
        p_grid = GridSpec(1, (T_cand,), (steps,), TRUNCATED, (0.0,))
        p_cand = resample_exponent(cfg.p, p_grid)
        frames = _e0_frames(u0_hat, _interpolated(hats, cfg.tg, tg, ws), tg, ws)
        delta_cand = _thm2_norm(frames, tg, ws.grid, p_cand, cfg.q, cfg.tol_norm).value
        c_cand = c_b * (1.0 + T_cand) / (1.0 + cfg.tg.T)
        thr_cand = 1.0 / (4.0 * c_cand)
        ok = delta_cand < thr_cand
        ladder.append((T_cand, delta_cand, thr_cand, ok))
        if ok and admissible is None:
            admissible = T_cand
    return SmallnessVerdict(delta, threshold, c_b, passed, admissible, tuple(ladder))


def picard_solve(cfg: SolverConfig, c_b: float | None = None, trials: int = 3,
                 seed: int = 0, disable_bilinear: bool = False,
                 override_smallness: bool = False) -> SolverResult:
    """Run the fixed-point iteration until the increments drop below tolerance.

    ``disable_bilinear`` switches the transport term off (the linear heat
    limit); ``override_smallness`` lets the run proceed past a failed gate,
    reporting the failure in the verdict instead of raising.
    """
    ws = make_workspace(cfg.u0.grid)
    e0 = initial_term(cfg.u0, cfg.force_spec, cfg.tg, ws)
    if c_b is None:
        c_b = estimate_bilinear_constant(
            cfg.regime, cfg.p, cfg.q, cfg.tg, ws, trials, seed, cfg.frak_p, cfg.tol_norm)
        if c_b == 0.0:
            c_b = 1e-30
    verdict = _smallness(cfg, c_b, e0, ws)
    if not verdict.passed and not override_smallness:
        raise SmallnessError(
            f"data norm {verdict.delta:.6e} is not below the contraction "
            f"threshold {verdict.threshold:.6e}; pass override_smallness=True to force"
        )

    u = e0
    norms = [verdict.delta]
    increments: list[float] = []
    converged = False
    for n in range(1, cfg.max_iters + 1):
        if disable_bilinear:
            u_next = e0
        else:
            bu = bilinear_term(u, ws)
            u_next = SpaceTimeField(np.subtract(e0.data, bu.data, out=bu.data),
                                    cfg.tg, cfg.u0.grid)
        if not u_next.is_finite():
            raise PicardBlowupError(f"iterate {n} produced non-finite values")
        d = _difference_norm(u_next, u, cfg)
        increments.append(d)
        norms.append(regime_norm(u_next, cfg).value)
        u = u_next
        if d <= cfg.tol_fixedpoint:
            converged = True
            break

    if disable_bilinear:
        residual = 0.0
    else:
        bu = bilinear_term(u, ws)
        # residual of the fixed-point equation, which is also the next increment
        np.add(bu.data, u.data, out=bu.data)
        np.subtract(bu.data, e0.data, out=bu.data)
        residual = regime_norm(SpaceTimeField(bu.data, cfg.tg, cfg.u0.grid), cfg).value

    contraction = None
    positive = [(a, b) for a, b in zip(increments, increments[1:]) if a > 0]
    if positive:
        contraction = max(b / a for a, b in positive)

    div_defect = 0.0
    for frame in u.data:
        div_defect = max(div_defect, _relative_divergence_hat(ws.forward(frame), ws))

    return SolverResult(tuple(norms), tuple(increments), u, residual, contraction,
                        c_b, verdict, converged, div_defect)
