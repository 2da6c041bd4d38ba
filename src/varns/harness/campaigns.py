"""Inequality falsification campaigns.

Each target is one record: the bounded-operator or norm-comparison
statement it names, the ratio that checks it, and its default config.  A
campaign evaluates the statement's ratio on every corpus element at every
refinement level and reports the worst case; a configured bound encodes
"finite and stable under refinement" rather than a sharp constant.

Targets built on a real-space operator apply it to a whole level's corpus
in one stacked call, so the spectra that depend only on the grid are built
once per level; a single evaluation runs the same call on a stack of one,
which gives the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..exponents import ExponentField, make_exponent, scale_exponent
from ..fields import PERIODIC, TRUNCATED, GridSpec, ScalarField, as_count, radial_distance
from ..mild_solver import _physical_ram
from ..operators import (
    default_radius_ladder,
    grad_heat_kernel_defect,
    maximal_function_stack,
    radial_majorant_defects,
    riesz_potential_stack,
)
from ..varlp import (
    conjugate_pairing_lower_bound,
    embedding_defect,
    holder_defect,
    holder_split,
    luxemburg_norm,
    mixed_norm,
    unit_function_norm,
)
from .corpus import KINDS, generate_corpus


class CampaignElementError(RuntimeError):
    """An element evaluation failed; the message carries its coordinates."""


@dataclass(frozen=True)
class CampaignConfig:
    """One falsification run: corpus, refinement ladder, exponents, bound.

    A ladder whose finest level cannot fit in physical RAM is refused, before
    any allocation: that level holds at least its float64 corpus, and with a
    stacked operator also its stacked copy, its ``|f|`` and the output stack.
    """

    target: str
    corpus_size: int
    seed: int
    grids: tuple[GridSpec, ...]
    exponent_specs: tuple[tuple[str, tuple[float, ...]], ...]
    bound: float
    corpus_kind: str = "smooth-decaying"
    sigma: float = 1.0
    frak_p: float = 1.5
    tol: float = 1e-8

    def __post_init__(self):
        if self.target not in _TARGETS:
            raise ValueError(f"unknown campaign target {self.target!r}")
        object.__setattr__(self, "corpus_size", as_count(self.corpus_size, "corpus_size"))
        object.__setattr__(self, "seed", as_count(self.seed, "seed"))
        if self.corpus_size < 1:
            raise ValueError(f"corpus size must be at least 1, got {self.corpus_size}")
        for name in ("bound", "tol", "frak_p", "sigma"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.corpus_kind not in KINDS:
            raise ValueError(f"unknown corpus kind {self.corpus_kind!r}")
        object.__setattr__(self, "grids", tuple(self.grids))
        if not self.grids:
            raise ValueError("a campaign needs at least 1 grid")
        specs = tuple((str(tag), tuple(float(v) for v in params))
                      for tag, params in self.exponent_specs)
        object.__setattr__(self, "exponent_specs", specs)
        record = _TARGETS[self.target]
        if record.exponent_specs and not specs:
            raise ValueError(f"target {self.target!r} needs at least one exponent spec")
        stacks = 0 if record.scan else 4 if record.stacked else 1
        finest = max(self.grids, key=lambda g: math.prod(g.shape))
        need, ram = 8 * stacks * self.corpus_size * math.prod(finest.shape), _physical_ram()
        if ram is not None and need > ram:
            raise ValueError(f"the finest level of this {self.target} campaign, on the "
                             f"{finest.shape} grid, needs at least {need} bytes, more than "
                             f"the {ram} bytes of RAM available")

    @property
    def refinement_levels(self) -> int:
        """One level per grid of the refinement ladder."""
        return len(self.grids)


@dataclass(frozen=True)
class WorstCase:
    """Reference to the worst evaluation: regenerate and re-run to reproduce."""

    level: int
    element: int
    ratio: float


@dataclass(frozen=True)
class InequalityReport:
    target: str
    observed_max_ratio: float
    per_level_max: tuple[float, ...]
    passed: bool
    bound: float
    statement: str
    worst_case: WorstCase
    ratios: tuple[tuple[float, ...], ...] = field(default=())


def _grid_ladder(base: GridSpec, levels: int) -> tuple[GridSpec, ...]:
    return tuple(base.refine(2**j) for j in range(as_count(levels, "refinement_levels")))


def default_campaign_config(target: str, corpus_size: int | None = None,
                            seed: int = 0, refinement_levels: int = 3) -> CampaignConfig:
    """Tuned defaults per target; see the target table for what each checks."""
    if target not in _TARGETS:
        raise ValueError(f"unknown campaign target {target!r}")
    record = _TARGETS[target]
    return CampaignConfig(
        target=target,
        corpus_size=record.corpus_size if corpus_size is None else corpus_size,
        seed=seed,
        grids=_grid_ladder(record.base_grid, refinement_levels),
        exponent_specs=record.exponent_specs,
        bound=record.bound,
        corpus_kind=record.corpus_kind,
    )


def _spec_exponent(cfg: CampaignConfig, grid: GridSpec, which: int) -> ExponentField:
    tag, params = cfg.exponent_specs[which % len(cfg.exponent_specs)]
    return make_exponent(tag, params, grid)


def _majorant_profile(grid: GridSpec) -> ScalarField:
    width = 0.0875 * min(grid.extents)
    r = radial_distance(grid)
    return ScalarField(np.exp(-((r / width) ** 2)), grid)


def _eval_holder(cfg, grid, index, corpus, image) -> float:
    f = corpus[index]
    g = corpus[(index + 1) % len(corpus)]
    q = _spec_exponent(cfg, grid, index)
    r = _spec_exponent(cfg, grid, index + 1)
    split = 1.0 / (1.0 / q.samples + 1.0 / r.samples)
    if np.max(np.abs(split - 1.0)) > 1e-12:
        return holder_defect(f, g, holder_split(q, r), q, r, cfg.tol)
    # an exponent field must exceed 1, so the L^1 case takes the plain integral
    num = grid.cell_volume * float(np.sum(np.abs(f.values * g.values)))
    return num / (luxemburg_norm(f, q, cfg.tol).value * luxemburg_norm(g, r, cfg.tol).value)


def _eval_duality(cfg, grid, index, corpus, image) -> float:
    f = corpus[index]
    p = _spec_exponent(cfg, grid, index)
    lux = luxemburg_norm(f, p, cfg.tol).value
    if lux == 0.0:
        return 0.0
    sup = conjugate_pairing_lower_bound(f, p, seed=cfg.seed + 7919 * index,
                                        tol=cfg.tol)
    return max(sup / lux, lux / sup)


def _eval_maximal(cfg, grid, index, corpus, image) -> float:
    f = corpus[index]
    p = _spec_exponent(cfg, grid, index)
    mf = ScalarField(image, grid)
    return luxemburg_norm(mf, p, cfg.tol).value / luxemburg_norm(f, p, cfg.tol).value


def _lifted_exponent(p: ExponentField, sigma: float, grid: GridSpec) -> ExponentField:
    inv = 1.0 / p.samples - sigma / grid.dimension
    if np.min(inv) <= 0.0:
        raise ValueError("lifted exponent undefined: 1/p - sigma/n is not positive")
    p_inf = None
    if p.p_infinity is not None:
        p_inf = 1.0 / (1.0 / p.p_infinity - sigma / grid.dimension)
    return ExponentField(1.0 / inv, grid, p_inf)


def _eval_riesz_potential(cfg, grid, index, corpus, image) -> float:
    f = corpus[index]
    p = _spec_exponent(cfg, grid, index)
    q = _lifted_exponent(p, cfg.sigma, grid)
    pot = ScalarField(image, grid)
    return luxemburg_norm(pot, q, cfg.tol).value / luxemburg_norm(f, p, cfg.tol).value


def _eval_proposition1(cfg, grid, index, corpus, image) -> float:
    f = corpus[index]
    pe = _spec_exponent(cfg, grid, index)
    rho = scale_exponent(pe, 2.0)
    pot = ScalarField(image, grid)
    num = luxemburg_norm(pot, rho, cfg.tol).value
    return num / mixed_norm(f, pe, cfg.frak_p, cfg.tol).value


def _eval_embedding(cfg, grid, index, corpus, image) -> float:
    f = corpus[index]
    p1 = _spec_exponent(cfg, grid, index)
    p2 = scale_exponent(p1, 1.5)
    return embedding_defect(f, p1, p2, cfg.tol)


def _eval_radial_majorant(cfg, grid, index, corpus, image) -> float:
    return image


def _eval_grad_heat(cfg, grid, index, corpus, image) -> float:
    rng = np.random.default_rng((cfg.seed, index))
    t = 10.0 ** rng.uniform(-3.0, 1.0)
    jitter = rng.uniform()
    n = grid.resolution[0]
    log_u = np.log(1e-2) + (np.arange(n) + jitter) * (np.log(2500.0) / n)
    radii = 2.0 * np.sqrt(np.exp(log_u) * t)
    return max(grad_heat_kernel_defect(t, [r]) for r in radii)


def _eval_lemma_unit_norm(cfg, grid, index, corpus, image) -> float:
    rng = np.random.default_rng((cfg.seed, index))
    horizon = 8.0 ** rng.uniform(-1.0, 1.0)
    swing = rng.uniform(0.3, 1.1)
    pgrid = GridSpec(1, (horizon,), (grid.resolution[0],), TRUNCATED, (0.0,))
    p = make_exponent("sinusoidal", (2.5, swing), pgrid)
    nv = unit_function_norm(horizon, p, cfg.tol).value
    ends = (horizon ** (1.0 / p.p_minus), horizon ** (1.0 / p.p_plus))
    return max(nv / max(ends), min(ends) / nv)


def _maximal_images(cfg, grid, values):
    # fixed absolute rungs keep levels comparable; the one-cell rung makes
    # the ladder exact at the small-radius end of the current level
    radii = default_radius_ladder(cfg.grids[0]) + (0.49 * min(grid.spacings),)
    return maximal_function_stack(values, grid, radii)


def _potential_images(cfg, grid, values):
    return riesz_potential_stack(values, grid, cfg.sigma)


def _majorant_ratios(cfg, grid, values):
    return radial_majorant_defects(_majorant_profile(grid), values)


@dataclass(frozen=True)
class _Target:
    """One campaign target: the statement it checks, the ratio of one
    element (after ``stacked``, the real-space operator applied to a level's
    corpus at once, if it has one), and its default config.  A ``scan``
    target's elements are seeded parameter draws, not corpus fields."""

    statement: str
    evaluate: Callable
    base_grid: GridSpec
    corpus_kind: str
    corpus_size: int
    bound: float
    exponent_specs: tuple = ()
    stacked: Callable | None = None
    scan: bool = False


_LINE_BOX = GridSpec(1, (40.0,), (512,), TRUNCATED, (-20.0,))
_CUBE_BOX = GridSpec(3, (24.0, 24.0, 24.0), (16, 16, 16), TRUNCATED, (-12.0, -12.0, -12.0))
_TORUS = GridSpec(3, (2.0 * np.pi,) * 3, (12, 12, 12), PERIODIC)
_SCAN = GridSpec(1, (1.0,), (256,), TRUNCATED, (0.0,))

_TARGETS = {
    "holder": _Target(
        "product norm bounded by the product of factor norms under a pointwise exponent split",
        _eval_holder, _LINE_BOX, "smooth-decaying", 8, 4.0,
        (("radial-log", (2.5, 0.5)), ("constant", (4.0,)), ("gaussian-bump", (2.2, 0.6)))),
    "duality": _Target(
        "norm equivalent to the pairing supremum over unit conjugate-norm fields",
        _eval_duality, _LINE_BOX, "smooth-decaying", 8, 2.0,
        (("radial-log", (2.0, 0.5)), ("gaussian-bump", (1.8, 0.7)), ("sinusoidal", (2.5, 0.8)))),
    "maximal": _Target(
        "ball-average maximal operator bounded on the variable-exponent space",
        _eval_maximal, _CUBE_BOX, "smooth-decaying", 5, 10.0,
        (("radial-log", (2.0, 0.5)), ("constant", (2.0,)), ("gaussian-bump", (2.2, 0.5))),
        stacked=_maximal_images),
    "riesz_potential": _Target(
        "smoothing potential maps the base space into the lifted-exponent space",
        _eval_riesz_potential, _CUBE_BOX, "smooth-decaying", 5, 10.0,
        (("radial-log", (2.0, 0.5)),), stacked=_potential_images),
    "proposition1": _Target(
        "smoothing potential bounded from the mixed space into the doubled-exponent space",
        _eval_proposition1, _CUBE_BOX, "smooth-decaying", 5, 10.0,
        (("radial-log", (1.5, 0.3)),), stacked=_potential_images),
    "embedding": _Target(
        "pointwise-smaller exponents embed with constant one plus the domain measure",
        _eval_embedding, _LINE_BOX, "smooth-decaying", 8, 1.0 + _LINE_BOX.measure,
        (("radial-log", (1.8, 0.4)), ("gaussian-bump", (1.6, 0.5)))),
    "radial_majorant": _Target(
        "radially decreasing convolution dominated by its mass times the maximal function",
        _eval_radial_majorant, _TORUS, "plane-wave-mix", 6, 1.05, stacked=_majorant_ratios),
    "grad_heat": _Target(
        "heat kernel gradient controlled by the inverse of t^2 + |x|^4",
        _eval_grad_heat, _SCAN, "plane-wave-mix", 8, 0.30, scan=True),
    "lemma_unit_norm": _Target(
        "unit-function norm bracketed by horizon powers of the extreme exponents",
        _eval_lemma_unit_norm, _SCAN, "plane-wave-mix", 12, 2.0, scan=True),
}

TARGETS = tuple(_TARGETS)


def _images(cfg: CampaignConfig, level: int, corpus, indices):
    """The target operator applied to the chosen elements in one stacked
    call, one image per element; ``None`` each for targets without one."""
    apply = _TARGETS[cfg.target].stacked
    if apply is None:
        return [None] * len(indices)
    values = np.stack([corpus[i].values for i in indices])
    return apply(cfg, cfg.grids[level], values)


def _ratio(cfg: CampaignConfig, level: int, index: int, corpus, image) -> float:
    return float(_TARGETS[cfg.target].evaluate(cfg, cfg.grids[level], index, corpus, image))


def _level_corpus(cfg: CampaignConfig, level: int):
    if _TARGETS[cfg.target].scan:
        return None
    return generate_corpus(cfg.corpus_kind, cfg.corpus_size, cfg.grids[level],
                           cfg.seed)


def evaluate_element(cfg: CampaignConfig, level: int, index: int,
                     corpus=None) -> float:
    """Ratio of one corpus element at one level; regenerates the corpus if
    not supplied, so a stored (level, element) reference replays exactly."""
    if not 0 <= level < cfg.refinement_levels:
        raise IndexError(f"level {level} outside the configured ladder")
    if not 0 <= index < cfg.corpus_size:
        raise IndexError(f"element {index} outside the corpus")
    if corpus is None:
        corpus = _level_corpus(cfg, level)
    (image,) = _images(cfg, level, corpus, [index])
    return _ratio(cfg, level, index, corpus, image)


def run_campaign(cfg: CampaignConfig) -> InequalityReport:
    """Evaluate every element at every level; worst case by first strict max."""
    per_level = []
    all_ratios = []
    worst = WorstCase(0, 0, -np.inf)
    for level in range(cfg.refinement_levels):
        corpus = _level_corpus(cfg, level)
        try:
            images = _images(cfg, level, corpus, range(cfg.corpus_size))
        except Exception as exc:
            raise CampaignElementError(f"target {cfg.target}, level {level}: {exc}") from exc
        ratios = []
        for index in range(cfg.corpus_size):
            try:
                ratio = _ratio(cfg, level, index, corpus, images[index])
            except Exception as exc:
                raise CampaignElementError(
                    f"target {cfg.target}, level {level}, element {index}: {exc}"
                ) from exc
            ratios.append(ratio)
            if ratio > worst.ratio:
                worst = WorstCase(level, index, ratio)
        per_level.append(max(ratios))
        all_ratios.append(tuple(ratios))
    observed = max(per_level)
    return InequalityReport(
        target=cfg.target,
        observed_max_ratio=observed,
        per_level_max=tuple(per_level),
        passed=observed <= cfg.bound,
        bound=cfg.bound,
        statement=_TARGETS[cfg.target].statement,
        worst_case=worst,
        ratios=tuple(all_ratios),
    )


def replay_worst_case(cfg: CampaignConfig, worst: WorstCase) -> float:
    """Recompute the stored worst case from scratch."""
    return evaluate_element(cfg, worst.level, worst.element)
