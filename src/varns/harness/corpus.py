"""Seeded test-field corpora.

Every random parameter is drawn in fractional box coordinates, and no draw
depends on the grid, so regenerating a corpus on a refined grid yields the
same analytic fields sampled more finely.  A divergence-free field is a sum
of the transverse plane waves the solver's ``c_B`` trials are made of.  All
draws come from a single generator seeded by the caller: identical (kind,
size, grid shape family, seed) means identical fields bit-for-bit.
"""
from __future__ import annotations

import numpy as np

from ..fields import (
    PERIODIC,
    GridSpec,
    ScalarField,
    TensorField,
    VectorField,
    _transverse_wave,
    _wave_argument,
)

KINDS = ("smooth-decaying", "plane-wave-mix", "indicator-union", "divergence-free")

# bump centers stay within 10% of the box center and widths below 6.5% of
# the shortest extent, which keeps the boundary-shell values under 1e-13
# even on the coarsest grids
_BUMP_CENTER_SPAN = 0.10
_BUMP_WIDTH_RANGE = (0.05, 0.065)


def _draw_bumps(rng: np.random.Generator, dimension: int) -> list[dict]:
    count = int(rng.integers(2, 5))
    bumps = []
    for _ in range(count):
        bumps.append({
            "center_frac": rng.uniform(-_BUMP_CENTER_SPAN, _BUMP_CENTER_SPAN,
                                       size=dimension),
            "width_frac": rng.uniform(*_BUMP_WIDTH_RANGE),
            "amp": rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]),
        })
    return bumps


def _eval_bumps(bumps: list[dict], grid: GridSpec) -> np.ndarray:
    coords = grid.coords()
    lmin = min(grid.extents)
    out = np.zeros(grid.shape)
    for bump in bumps:
        r2 = 0.0
        for axis in range(grid.dimension):
            c = grid.center[axis] + bump["center_frac"][axis] * grid.extents[axis]
            r2 = r2 + (coords[axis] - c) ** 2
        width = bump["width_frac"] * lmin
        out += bump["amp"] * np.exp(-r2 / width**2)
    return out


def _draw_waves(rng: np.random.Generator, dimension: int,
                count_range: tuple[int, int] = (3, 6)) -> list[dict]:
    count = int(rng.integers(*count_range))
    waves = []
    for _ in range(count):
        while True:
            mode = rng.integers(-3, 4, size=dimension)
            if np.any(mode != 0):
                break
        waves.append({
            "mode": mode,
            "amp": rng.uniform(0.3, 1.0),
            "phase": rng.uniform(0.0, 2.0 * np.pi),
        })
    return waves


def _eval_waves(waves: list[dict], grid: GridSpec) -> np.ndarray:
    out = np.zeros(grid.shape)
    for wave in waves:
        out += wave["amp"] * np.cos(_wave_argument(wave["mode"], wave["phase"], grid))
    return out


def _draw_boxes(rng: np.random.Generator, dimension: int) -> list[dict]:
    count = int(rng.integers(1, 4))
    boxes = []
    for _ in range(count):
        lo = rng.uniform(0.15, 0.45, size=dimension)
        width = rng.uniform(0.20, 0.35, size=dimension)
        boxes.append({"lo_frac": lo, "hi_frac": lo + width})
    return boxes


def _eval_boxes(boxes: list[dict], grid: GridSpec) -> np.ndarray:
    coords = grid.coords()
    out = np.zeros(grid.shape, dtype=bool)
    for box in boxes:
        inside = np.ones(grid.shape, dtype=bool)
        for axis in range(grid.dimension):
            lo = grid.origin[axis] + box["lo_frac"][axis] * grid.extents[axis]
            hi = grid.origin[axis] + box["hi_frac"][axis] * grid.extents[axis]
            inside &= (coords[axis] >= lo) & (coords[axis] < hi)
        out |= inside
    return out.astype(float)


def generate_corpus(kind: str, size: int, grid: GridSpec, seed: int) -> list:
    """Deterministic field corpus of the given kind.

    Scalar kinds work on either topology; ``divergence-free`` produces
    vector fields of transverse waves and needs a 3d torus.  Waves use
    integer modes, so they stay band-limited on any grid with at least
    8 points per axis.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown corpus kind {kind!r}")
    if size < 1:
        raise ValueError(f"corpus size must be at least 1, got {size}")
    if kind == "divergence-free" and (grid.dimension != 3 or grid.topology != PERIODIC):
        raise ValueError("divergence-free corpus needs a three-dimensional torus")
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(size):
        if kind == "smooth-decaying":
            fields.append(ScalarField(_eval_bumps(_draw_bumps(rng, grid.dimension),
                                                  grid), grid))
        elif kind == "plane-wave-mix":
            fields.append(ScalarField(_eval_waves(_draw_waves(rng, grid.dimension),
                                                  grid), grid))
        elif kind == "indicator-union":
            fields.append(ScalarField(_eval_boxes(_draw_boxes(rng, grid.dimension),
                                                  grid), grid))
        else:
            count = int(rng.integers(2, 5))
            fields.append(VectorField(sum(_transverse_wave(rng, grid)[1] for _ in range(count)),
                                      grid))
    return fields


def antisymmetric_tensor_field(grid: GridSpec, seed: int, amplitude: float = 1.0) -> TensorField:
    """Smooth antisymmetric tensor; its row divergence is divergence-free.

    Useful as a static forcing potential: the double divergence vanishes
    identically, so the derived force passes the solver's gate exactly.
    """
    rng = np.random.default_rng(seed)
    dim = grid.dimension
    entries = [[None] * dim for _ in range(dim)]
    zero = np.zeros(grid.shape)
    for l in range(dim):
        entries[l][l] = zero
        for m in range(l + 1, dim):
            values = amplitude * _eval_waves(_draw_waves(rng, dim, (2, 4)), grid)
            entries[l][m] = values
            entries[m][l] = -values
    return TensorField(entries, grid)
