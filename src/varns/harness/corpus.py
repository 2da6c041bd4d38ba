"""Seeded test-field corpora.

Each kind draws a feature's parameters in fractional box coordinates and
adds its samples at once, as a ``divergence-free`` field adds the transverse
plane waves the solver's ``c_B`` trials are made of.  No draw depends on the
grid, so regenerating a corpus on a refined grid yields the same analytic
fields sampled more finely.  All draws come from a single generator seeded
by the caller: identical (kind, size, grid shape family, seed) means
identical fields bit-for-bit.
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

# bump centers stay within 10% of the box center and widths below 6.5% of
# the shortest extent, which keeps the boundary-shell values under 1e-13
# even on the coarsest grids
_BUMP_CENTER_SPAN = 0.10
_BUMP_WIDTH_RANGE = (0.05, 0.065)


def _bumps(rng: np.random.Generator, grid: GridSpec) -> np.ndarray:
    """Two to four signed Gaussian bumps near the box center."""
    coords, out = grid.coords(), np.zeros(grid.shape)
    for _ in range(int(rng.integers(2, 5))):
        center = rng.uniform(-_BUMP_CENTER_SPAN, _BUMP_CENTER_SPAN, size=grid.dimension)
        width = rng.uniform(*_BUMP_WIDTH_RANGE) * min(grid.extents)
        amp = rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0])
        r2 = sum((coords[axis] - (grid.center[axis] + center[axis] * grid.extents[axis])) ** 2
                 for axis in range(grid.dimension))
        out += amp * np.exp(-r2 / width**2)
    return out


def _waves(rng: np.random.Generator, grid: GridSpec,
           count_range: tuple[int, int] = (3, 6)) -> np.ndarray:
    """A sum of cosine plane waves with nonzero integer modes in ``[-3, 3]``."""
    out = np.zeros(grid.shape)
    for _ in range(int(rng.integers(*count_range))):
        while True:
            mode = rng.integers(-3, 4, size=grid.dimension)
            if np.any(mode != 0):
                break
        amp = rng.uniform(0.3, 1.0)
        out += amp * np.cos(_wave_argument(mode, rng.uniform(0.0, 2.0 * np.pi), grid))
    return out


def _boxes(rng: np.random.Generator, grid: GridSpec) -> np.ndarray:
    """The indicator of a union of one to three half-open boxes."""
    coords, out = grid.coords(), np.zeros(grid.shape, dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        lo = rng.uniform(0.15, 0.45, size=grid.dimension)
        hi = lo + rng.uniform(0.20, 0.35, size=grid.dimension)
        inside = np.ones(grid.shape, dtype=bool)
        for axis in range(grid.dimension):
            x, o, e = coords[axis], grid.origin[axis], grid.extents[axis]
            inside &= (x >= o + lo[axis] * e) & (x < o + hi[axis] * e)
        out |= inside
    return out.astype(float)


def _transverse_waves(rng: np.random.Generator, grid: GridSpec) -> np.ndarray:
    """Two to four transverse plane waves: a divergence-free vector field."""
    count = int(rng.integers(2, 5))
    return sum(_transverse_wave(rng, grid)[1] for _ in range(count))


_SAMPLERS = {"smooth-decaying": _bumps, "plane-wave-mix": _waves,
             "indicator-union": _boxes, "divergence-free": _transverse_waves}
KINDS = tuple(_SAMPLERS)


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
    field = VectorField if kind == "divergence-free" else ScalarField
    return [field(_SAMPLERS[kind](rng, grid), grid) for _ in range(size)]


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
            values = amplitude * _waves(rng, grid, (2, 4))
            entries[l][m] = values
            entries[m][l] = -values
    return TensorField(entries, grid)
