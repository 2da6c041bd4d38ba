"""Uniform-grid geometry and the field containers shared across the library.

Two grid conventions are used, chosen by topology:

* ``"truncated"`` boxes sample at cell midpoints and integrate with the
  midpoint rule; fields are read as extended by zero outside the box.
* ``"periodic"`` boxes sample at the standard FFT nodes ``origin + i*h``
  and integrate with the (exact-on-band-limited) rectangle rule.

Quadrature weight is uniform in both cases: the cell volume.  Scalar,
vector and tensor fields are one sample container of rank 0, 1 or 2: a
checked, finite numpy array whose ``rank`` component axes of length
``dim`` lead the grid axes, plus the grid it lives on.  The three share
one check and one arithmetic, and are siblings, not subtypes of one
another.  Vector and tensor fields hand out per-component
:class:`ScalarField` views of their array.  A :class:`SpaceTimeField`
stacks a vector field per time node and passes the same check; a
:class:`SeparableField` holds one per mode, each with a sampled time
modulation.  All containers are immutable value objects.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

PERIODIC = "periodic"
TRUNCATED = "truncated"
_TOPOLOGIES = (PERIODIC, TRUNCATED)


class GridMismatchError(ValueError):
    """Two objects that must live on the same grid do not."""


class FieldNotFiniteError(ValueError):
    """Field values contain NaN or Inf."""


def as_count(value, name: str) -> int:
    """``value`` as an ``int`` if it is an integer or an integral float;
    anything else raises ``ValueError`` naming ``name``."""
    if isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _as_float_tuple(values, length: int, name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) != length:
        raise ValueError(f"{name} must have {length} entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned uniform grid on a box ``[origin, origin + extents]``.

    Parameters
    ----------
    dimension : int
        1 or 3.
    extents : tuple of float
        Side lengths per axis, all positive.
    resolution : tuple of int
        Cells per axis, at least 2.
    topology : str
        ``"periodic"`` or ``"truncated"``.
    origin : tuple of float
        Lower corner of the box.  Defaults to the origin.
    """

    dimension: int
    extents: tuple[float, ...]
    resolution: tuple[int, ...]
    topology: str = TRUNCATED
    origin: tuple[float, ...] = None

    def __post_init__(self):
        object.__setattr__(self, "dimension", as_count(self.dimension, "dimension"))
        if self.dimension not in (1, 3):
            raise ValueError(f"dimension must be 1 or 3, got {self.dimension}")
        if self.topology not in _TOPOLOGIES:
            raise ValueError(f"topology must be one of {_TOPOLOGIES}, got {self.topology!r}")
        object.__setattr__(self, "extents", _as_float_tuple(self.extents, self.dimension, "extents"))
        origin = self.origin if self.origin is not None else (0.0,) * self.dimension
        object.__setattr__(self, "origin", _as_float_tuple(origin, self.dimension, "origin"))
        res = tuple(as_count(r, "resolution") for r in self.resolution)
        if len(res) != self.dimension:
            raise ValueError(f"resolution must have {self.dimension} entries, got {len(res)}")
        if any(r < 2 for r in res):
            raise ValueError(f"resolution must be at least 2 per axis, got {res}")
        if not all(0.0 < e < np.inf for e in self.extents):
            raise ValueError(f"extents must be positive and finite, got {self.extents}")
        if not np.isfinite(self.origin).all():
            raise ValueError(f"origin must be finite, got {self.origin}")
        object.__setattr__(self, "resolution", res)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @cached_property
    def spacings(self) -> tuple[float, ...]:
        return tuple(e / r for e, r in zip(self.extents, self.resolution))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @cached_property
    def measure(self) -> float:
        """Total measure of the box."""
        return float(np.prod(self.extents))

    @cached_property
    def center(self) -> tuple[float, ...]:
        return tuple(o + e / 2 for o, e in zip(self.origin, self.extents))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Sample coordinates along one axis, per the topology convention."""
        h = self.spacings[axis]
        idx = np.arange(self.resolution[axis], dtype=float)
        if self.topology == TRUNCATED:
            return self.origin[axis] + (idx + 0.5) * h
        return self.origin[axis] + idx * h

    def coords(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per axis."""
        axes = [self.axis_coords(i) for i in range(self.dimension)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def refine(self, factor: int = 2) -> GridSpec:
        """Same box, resolution multiplied by ``factor`` per axis."""
        factor = as_count(factor, "refinement factor")
        if factor < 1:
            raise ValueError(f"refinement factor must be >= 1, got {factor}")
        return GridSpec(
            self.dimension,
            self.extents,
            tuple(r * factor for r in self.resolution),
            self.topology,
            self.origin,
        )


def radial_distance(grid: GridSpec, center: tuple[float, ...] | None = None) -> np.ndarray:
    """Distance from ``center`` (default: box center) at every sample point.

    Periodic grids use the minimum-image distance so the result is a genuine
    function on the torus.
    """
    if center is None:
        center = grid.center
    sq = np.zeros(grid.shape)
    for axis, x in enumerate(grid.coords()):
        d = np.abs(x - center[axis])
        if grid.topology == PERIODIC:
            d = np.minimum(d, grid.extents[axis] - d)
        sq = sq + d * d
    return np.sqrt(sq)


def _wave_argument(mode, phase: float, grid: GridSpec) -> np.ndarray:
    """``2 pi n . (x - origin) / L + phase`` at every sample point, for the
    plane wave of integer mode ``n``."""
    coords = grid.coords()
    arg = np.zeros(grid.shape)
    for axis in range(grid.dimension):
        arg = arg + (2.0 * np.pi * mode[axis] / grid.extents[axis]) \
            * (coords[axis] - grid.origin[axis])
    return arg + phase


def _transverse_wave(rng: np.random.Generator, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """A seeded divergence-free plane wave ``amp cos(2 pi n . x / L + phase) e``
    on a 3d grid: its mode ``n`` and its samples, of shape ``(3, *grid.shape)``.
    Drawn in this order: a nonzero mode ``n`` in ``[-2, 2]^3``, a unit ``e``
    orthogonal to ``n`` (a standard normal projected and normalised), ``amp``
    and ``phase``."""
    while True:
        mode = rng.integers(-2, 3, size=3)
        if np.any(mode != 0):
            break
    m = mode.astype(float)
    e = rng.standard_normal(3)
    e = e - m * (m @ e) / (m @ m)
    if np.linalg.norm(e) < 1e-8:  # a draw parallel to n, of probability zero
        e = np.cross(m, [1.0, 0.3, 0.7])
    e = e / np.linalg.norm(e)
    amp = rng.uniform(0.3, 1.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return mode, np.multiply.outer(e, amp * np.cos(_wave_argument(mode, phase, grid)))


def _check_values(values, grid: GridSpec, what: str, lead: tuple[int, ...] = ()) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    want = lead + grid.shape
    if arr.shape != want:
        raise GridMismatchError(f"{what} shape {arr.shape} does not match {want} for this grid")
    # min and max propagate NaN and need no temporary the size of a stack
    if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise FieldNotFiniteError(f"{what} contains non-finite values")
    return arr


@dataclass(frozen=True)
class _Samples:
    """Finite samples of rank ``_rank`` on a grid: one ``(dim,) * rank +
    grid.shape`` array.  Sums, differences and multiples keep the type."""

    values: np.ndarray
    grid: GridSpec

    _rank = 0
    _kind = "field"

    def __post_init__(self):
        lead = (self.grid.dimension,) * self._rank
        object.__setattr__(self, "values",
                           _check_values(self.values, self.grid, self._kind, lead))

    def __add__(self, other):
        require_same_grid(self, other)
        return type(self)(self.values + other.values, self.grid)

    def __sub__(self, other):
        require_same_grid(self, other)
        return type(self)(self.values - other.values, self.grid)

    def __mul__(self, factor: float):
        return type(self)(self.values * float(factor), self.grid)

    __rmul__ = __mul__


class ScalarField(_Samples):
    """Real scalar samples on a grid."""

    _kind = "scalar field"


class VectorField(_Samples):
    """Vector samples on a grid: one ``(dim, *grid.shape)`` array."""

    _rank = 1
    _kind = "vector field"

    @classmethod
    def from_arrays(cls, arrays, grid: GridSpec) -> VectorField:
        """Stack one array per component."""
        return cls(arrays, grid)

    @cached_property
    def components(self) -> tuple[ScalarField, ...]:
        """Per-component views of ``values``."""
        return tuple(ScalarField(v, self.grid) for v in self.values)


class TensorField(_Samples):
    """Rank-2 tensor samples: one ``(dim, dim, *grid.shape)`` array."""

    _rank = 2
    _kind = "tensor field"

    @cached_property
    def components(self) -> tuple[tuple[ScalarField, ...], ...]:
        """Per-entry views of ``values``, row by row."""
        return tuple(tuple(ScalarField(c, self.grid) for c in row) for row in self.values)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time nodes ``0 = t_0 < ... < t_steps = T``."""

    T: float
    steps: int

    def __post_init__(self):
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "steps", as_count(self.steps, "steps"))
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    @property
    def dt(self) -> float:
        return self.T / self.steps


@dataclass(frozen=True)
class SpaceTimeField:
    """Vector field sampled on every node of a time grid.

    The payload is one contiguous stack ``data[node, component, ...space]``.
    """

    data: np.ndarray
    tg: TimeGrid
    grid: GridSpec

    def __post_init__(self):
        lead = (self.tg.steps + 1, self.grid.dimension)
        object.__setattr__(self, "data",
                           _check_values(self.data, self.grid, "space-time field", lead))

    def __add__(self, other: SpaceTimeField) -> SpaceTimeField:
        self._check_compatible(other)
        return SpaceTimeField(self.data + other.data, self.tg, self.grid)

    def __sub__(self, other: SpaceTimeField) -> SpaceTimeField:
        self._check_compatible(other)
        return SpaceTimeField(self.data - other.data, self.tg, self.grid)

    def __mul__(self, factor: float) -> SpaceTimeField:
        return SpaceTimeField(self.data * float(factor), self.tg, self.grid)

    __rmul__ = __mul__

    def _check_compatible(self, other: SpaceTimeField):
        if self.tg != other.tg:
            raise GridMismatchError("space-time fields have different time grids")
        require_same_grid(self, other)


@dataclass(frozen=True)
class SeparableField:
    """Vector field ``sum_j m_j(t) V_j(x)`` on the nodes of a time grid.

    ``modes`` holds ``(V_j, m_j)`` pairs, each a :class:`VectorField` and
    its modulation, one finite sample per node of ``tg``, all on one grid.
    """

    modes: tuple[tuple[VectorField, np.ndarray], ...]
    tg: TimeGrid

    def __post_init__(self):
        if not self.modes:
            raise ValueError("a separable field needs at least one mode")
        if not all(isinstance(field, VectorField) for field, _ in self.modes):
            raise TypeError("every mode's field must be a VectorField")
        checked = []
        for field, modulation in self.modes:
            require_same_grid(field, self.modes[0][0])
            _check_values(field.values, field.grid, "mode field", (field.grid.dimension,))
            m = np.array(modulation, dtype=float)
            if m.shape != (self.tg.steps + 1,):
                raise ValueError(f"a modulation needs {self.tg.steps + 1} node samples, "
                                 f"got shape {m.shape}")
            if not np.isfinite(m).all():
                raise FieldNotFiniteError("modulation contains non-finite values")
            m.flags.writeable = False
            checked.append((field, m))
        object.__setattr__(self, "modes", tuple(checked))

    @property
    def grid(self) -> GridSpec:
        return self.modes[0][0].grid

    def frame(self, i: int, parts=None) -> np.ndarray:
        """Node ``i``, ``sum_j m_j[i] V_j``, or ``sum_j m_j[i] parts[j]``."""
        if parts is None:
            parts = [field.values for field, _ in self.modes]
        out = self.modes[0][1][i] * parts[0]
        for (_, m), part in zip(self.modes[1:], parts[1:]):
            out += m[i] * part
        return out

    @property
    def data(self) -> np.ndarray:
        """Every node's frame in one ``(steps + 1, dim, *grid)`` stack."""
        out = np.empty((self.tg.steps + 1,) + self.modes[0][0].values.shape)
        for i in range(self.tg.steps + 1):
            out[i] = self.frame(i)
        return out


def require_same_grid(*objects, grid: GridSpec | None = None):
    """Raise :class:`GridMismatchError` unless all objects share one grid."""
    grids = [grid] if grid is not None else []
    grids += [o.grid for o in objects if hasattr(o, "grid")]
    first = grids[0]
    for g in grids[1:]:
        if g != first:
            raise GridMismatchError(f"grids differ: {first} vs {g}")
