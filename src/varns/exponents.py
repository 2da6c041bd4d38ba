"""Variable exponent fields ``p(x)`` and their regularity diagnostics.

An exponent field is a sampled function with ``1 < p_minus <= p(x) <=
p_plus < inf``: its samples are the field, and its constructor checks them
and derives both bounds from them.  Closed-form families are evaluated once
on the grid they are made for; a field on another grid is made there from
the same family and parameters.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import PERIODIC, GridMismatchError, GridSpec, as_count, radial_distance

FAMILIES = ("constant", "radial-log", "gaussian-bump", "sinusoidal", "custom-samples")


class ExponentRangeError(ValueError):
    """Exponent samples leave the admissible open range ``(1, inf)``."""


@dataclass(frozen=True)
class ExponentField:
    """Exponent samples on a grid, each in ``(1, inf)``.

    ``p_minus`` and ``p_plus`` are the smallest and largest sample.
    ``p_infinity`` is the decay limit, in ``(1, inf)``, for fields that have
    one (the constant, radial-log and gaussian-bump families); ``None``
    otherwise.
    """

    samples: np.ndarray
    grid: GridSpec
    p_infinity: float | None = None
    p_minus: float = field(init=False)
    p_plus: float = field(init=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.shape != self.grid.shape:
            raise GridMismatchError(
                f"exponent samples shape {samples.shape} does not match grid {self.grid.shape}"
            )
        lo, hi = float(samples.min()), float(samples.max())
        # false for NaN as well as for samples at or below 1 and infinite ones
        if not 1.0 < lo <= hi < np.inf:
            raise ExponentRangeError(f"exponent samples must lie in (1, inf), got [{lo}, {hi}]")
        p_inf = self.p_infinity
        if p_inf is not None and not 1.0 < p_inf < np.inf:
            raise ExponentRangeError(f"p_infinity must lie in (1, inf), got {p_inf}")
        for name, value in (("samples", samples), ("p_minus", lo), ("p_plus", hi)):
            object.__setattr__(self, name, value)


def make_exponent(family: str, params, grid: GridSpec) -> ExponentField:
    """Evaluate a named exponent family on a grid.

    Families and their parameters:

    * ``constant``: ``(c,)`` with value ``c`` everywhere.
    * ``radial-log``: ``(p_inf, A)`` giving ``p_inf + A / log(e + |x|)``
      with ``|x|`` measured from the box center.
    * ``gaussian-bump``: ``(a, b)`` or ``(a, b, width)`` giving
      ``a + b * exp(-(|x|/width)^2)``.
    * ``sinusoidal``: ``(a, b)`` giving ``a + b * prod_j sin(2 pi x_j / L_j)``,
      periodic with the box.
    * ``custom-samples``: flattened sample values, one per grid point.
    """
    params = tuple(float(v) for v in params)
    if family == "constant":
        (c,) = params
        return ExponentField(np.full(grid.shape, c), grid, c)
    if family == "radial-log":
        p_inf, amp = params
        r = radial_distance(grid)
        return ExponentField(p_inf + amp / np.log(np.e + r), grid, p_inf)
    if family == "gaussian-bump":
        a, b, width = params + (1.0,) if len(params) == 2 else params
        r = radial_distance(grid)
        return ExponentField(a + b * np.exp(-((r / width) ** 2)), grid, a)
    if family == "sinusoidal":
        a, b = params
        prod = np.ones(grid.shape)
        for axis, x in enumerate(grid.coords()):
            prod = prod * np.sin(2 * np.pi * (x - grid.origin[axis]) / grid.extents[axis])
        return ExponentField(a + b * prod, grid)
    if family == "custom-samples":
        n = int(np.prod(grid.shape))
        if len(params) != n:
            raise ValueError(
                f"custom-samples needs one value per grid point ({n}), got {len(params)}"
            )
        return ExponentField(np.asarray(params).reshape(grid.shape), grid)
    raise ValueError(f"unknown exponent family {family!r}, expected one of {FAMILIES}")


def _map_exponent(p: ExponentField, fn) -> ExponentField:
    """``fn`` applied to the samples and to ``p_infinity``."""
    p_inf = None if p.p_infinity is None else fn(p.p_infinity)
    return ExponentField(fn(p.samples), p.grid, p_inf)


def conjugate_exponent(p: ExponentField) -> ExponentField:
    """Pointwise conjugate ``p' = p / (p - 1)``."""
    return _map_exponent(p, lambda s: s / (s - 1.0))


def scale_exponent(p: ExponentField, factor: float) -> ExponentField:
    """Pointwise multiple ``factor * p``; rejected if the infimum drops to 1."""
    factor = float(factor)
    if factor <= 0:
        raise ValueError(f"scale factor must be positive, got {factor}")
    return _map_exponent(p, lambda s: factor * s)


@dataclass(frozen=True)
class LogHolderReport:
    """Measured log-regularity constants of an exponent field.

    ``c_local`` bounds ``|1/p(x) - 1/p(y)| * log(e + 1/|x - y|)`` over the
    sampled pair set, ``c_decay`` bounds ``|1/p(x) - 1/p_inf| * log(e + |x|)``
    (``None`` when the field has no limit exponent), and ``pair_count`` is
    the number of distinct point pairs inspected.
    """

    c_local: float
    c_decay: float | None
    pair_count: int


_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX3 = np.uint64(0x94D049BB133111EB)


def _hash_stream(seed: int, start: int, count: int) -> np.ndarray:
    # Counter-based mix so a longer stream extends a shorter one exactly.
    with np.errstate(over="ignore"):
        z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
             + np.arange(start + 1, start + count + 1, dtype=np.uint64) * _MIX1)
        z = (z ^ (z >> np.uint64(30))) * _MIX2
        z = (z ^ (z >> np.uint64(27))) * _MIX3
        return z ^ (z >> np.uint64(31))


def _point_matrix(grid: GridSpec) -> np.ndarray:
    axes = [grid.axis_coords(i) for i in range(grid.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _pair_distance(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.abs(a - b)
    if grid.topology == PERIODIC:
        for axis in range(grid.dimension):
            d[:, axis] = np.minimum(d[:, axis], grid.extents[axis] - d[:, axis])
    return np.sqrt(np.sum(d * d, axis=1))


def log_holder_constants(p: ExponentField, pair_budget: int = 200_000,
                         seed: int = 0) -> LogHolderReport:
    """Scan point pairs for the local log-continuity and decay constants.

    Grids small enough that every pair fits in ``pair_budget`` are scanned
    exhaustively; otherwise pairs come from a counter-based hash stream, so
    a larger budget with the same seed only ever adds pairs.
    """
    pair_budget, seed = as_count(pair_budget, "pair_budget"), as_count(seed, "seed")
    if pair_budget < 1:
        raise ValueError(f"pair_budget must be positive, got {pair_budget}")
    pts = _point_matrix(p.grid)
    recip = 1.0 / p.samples.ravel()
    n = pts.shape[0]
    total_pairs = n * (n - 1) // 2
    if total_pairs <= pair_budget:
        ii, jj = np.triu_indices(n, k=1)
        dist = _pair_distance(p.grid, pts[ii], pts[jj])
        c_local = float(np.max(np.abs(recip[ii] - recip[jj]) * np.log(np.e + 1.0 / dist)))
        evaluated = total_pairs
    else:
        c_local, evaluated = 0.0, 0
        chunk = 1 << 16
        drawn = 0
        while drawn < pair_budget:
            m = min(chunk, pair_budget - drawn)
            raw = _hash_stream(seed, 2 * drawn, 2 * m) % np.uint64(n)
            ii = raw[0::2].astype(np.intp)
            jj = raw[1::2].astype(np.intp)
            keep = ii != jj
            ii, jj = ii[keep], jj[keep]
            if ii.size:
                dist = _pair_distance(p.grid, pts[ii], pts[jj])
                c_local = max(c_local, float(np.max(
                    np.abs(recip[ii] - recip[jj]) * np.log(np.e + 1.0 / dist))))
            evaluated += int(ii.size)
            drawn += m
    c_decay = None
    if p.p_infinity is not None:
        r = radial_distance(p.grid).ravel()
        c_decay = float(np.max(np.abs(recip - 1.0 / p.p_infinity) * np.log(np.e + r)))
    return LogHolderReport(c_local, c_decay, evaluated)
