"""Modulars, Luxemburg norms, and the inequalities tying them together.

The modular of a field ``f`` against an exponent field ``p`` is the
quadrature of ``|f(x)|^p(x)``.  The Luxemburg norm is the smallest positive
scale ``lam`` with ``modular(f / lam) <= 1``.  For nonzero ``f`` the log of
the modular is convex and decreasing in ``log(lam)``, with slope between
``-p_plus`` and ``-p_minus``.  A Newton solve in ``log(lam)`` returns the
root itself, so the value is a continuous function of ``f`` up to rounding,
and the slope bound certifies a tolerance relative to the value, at any
scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentField, conjugate_exponent
from .fields import (
    TRUNCATED,
    GridSpec,
    ScalarField,
    require_same_grid,
)

_MAX_STEPS = 100


class BisectionError(RuntimeError):
    """The Luxemburg solve could not certify its root; input scale or tolerance is pathological."""


class UndefinedRatioError(ZeroDivisionError):
    """A defect ratio has a null denominator."""


class ExponentRelationError(ValueError):
    """Exponent fields do not satisfy the pointwise relation an inequality needs."""


@dataclass(frozen=True)
class NormValue:
    """A computed norm: the value, which norm it is, and the achieved tolerance."""

    value: float
    kind: str
    tolerance: float


def modular(f: ScalarField, p: ExponentField) -> float:
    """Quadrature of ``|f(x)|^p(x)`` over the grid."""
    require_same_grid(f, p)
    return float(f.grid.cell_volume * np.sum(np.abs(f.values) ** p.samples))


def classical_norm(f: ScalarField, q: float) -> float:
    """Constant-exponent Lebesgue norm by direct quadrature."""
    if not 0.0 < q < math.inf:
        raise ValueError(f"classical exponent must be positive and finite, got {q}")
    return float((f.grid.cell_volume * np.sum(np.abs(f.values) ** q)) ** (1.0 / q))


def luxemburg_norm(f: ScalarField, p: ExponentField, tol: float = 1e-8) -> NormValue:
    """Luxemburg norm of ``f`` for the exponent field ``p``, to relative tolerance ``tol``.

    Returns exactly zero for the zero field.  Otherwise solves
    ``G(s) = log modular(f / e^s) = 0`` for ``s = log(lam)``.  ``G`` is a
    log-sum-exp of affine functions of ``s``, so it is convex and decreasing
    with slope in ``[-p_plus, -p_minus]``.  One evaluation at ``s`` thus
    puts the root within ``|G(s)| / p_minus`` of ``s``, and the Newton point
    ``s + G(s) / |G'(s)|`` lies in that interval too.  Newton runs from
    ``min(G(0) / p_minus, G(0) / p_plus)`` and stops at the first point
    whose interval has half-width at most ``log1p(tol) / 16``.  The value is
    that point's Newton point, which is the root up to rounding, and the
    tolerance ``value * ((1 + tol)^(1/8) - 1)`` bounds its distance from the
    root with room for rounding.
    """
    require_same_grid(f, p)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    a = np.abs(f.values)
    live = a > 0.0
    if not live.any():
        return NormValue(0.0, "luxemburg", 0.0)
    log_a, pexp = np.log(a[live]), p.samples[live]
    w = f.grid.cell_volume

    def log_modular(s: float) -> tuple[float, float]:
        z = pexp * (log_a - s)
        top = z.max()
        e = np.exp(z - top)
        total = e.sum()
        return float(top + np.log(w * total)), float(-(pexp * e).sum() / total)

    g0, _ = log_modular(0.0)
    if g0 == 0.0:
        return NormValue(1.0, "luxemburg", 0.0)
    width = math.log1p(tol) / 16.0
    s = min(g0 / p.p_minus, g0 / p.p_plus)
    for _ in range(_MAX_STEPS):
        g, slope = log_modular(s)
        s -= g / slope
        if abs(g) <= p.p_minus * width:
            value = math.exp(s)
            return NormValue(value, "luxemburg", value * math.expm1(2.0 * width))
    raise BisectionError(f"could not certify the norm to relative tolerance {tol}")


def mixed_norm(f: ScalarField, p: ExponentField, frak_p: float,
               tol: float = 1e-8) -> NormValue:
    """Maximum of the Luxemburg norm and the classical ``frak_p`` norm."""
    lux = luxemburg_norm(f, p, tol)
    fixed = classical_norm(f, frak_p)
    return NormValue(max(lux.value, fixed), "mixed", lux.tolerance)


def _check_holder_triple(p: ExponentField, q: ExponentField, r: ExponentField):
    residual = np.max(np.abs(1.0 / p.samples - 1.0 / q.samples - 1.0 / r.samples))
    if residual > 1e-12:
        raise ExponentRelationError(
            f"1/p = 1/q + 1/r fails pointwise, worst residual {residual:.3e}"
        )


def holder_defect(f: ScalarField, g: ScalarField, p: ExponentField,
                  q: ExponentField, r: ExponentField, tol: float = 1e-9) -> float:
    """Ratio ``norm(fg, p) / (norm(f, q) * norm(g, r))`` with ``1/p = 1/q + 1/r``."""
    require_same_grid(f, g, p, q, r)
    _check_holder_triple(p, q, r)
    num = luxemburg_norm(ScalarField(f.values * g.values, f.grid), p, tol).value
    den = luxemburg_norm(f, q, tol).value * luxemburg_norm(g, r, tol).value
    if den == 0.0:
        raise UndefinedRatioError("product bound ratio undefined: a factor has zero norm")
    return num / den


def conjugate_pairing_lower_bound(f: ScalarField, p: ExponentField, seed: int = 0,
                                  tol: float = 1e-8) -> float:
    """Best pairing ``integral |f| |g|`` over unit-norm conjugate candidates.

    The candidate set is the canonical near-optimizer ``|f / norm(f)|^(p-1)``
    plus 8 seeded rough fields, each normalized in the conjugate Luxemburg
    norm.  The result is a certified lower bound for the dual norm and never
    exceeds twice the Luxemburg norm of ``f``.
    """
    require_same_grid(f, p)
    pc = conjugate_exponent(p)
    w = f.grid.cell_volume
    af = np.abs(f.values)
    lux = luxemburg_norm(f, p, tol).value
    if lux == 0.0:
        return 0.0
    pool = [(af / lux) ** (p.samples - 1.0)]
    rng = np.random.default_rng(seed)
    for _ in range(8):
        pool.append(np.abs(rng.standard_normal(f.grid.shape)) + 0.1)
    best = 0.0
    for values in pool:
        g = ScalarField(values, f.grid)
        gnorm = luxemburg_norm(g, pc, tol).value
        if gnorm == 0.0:
            continue
        best = max(best, float(w * np.sum(af * values) / gnorm))
    return best


def unit_function_norm(T: float, p: ExponentField, tol: float = 1e-8) -> NormValue:
    """Luxemburg norm of the constant function 1 on the interval ``[0, T]``."""
    if p.grid.dimension != 1 or p.grid.topology != TRUNCATED:
        raise ValueError("unit-function norm expects a one-dimensional truncated grid")
    if abs(p.grid.extents[0] - T) > 1e-12 * max(1.0, T):
        raise ValueError(
            f"grid extent {p.grid.extents[0]} does not cover the requested horizon {T}"
        )
    return luxemburg_norm(ScalarField(np.ones(p.grid.shape), p.grid), p, tol)


def embedding_defect(f: ScalarField, p1: ExponentField, p2: ExponentField,
                     tol: float = 1e-8) -> float:
    """Ratio ``norm(f, p1) / norm(f, p2)`` for ``p1 <= p2`` on a bounded box.

    The pointwise order is verified first; the ratio is bounded by
    ``1 + measure(box)``.
    """
    require_same_grid(f, p1, p2)
    gap = p1.samples - p2.samples
    if np.any(gap > 1e-12):
        idx = np.unravel_index(int(np.argmax(gap)), p1.grid.shape)
        point = tuple(float(grid_axis[i]) for grid_axis, i in
                      zip([p1.grid.axis_coords(d) for d in range(p1.grid.dimension)], idx))
        raise ExponentRelationError(
            f"p1 <= p2 fails at grid point {point}: "
            f"{p1.samples[idx]:.6f} > {p2.samples[idx]:.6f}"
        )
    den = luxemburg_norm(f, p2, tol).value
    if den == 0.0:
        raise UndefinedRatioError("embedding ratio undefined: zero field")
    return luxemburg_norm(f, p1, tol).value / den


def holder_split(q: ExponentField, r: ExponentField) -> ExponentField:
    """Exponent field ``p`` with ``1/p = 1/q + 1/r`` pointwise."""
    require_same_grid(q, r)
    samples = 1.0 / (1.0 / q.samples + 1.0 / r.samples)
    return ExponentField(samples, q.grid)


__all__ = [
    "BisectionError",
    "ExponentRelationError",
    "NormValue",
    "UndefinedRatioError",
    "classical_norm",
    "conjugate_pairing_lower_bound",
    "embedding_defect",
    "holder_defect",
    "holder_split",
    "luxemburg_norm",
    "mixed_norm",
    "modular",
    "unit_function_norm",
]
