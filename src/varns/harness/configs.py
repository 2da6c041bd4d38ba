"""JSON run configurations.

One JSON document describes one run; command-line flags override document
keys one-to-one.  Campaign documents start from the target's defaults and
replace only the keys present.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from ..exponents import ExponentField, make_exponent
from ..fields import (
    TRUNCATED,
    GridSpec,
    SeparableField,
    TimeGrid,
    VectorField,
    as_count,
    require_same_grid,
)
from ..mild_solver import SolverConfig
from ..operators import make_workspace, tensor_divergence
from .campaigns import CampaignConfig, _grid_ladder, default_campaign_config
from .corpus import antisymmetric_tensor_field, generate_corpus
from .fieldfile import read_field


def _merge(doc: dict, overrides: dict | None) -> dict:
    merged = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    return merged


def grid_from_doc(doc: dict) -> GridSpec:
    return GridSpec(doc["dimension"], tuple(doc["extents"]), tuple(doc["resolution"]),
                    doc.get("topology", TRUNCATED), doc.get("origin"))


def exponent_from_doc(doc: dict, grid: GridSpec) -> ExponentField:
    return make_exponent(doc["family"], tuple(doc["params"]), grid)


def build_campaign_config(doc: dict, overrides: dict | None = None) -> CampaignConfig:
    doc = _merge(doc, overrides)
    if "target" not in doc:
        raise ValueError("campaign config needs a 'target' key")
    levels = as_count(doc.get("refinement_levels", 3), "refinement_levels")
    # one level: only the ladder set below is checked against the RAM
    cfg = default_campaign_config(doc["target"], refinement_levels=1)
    updates = {}
    for key in ("corpus_size", "seed", "corpus_kind"):
        if key in doc:
            updates[key] = doc[key]
    for key in ("bound", "sigma", "frak_p", "tol"):
        if key in doc:
            updates[key] = float(doc[key])
    if "exponent_specs" in doc:
        updates["exponent_specs"] = tuple(
            (tag, tuple(params)) for tag, params in doc["exponent_specs"])
    if "grids" in doc:
        updates["grids"] = tuple(grid_from_doc(g) for g in doc["grids"])
        if "refinement_levels" in doc and len(updates["grids"]) != levels:
            raise ValueError(f"{len(updates['grids'])} grids for {levels} refinement levels")
    else:
        base = grid_from_doc(doc["base_grid"]) if "base_grid" in doc else cfg.grids[0]
        updates["grids"] = _grid_ladder(base, levels)
    return dataclasses.replace(cfg, **updates)


def _initial_field_from_doc(doc: dict, grid: GridSpec) -> VectorField:
    if "components_paths" in doc:
        comps = [read_field(path) for path in doc["components_paths"]]
        require_same_grid(*comps, grid=grid)
        return VectorField.from_arrays([c.values for c in comps], grid)
    kind = doc.get("kind", "divergence-free")
    if kind != "divergence-free":
        raise ValueError(f"unknown initial-field kind {kind!r}")
    element = generate_corpus("divergence-free", 1, grid, as_count(doc.get("seed", 0), "seed"))[0]
    return element * float(doc.get("amplitude", 1.0))


def _force_from_doc(doc, grid: GridSpec, tg: TimeGrid) -> SeparableField | None:
    """One force mode: a seeded antisymmetric tensor's steady row divergence,
    or a seeded divergence-free field times ``amplitude * cos(omega * t)``."""
    if doc is None:
        return None
    kind = doc.get("kind")
    amplitude = float(doc.get("amplitude", 1.0))
    seed = as_count(doc.get("seed", 0), "seed")
    if kind == "antisymmetric-tensor":
        tensor = antisymmetric_tensor_field(grid, seed, amplitude)
        return SeparableField(((tensor_divergence(tensor, make_workspace(grid)),
                                np.ones(tg.steps + 1)),), tg)
    if kind == "modulated-divergence-free":
        omega = float(doc.get("omega", 1.0))
        shape_field = generate_corpus("divergence-free", 1, grid, seed)[0]
        # one scalar factor per node, so no array loop's rounding enters
        modulation = [amplitude * np.cos(omega * t) for t in tg.nodes]
        return SeparableField(((shape_field, modulation),), tg)
    raise ValueError(f"unknown force kind {kind!r}")


def build_solver_config(doc: dict, overrides: dict | None = None) -> SolverConfig:
    doc = _merge(doc, overrides)
    grid = grid_from_doc(doc["grid"])
    tg = TimeGrid(float(doc["T"]), doc["steps"])
    regime = doc["regime"]
    if regime == "thm1":
        p_grid = grid
    else:
        p_grid = GridSpec(1, (tg.T,), (tg.steps,), TRUNCATED, (0.0,))
    p = exponent_from_doc(doc["p"], p_grid)
    u0 = _initial_field_from_doc(doc["u0"], grid)
    force = _force_from_doc(doc.get("force"), grid, tg)
    return SolverConfig(
        regime=regime,
        p=p,
        q=None if doc.get("q") is None else float(doc["q"]),
        frak_p=float(doc.get("frak_p", 3.0)),
        tol_fixedpoint=float(doc.get("tol_fixedpoint", 1e-9)),
        max_iters=doc.get("max_iters", 20),
        tol_norm=float(doc.get("tol_norm", 1e-8)),
        u0=u0,
        force_spec=force,
        tg=tg,
    )
