import operator

import numpy as np
import pytest

from varns import (
    PERIODIC,
    FieldNotFiniteError,
    GridMismatchError,
    GridSpec,
    ScalarField,
    SpaceTimeField,
    TensorField,
    TimeGrid,
    VectorField,
)

GRID = GridSpec(3, (2.0 * np.pi,) * 3, (4,) * 3, PERIODIC)
OTHER = GridSpec(3, (2.0 * np.pi,) * 3, (6,) * 3, PERIODIC)


@pytest.mark.parametrize("cls, rank, kind", [
    (ScalarField, 0, "scalar field"),
    (VectorField, 1, "vector field"),
    (TensorField, 2, "tensor field"),
])
def test_one_container_for_every_rank(cls, rank, kind):
    lead = (3,) * rank
    rng = np.random.default_rng(rank)
    a = cls(rng.standard_normal(lead + GRID.shape), GRID)
    b = cls(rng.standard_normal(lead + GRID.shape), GRID)

    # the lead shape must be (dim,) * rank, and the message names the kind
    with pytest.raises(GridMismatchError, match=kind):
        cls(np.zeros((2,) + lead + GRID.shape), GRID)
    with pytest.raises(GridMismatchError, match=kind):
        cls(np.zeros(lead + OTHER.shape), GRID)

    bad = np.zeros(lead + GRID.shape)
    bad.flat[5] = np.nan
    with pytest.raises(FieldNotFiniteError, match=kind):
        cls(bad, GRID)
    bad.flat[5] = np.inf
    with pytest.raises(FieldNotFiniteError, match=kind):
        cls(bad, GRID)

    for got, want in ((a + b, a.values + b.values), (a - b, a.values - b.values),
                      (a * 2.5, a.values * 2.5), (2.5 * a, a.values * 2.5)):
        assert type(got) is cls
        assert got.grid == GRID
        assert np.array_equal(got.values, want)
    # three sibling types: none is an instance of another
    assert [isinstance(a, t) for t in (ScalarField, VectorField, TensorField)] == \
        [t is cls for t in (ScalarField, VectorField, TensorField)]

    elsewhere = cls(np.zeros(lead + OTHER.shape), OTHER)
    with pytest.raises(GridMismatchError):
        a + elsewhere
    with pytest.raises(GridMismatchError):
        a - elsewhere


def _time_fields():
    space = np.zeros((9, 3) + GRID.shape)
    return (SpaceTimeField(space, TimeGrid(1.0, 8), GRID),
            SpaceTimeField(space, TimeGrid(2.0, 8), GRID))


@pytest.mark.parametrize("build, match", [
    (lambda: GridSpec(3, (1.0, 1.0), (4,) * 3), "extents must have 3 entries, got 2"),
    (lambda: GridSpec(2, (1.0,) * 2, (4,) * 2), "dimension must be 1 or 3, got 2"),
    (lambda: GridSpec(1, (1.0,), (4,), "spherical"), "topology must be one of"),
    (lambda: GridSpec(3, (1.0,) * 3, (4,) * 2), "resolution must have 3 entries, got 2"),
    (lambda: GridSpec(1, (1.0,), (1,)), "resolution must be at least 2 per axis"),
    (lambda: GRID.refine(0), "refinement factor must be >= 1, got 0"),
    (lambda: TimeGrid(1.0, 0), "steps must be at least 1, got 0"),
    (lambda: operator.sub(*_time_fields()), "different time grids"),
], ids=["extents-length", "dimension", "topology", "resolution-length", "resolution-below-2",
        "refine-0", "time-steps-0", "space-time-difference"])
def test_malformed_grids_and_fields_are_refused(build, match):
    with pytest.raises(ValueError, match=match):
        build()
