import numpy as np
import pytest

from varns import (
    PERIODIC,
    FieldNotFiniteError,
    GridMismatchError,
    GridSpec,
    ScalarField,
    TensorField,
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
