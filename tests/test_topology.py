import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from somimpute import GridTopology


def test_grid_distance_identity():
    topo = GridTopology(3, 3)
    assert topo.grid_distance(0, 0) == 0


def test_grid_distance_diagonal_is_one():
    topo = GridTopology(3, 3)
    assert topo.grid_distance(topo.unit_index(0, 0), topo.unit_index(1, 1)) == 1


def test_grid_distance_hand_case():
    topo = GridTopology(3, 3)
    assert topo.grid_distance(topo.unit_index(0, 0), topo.unit_index(2, 1)) == 2


def test_grid_distance_is_a_metric_on_small_grid():
    topo = GridTopology(3, 4)
    units = range(topo.n_units)
    for u, v in itertools.product(units, units):
        assert topo.grid_distance(u, v) == topo.grid_distance(v, u)
        assert (topo.grid_distance(u, v) == 0) == (u == v)
    for u, v, w in itertools.product(units, units, units):
        assert topo.grid_distance(u, w) <= topo.grid_distance(u, v) + topo.grid_distance(v, w)


def test_neighbors_radius_zero_is_winner_only():
    topo = GridTopology(4, 5)
    for u in range(topo.n_units):
        assert list(topo.neighbors(u, 0)) == [u]


def test_neighbors_center_of_3x3():
    topo = GridTopology(3, 3)
    assert len(topo.neighbors(topo.unit_index(1, 1), 1)) == 9


def test_neighbors_corner_of_3x3():
    topo = GridTopology(3, 3)
    assert len(topo.neighbors(0, 1)) == 4


def test_neighbors_monotone_and_saturating():
    topo = GridTopology(3, 4)
    for u in range(topo.n_units):
        prev = 0
        for r in range(6):
            size = len(topo.neighbors(u, r))
            assert size >= prev
            prev = size
        assert prev == topo.n_units


def test_neighbors_symmetric():
    topo = GridTopology(3, 4)
    for r in range(4):
        for u in range(topo.n_units):
            for v in topo.neighbors(u, r):
                assert u in topo.neighbors(int(v), r)


def test_invalid_unit_rejected():
    topo = GridTopology(2, 2)
    with pytest.raises(IndexError):
        topo.grid_distance(0, 4)
    with pytest.raises(IndexError):
        topo.neighbors(-1, 1)
    with pytest.raises(ValueError):
        topo.neighbors(0, -1)


def test_degenerate_grids_rejected():
    with pytest.raises(ValueError):
        GridTopology(0, 3)
    with pytest.raises(ValueError):
        GridTopology(3, -1)


def test_distance_matrix_matches_pairwise():
    topo = GridTopology(4, 3)
    m = topo.distance_matrix()
    for u in range(topo.n_units):
        for v in range(topo.n_units):
            assert m[u, v] == topo.grid_distance(u, v)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 8))
def test_neighbors_always_contain_the_unit(rows, cols, radius):
    topo = GridTopology(rows, cols)
    for u in range(topo.n_units):
        assert u in topo.neighbors(u, radius)

