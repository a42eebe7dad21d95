import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from somimpute import GridTopology
from somimpute.trainer import _neighbor_blocks
from helpers import brute_grid_distance


def _neighbourhoods(topo, radius):
    """Each unit's neighbourhood at ``radius``, ascending, as each training
    kernel selects it: the window kernel's slice block, and the lockstep
    kernel's ball, a row of ``distance_matrix() <= radius``."""
    units = np.arange(topo.n_units).reshape(1, topo.rows, topo.cols)
    window = [b.ravel().tolist() for b in _neighbor_blocks(units, radius)]
    ball = [np.flatnonzero(row).tolist() for row in topo.distance_matrix() <= radius]
    return window, ball


def test_grid_distance_identity():
    topo = GridTopology(3, 3)
    assert topo.distance_matrix()[0, 0] == 0
    assert brute_grid_distance(3, 0, 0) == 0


def test_grid_distance_diagonal_is_one():
    topo = GridTopology(3, 3)
    u, v = topo.unit_index(0, 0), topo.unit_index(1, 1)
    assert topo.distance_matrix()[u, v] == 1
    assert brute_grid_distance(3, u, v) == 1


def test_grid_distance_hand_case():
    topo = GridTopology(3, 3)
    u, v = topo.unit_index(0, 0), topo.unit_index(2, 1)
    assert topo.distance_matrix()[u, v] == 2
    assert brute_grid_distance(3, u, v) == 2


def test_grid_distance_is_a_metric_on_small_grid():
    topo = GridTopology(3, 4)
    m = topo.distance_matrix()
    units = range(topo.n_units)
    for u, v in itertools.product(units, units):
        assert m[u, v] == m[v, u]
        assert (m[u, v] == 0) == (u == v)
    for u, v, w in itertools.product(units, units, units):
        assert m[u, w] <= m[u, v] + m[v, w]


def test_neighbors_radius_zero_is_winner_only():
    topo = GridTopology(4, 5)
    for hoods in _neighbourhoods(topo, 0):
        assert hoods == [[u] for u in range(topo.n_units)]


def test_neighbors_center_of_3x3():
    topo = GridTopology(3, 3)
    for hoods in _neighbourhoods(topo, 1):
        assert len(hoods[topo.unit_index(1, 1)]) == 9


def test_neighbors_corner_of_3x3():
    topo = GridTopology(3, 3)
    for hoods in _neighbourhoods(topo, 1):
        assert len(hoods[0]) == 4


def test_neighbors_monotone_and_saturating():
    topo = GridTopology(3, 4)
    by_radius = [_neighbourhoods(topo, r) for r in range(6)]
    for kernel in range(2):
        for u in range(topo.n_units):
            sizes = [len(hoods[kernel][u]) for hoods in by_radius]
            assert sizes == sorted(sizes)
            assert sizes[-1] == topo.n_units


def test_neighbors_symmetric():
    topo = GridTopology(3, 4)
    for r in range(4):
        for hoods in _neighbourhoods(topo, r):
            for u in range(topo.n_units):
                for v in hoods[u]:
                    assert u in hoods[v]


def test_invalid_unit_rejected():
    topo = GridTopology(2, 2)
    with pytest.raises(IndexError):
        topo.unit_coords(4)
    with pytest.raises(IndexError):
        topo.unit_coords(-1)
    with pytest.raises(IndexError):
        topo.unit_index(2, 0)
    with pytest.raises(IndexError):
        topo.unit_index(0, -1)


def test_degenerate_grids_rejected():
    with pytest.raises(ValueError):
        GridTopology(0, 3)
    with pytest.raises(ValueError):
        GridTopology(3, -1)


def test_distance_matrix_matches_pairwise():
    for rows, cols in itertools.product(range(1, 6), range(1, 6)):
        topo = GridTopology(rows, cols)
        m = topo.distance_matrix()
        for u in range(topo.n_units):
            assert topo.unit_coords(u) == divmod(u, cols)
            for v in range(topo.n_units):
                assert m[u, v] == brute_grid_distance(cols, u, v)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 8))
def test_neighbors_always_contain_the_unit(rows, cols, radius):
    topo = GridTopology(rows, cols)
    for hoods in _neighbourhoods(topo, radius):
        for u in range(topo.n_units):
            assert u in hoods[u]


@pytest.mark.parametrize("rows, cols", [(2.5, 2), (2, 1.5)], ids=["rows", "cols"])
def test_a_non_integer_size_is_refused(rows, cols):
    with pytest.raises(ValueError) as info:
        GridTopology(rows, cols)
    assert str(info.value) == "rows and cols must be integers"
