import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage

from somimpute import (
    Assignment,
    CodeBook,
    GridTopology,
    SuperClassing,
    hierarchical_codes,
    superclass_of_rows,
    ward_dendrogram,
)
from somimpute import superclass
from somimpute.superclass import UNLABELED, cut_dendrogram
from helpers import best_partition_at_k, labels_to_partition, reference_ward_dendrogram


def _codebook(codes):
    codes = np.asarray(codes, dtype=float)
    n = codes.shape[0]
    return CodeBook(codes, GridTopology(1, n), tuple(f"v{k}" for k in range(codes.shape[1])))


def test_k_equals_n_units_gives_singletons():
    cb = _codebook(np.arange(10.0).reshape(5, 2))
    sc = hierarchical_codes(cb, 5)
    assert sorted(sc.labels.tolist()) == [0, 1, 2, 3, 4]


def test_k_one_merges_everything():
    cb = _codebook(np.arange(10.0).reshape(5, 2))
    sc = hierarchical_codes(cb, 1)
    assert set(sc.labels.tolist()) == {0}
    assert len(sc.dendrogram) == 4


def test_two_tight_pairs_split_correctly():
    cb = _codebook(np.array([[0.0], [0.1], [10.0], [10.1]]))
    sc = hierarchical_codes(cb, 2)
    assert labels_to_partition(sc.labels) == {frozenset({0, 1}), frozenset({2, 3})}


def test_matches_bruteforce_optimum_on_separated_2d_pairs():
    pts = np.array([[0.0, 0.0], [0.0, 0.1], [20.0, 0.0], [20.0, 0.14],
                    [60.0, 40.0], [60.0, 40.3]])
    cb = _codebook(pts)
    for k in range(1, 7):
        oracle, margin = best_partition_at_k(pts, k)
        if margin is not None:
            assert margin > 1e-9  # the optimum is unique, comparison well-posed
        sc = hierarchical_codes(cb, k)
        assert labels_to_partition(sc.labels) == oracle


def test_merge_heights_are_non_decreasing():
    for seed in range(20):
        codes = np.random.default_rng(seed).normal(size=(9, 3))
        merges = ward_dendrogram(codes)
        heights = [h for _, _, h in merges]
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))


def test_adjacent_cuts_differ_by_one_merge():
    codes = np.random.default_rng(7).normal(size=(8, 2))
    cb = _codebook(codes)
    for k in range(2, 9):
        fine = labels_to_partition(hierarchical_codes(cb, k).labels)
        coarse = labels_to_partition(hierarchical_codes(cb, k - 1).labels)
        merged = fine - coarse
        kept = fine & coarse
        assert len(merged) == 2
        assert frozenset().union(*merged) in coarse
        assert len(kept) == k - 2


def test_partition_invariant_under_unit_permutation():
    rng = np.random.default_rng(12)
    codes = rng.normal(size=(7, 3))
    perm = rng.permutation(7)
    sc = hierarchical_codes(_codebook(codes), 3)
    sc_p = hierarchical_codes(_codebook(codes[perm]), 3)
    base = labels_to_partition(sc.labels)
    permuted = {frozenset(int(perm[i]) for i in block) for block in labels_to_partition(sc_p.labels)}
    assert base == permuted


def test_equal_merge_costs_break_to_smallest_unit_pair():
    # (0,1) and (2,3) have identical merge costs; (0,1) must merge first
    cb = _codebook(np.array([[0.0], [1.0], [10.0], [11.0]]))
    sc = hierarchical_codes(cb, 3)
    left, right, _ = sc.dendrogram[0]
    assert (left, right) == (0, 1)


@st.composite
def _tie_heavy_points(draw):
    """1-12 points in 1-3 dimensions, drawn with repeats from a few points
    on the integer grid {0, 1, 2}^p, so equal merge costs abound."""
    m = draw(st.integers(1, 12))
    p = draw(st.integers(1, 3))
    grid = st.lists(st.integers(0, 2), min_size=p, max_size=p)
    base = draw(st.lists(grid, min_size=1, max_size=m))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=m, max_size=m))
    return np.array([base[i] for i in picks], dtype=float)


@settings(max_examples=200, deadline=None)
@given(_tie_heavy_points())
def test_merges_equal_the_reference_on_tie_heavy_points(points):
    # ids and heights compared exactly, ties included
    assert ward_dendrogram(points) == reference_ward_dendrogram(points)


@pytest.mark.parametrize("chunk_cells", [1, 500, superclass._CHUNK_CELLS])
def test_distances_summed_in_row_chunks_change_no_merge(monkeypatch, chunk_cells):
    # each row's squared distances are summed over its own last axis, as
    # in the whole (n, n, p) cube, however many rows a chunk holds
    points = np.random.default_rng(11).normal(size=(60, 9))
    monkeypatch.setattr(superclass, "_CHUNK_CELLS", chunk_cells)
    assert ward_dendrogram(points) == reference_ward_dendrogram(points)


def test_ward_builds_no_cube_of_differences():
    # the (n, n, p) differences of 100 codes of 20 components take 1.6 MB,
    # and their squares as much again (a 3.6 MB peak); summed a chunk of
    # rows at a time, the peak is 1.5 MB
    points = np.random.default_rng(12).normal(size=(100, 20))
    tracemalloc.start()
    try:
        ward_dendrogram(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 100 * 20 * 8, peak


def test_agrees_with_scipy_ward_partitions():
    rng = np.random.default_rng(42)
    codes = rng.normal(size=(10, 4))
    cb = _codebook(codes)
    z = linkage(codes, method="ward")
    for k in range(1, 11):
        mine = labels_to_partition(hierarchical_codes(cb, k).labels)
        ref = labels_to_partition(fcluster(z, t=k, criterion="maxclust"))
        assert mine == ref


def test_k_out_of_range_rejected():
    cb = _codebook(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        hierarchical_codes(cb, 0)
    with pytest.raises(ValueError):
        hierarchical_codes(cb, 4)


def test_cut_dendrogram_direct():
    merges = ward_dendrogram(np.array([[0.0], [0.2], [5.0]]))
    assert cut_dendrogram(merges, 3, 2).tolist() == [0, 0, 1]


class TestSuperclassOfRows:
    def test_rows_inherit_unit_labels(self):
        cb = _codebook(np.array([[0.0], [1.0], [10.0], [11.0]]))
        sc = hierarchical_codes(cb, 2)
        asg = Assignment(np.array([0, 3, 2]), np.zeros(3), 4)
        got = superclass_of_rows(asg, sc)
        assert got[0] == sc.labels[0]
        assert got[1] == sc.labels[3]
        assert got[2] == sc.labels[2]

    def test_unclassifiable_rows_stay_unlabeled(self):
        cb = _codebook(np.array([[0.0], [1.0]]))
        sc = hierarchical_codes(cb, 2)
        asg = Assignment(np.array([1, -1]), np.array([0.0, np.nan]), 2)
        got = superclass_of_rows(asg, sc)
        assert got[1] == UNLABELED

    def test_single_superclass_labels_every_row_alike(self):
        cb = _codebook(np.array([[0.0], [1.0], [2.0]]))
        sc = hierarchical_codes(cb, 1)
        asg = Assignment(np.array([0, 1, 2, 2]), np.zeros(4), 3)
        assert set(superclass_of_rows(asg, sc).tolist()) == {0}

    def test_mismatched_codebooks_rejected(self):
        cb = _codebook(np.array([[0.0], [1.0]]))
        sc = hierarchical_codes(cb, 2)
        asg = Assignment(np.array([0]), np.zeros(1), 5)
        with pytest.raises(ValueError):
            superclass_of_rows(asg, sc)


@pytest.mark.parametrize("build, message", [
    (lambda: SuperClassing(np.zeros((2, 2), int), ()), "labels must be a 1-D array"),
    (lambda: ward_dendrogram(np.empty((0, 2))), "points must be a nonempty 2-D array"),
], ids=["labels-not-1d", "no-points"])
def test_malformed_arguments_are_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
