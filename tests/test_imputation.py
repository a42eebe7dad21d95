from dataclasses import fields, replace

import numpy as np
import pytest

from somimpute import (
    UNCLASSIFIABLE,
    CodeBook,
    DataMatrix,
    Fills,
    GridTopology,
    TrainingSchedule,
    apply_column_mean_fallback,
    forgy_train,
    impute,
    impute_ensemble,
    impute_multi,
    train,
)
from helpers import brute_winner, estimate
from conftest import random_incomplete


def _codebook(codes):
    codes = np.asarray(codes, dtype=float)
    return CodeBook(codes, GridTopology(1, codes.shape[0]),
                    tuple(f"v{k}" for k in range(codes.shape[1])))


def test_complete_row_produces_no_fill():
    cb = _codebook([[0.0, 0.0]])
    data = DataMatrix.from_nan(np.array([[1.0, 2.0]]))
    report = impute(cb, data)
    assert len(report.fills) == 0
    assert report.unresolved == ()
    assert np.array_equal(report.filled.values, data.values)


def test_filled_value_is_exactly_the_winning_code_component():
    cb = _codebook([[0.0, 3.5], [10.0, -1.25]])
    values = np.array([[0.2, np.nan], [9.7, np.nan], [5.0, 1.0]])
    data = DataMatrix(values, np.isfinite(values), ("a", "b", "c"), ("x", "y"))
    report = impute(cb, data)
    assert estimate(report, 0, 1) == 3.5
    assert estimate(report, 1, 1) == -1.25
    f = report.fills
    assert f.winners[f.rows].shape == (len(f), 1)
    assert (f.winners[f.rows] >= 0).all()
    assert report.filled.mask.all()


def test_winner_recomputed_independently_matches_fill():
    rng = np.random.default_rng(33)
    for _ in range(50):
        codes = rng.normal(size=(4, 3))
        cb = _codebook(codes)
        values = rng.normal(size=(6, 3))
        mask = rng.random((6, 3)) < 0.7
        mask[:, 0] |= ~mask.any(axis=1)  # keep every row classifiable
        for k in range(3):
            if not mask[:, k].any():
                mask[0, k] = True
        data = DataMatrix(values, mask, tuple("abcdef"), ("x", "y", "z"))
        report = impute(cb, data)
        fills = report.fills
        estimates = report.filled.values[fills.rows, fills.cols]
        for row, col, value in zip(fills.rows, fills.cols, estimates):
            w = brute_winner(data.values[row], data.mask[row], codes)
            assert value == codes[w, col]


def test_point_clusters_recover_deleted_value_exactly_with_batch_centroids():
    # two zero-variance clusters of 3 identical rows; one coordinate deleted.
    a, b = np.array([1.0, 2.0, 3.0]), np.array([7.0, 8.0, 9.0])
    values = np.vstack([a, a, a, b, b, b])
    mask = np.ones_like(values, dtype=bool)
    mask[0, 2] = False  # delete one coordinate of one member of cluster a
    data = DataMatrix(values, mask, tuple("pqrstu"), ("x", "y", "z"))
    res = forgy_train(data, 2, seed=0)
    report = impute(res.centroids, data)
    assert estimate(report, 0, 2) == 3.0  # exact: mean of two identical observers


def test_point_clusters_recover_deleted_value_with_trained_map():
    a, b = np.array([1.0, 2.0, 3.0]), np.array([7.0, 8.0, 9.0])
    values = np.vstack([a, a, a, a, b, b, b, b])
    mask = np.ones_like(values, dtype=bool)
    mask[0, 2] = False
    data = DataMatrix(values, mask, tuple("pqrstuvw"), ("x", "y", "z"))
    sched = TrainingSchedule(total_iters=1500, radius0=1, zero_radius_fraction=0.5, rng_seed=4)
    fit = train(data, GridTopology(1, 2), sched)
    report = impute(fit.codebook, data)
    assert estimate(report, 0, 2) == pytest.approx(3.0, abs=1e-6)


def test_multi_with_one_map_equals_single_impute():
    data = random_incomplete(5, n=15, p=3)
    topo = GridTopology(2, 2)
    sched = TrainingSchedule(total_iters=200, radius0=1, rng_seed=0)
    multi = impute_multi(data, topo, sched, n_maps=1, base_seed=42)
    single = impute(
        train(data, topo, TrainingSchedule(total_iters=200, radius0=1, rng_seed=42)).codebook,
        data,
    )
    assert np.array_equal(multi.filled.values, single.filled.values, equal_nan=True)
    assert np.array_equal(multi.fills.rows, single.fills.rows)
    assert np.array_equal(multi.fills.cols, single.fills.cols)



def test_multi_equals_the_ensemble_of_maps_trained_one_by_one():
    # impute_multi trains its maps in one call; each map and the average
    # must equal those of train run once per seed
    data = random_incomplete(6, n=40, p=5, missing=0.25)
    topo = GridTopology(3, 3)
    sched = TrainingSchedule(total_iters=300, radius0=1, rng_seed=0)
    multi = impute_multi(data, topo, sched, n_maps=4, base_seed=17)
    seeds = tuple(range(17, 21))
    one_by_one = impute_ensemble(
        [train(data, topo, TrainingSchedule(total_iters=300, radius0=1, rng_seed=s)).codebook
         for s in seeds],
        data, seeds,
    )
    assert multi.filled.values.tobytes() == one_by_one.filled.values.tobytes()
    assert np.array_equal(multi.fills.rows, one_by_one.fills.rows)
    assert np.array_equal(multi.fills.winners, one_by_one.fills.winners)
    assert multi.fills.seeds == seeds

def test_agreeing_maps_return_the_common_value():
    # column y is constant wherever observed, so every map pins it exactly
    values = np.array([[0.0, 4.0], [1.0, 4.0], [2.0, np.nan], [3.0, 4.0]])
    data = DataMatrix(values, np.isfinite(values), tuple("abcd"), ("x", "y"))
    topo = GridTopology(1, 2)
    sched = TrainingSchedule(total_iters=100, radius0=1, zero_radius_fraction=0.5, rng_seed=0)
    report = impute_multi(data, topo, sched, n_maps=4, base_seed=10)
    assert estimate(report, 2, 1) == 4.0
    j = np.flatnonzero((report.fills.rows == 2) & (report.fills.cols == 1))[0]
    assert report.fills.seeds == (10, 11, 12, 13)
    assert len(report.fills.winners[report.fills.rows[j]]) == 4


def test_ensemble_averages_estimates():
    books = [_codebook([[1.0, 0.0]]), _codebook([[2.0, 0.0]]), _codebook([[3.0, 0.0]])]
    values = np.array([[np.nan, 0.0], [1.5, 1.0]])
    data = DataMatrix(values, np.isfinite(values), ("a", "b"), ("x", "y"))
    report = impute_ensemble(books, data)
    assert estimate(report, 0, 0) == 2.0


def test_observed_cells_are_bit_identical():
    for seed in range(20):
        data = random_incomplete(seed, n=10, p=4, missing=0.4)
        cb = _codebook(np.random.default_rng(seed).normal(size=(3, 4)))
        report = impute(cb, data)
        assert np.array_equal(report.filled.values[data.mask], data.values[data.mask])
        assert np.array_equal(report.filled.mask | ~data.mask, np.ones_like(data.mask))


def test_every_missing_cell_filled_or_unresolved(small_incomplete):
    cb = _codebook(np.zeros((2, 3)))
    report = impute(cb, small_incomplete)
    covered = set(zip(report.fills.rows.tolist(), report.fills.cols.tolist()))
    covered |= set(report.unresolved)
    expected = {tuple(c) for c in np.argwhere(~small_incomplete.mask)}
    assert covered == expected


def test_imputed_values_stay_in_observed_column_ranges():
    for seed in range(10):
        data = random_incomplete(seed, n=20, p=4, missing=0.4)
        sched = TrainingSchedule(total_iters=300, radius0=1, rng_seed=seed)
        fit = train(data, GridTopology(2, 2), sched)
        report = impute(fit.codebook, data)
        lo, hi = data.column_ranges()
        f = report.fills
        for col, value in zip(f.cols, report.filled.values[f.rows, f.cols]):
            assert lo[col] <= value <= hi[col]


def test_all_missing_row_yields_unresolved_cells(small_incomplete):
    cb = _codebook(np.ones((2, 3)))
    report = impute(cb, small_incomplete)
    assert set(report.unresolved) == {(2, 0), (2, 1), (2, 2)}
    assert not report.filled.mask[2].any()


def test_unresolved_is_read_from_the_filled_matrix(small_incomplete):
    cb = _codebook(np.ones((2, 3)))
    report = impute(cb, small_incomplete)
    assert report.unresolved == tuple(map(tuple, np.argwhere(~report.filled.mask).tolist()))
    fb = apply_column_mean_fallback(report, small_incomplete)
    assert replace(report, filled=fb.filled).unresolved == ()


def test_column_mean_fallback_is_explicit(small_incomplete):
    cb = _codebook(np.ones((2, 3)))
    report = impute(cb, small_incomplete)
    fb = apply_column_mean_fallback(report, small_incomplete)
    assert fb.unresolved == ()
    col_means = np.nanmean(small_incomplete.values, axis=0)
    for k in range(3):
        assert estimate(fb, 2, k) == col_means[k]
    sources = set(fb.fills.source[fb.fills.rows == 2].tolist())
    assert sources == {"column-mean"}


def test_fills_keep_one_winner_row_per_table_row(small_incomplete):
    # source is derived from the per-row winners; the fallback
    # appends cells and leaves the winners as they are
    cb = _codebook(np.ones((2, 3)))
    report = impute(cb, small_incomplete)
    f = report.fills
    assert [field.name for field in fields(Fills)] == ["rows", "cols", "winners", "seeds"]
    assert f.winners.shape == (small_incomplete.n_rows, 1)
    assert f.winners[:, 0].tolist() == [UNCLASSIFIABLE, 0, UNCLASSIFIABLE, 0]
    assert f.winners[f.rows, 0].tolist() == [0] * len(f)
    fb = apply_column_mean_fallback(report, small_incomplete)
    assert fb.fills.winners.tobytes() == f.winners.tobytes()
    assert fb.fills.source.tolist() == ["codebook"] * len(f) + ["column-mean"] * 3
    with pytest.raises(ValueError, match="outside the 4 rows"):
        Fills([4], [0], f.winners)


def test_dimension_mismatch_rejected(small_incomplete):
    cb = _codebook(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        impute(cb, small_incomplete)


def test_n_maps_validation(small_incomplete):
    sched = TrainingSchedule(total_iters=60, radius0=1, zero_radius_fraction=0.5, rng_seed=0)
    with pytest.raises(ValueError):
        impute_multi(small_incomplete, GridTopology(1, 2), sched, n_maps=0, base_seed=0)
