import tracemalloc
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
    imputation,
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
    multi = impute_multi(data, topo, replace(sched, rng_seed=42), n_maps=1)
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
    multi = impute_multi(data, topo, replace(sched, rng_seed=17), n_maps=4)
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
    report = impute_multi(data, topo, replace(sched, rng_seed=10), n_maps=4)
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
    fb = apply_column_mean_fallback(report)
    assert replace(report, filled=fb.filled).unresolved == ()


def test_column_mean_fallback_is_explicit(small_incomplete):
    cb = _codebook(np.ones((2, 3)))
    report = impute(cb, small_incomplete)
    fb = apply_column_mean_fallback(report)
    assert fb.unresolved == ()
    col_means = np.nanmean(small_incomplete.values, axis=0)
    for k in range(3):
        assert estimate(fb, 2, k) == col_means[k]
    sources = set(fb.fills.source_of(fb.fills.rows == 2).tolist())
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
    fb = apply_column_mean_fallback(report)
    assert fb.fills.winners.tobytes() == f.winners.tobytes()
    assert fb.fills.source_of(slice(None)).tolist() == ["codebook"] * len(f) + ["column-mean"] * 3
    with pytest.raises(ValueError, match="outside the 4 rows"):
        Fills([4], [0], f.winners)


def test_impute_hands_its_cell_indices_to_fills(monkeypatch, small_incomplete):
    # Fills keeps the fresh int arrays impute_ensemble builds, not copies
    handed = []

    class Spy(Fills):
        def __post_init__(self):
            handed.append((self.rows, self.cols, self.winners))
            super().__post_init__()

    monkeypatch.setattr(imputation, "Fills", Spy)
    report = impute(_codebook(np.ones((2, 3))), small_incomplete)
    fills = report.fills
    assert all(a is b for a, b in zip((fills.rows, fills.cols, fills.winners), handed[0]))
    assert not fills.rows.flags.writeable
    # a borrowed array is copied and left as it was
    rows = np.array([1, 1])
    view = rows[::-1]
    borrowed = Fills(view, [0, 1], fills.winners)
    assert borrowed.rows is not view and view.flags.writeable
    assert borrowed.winners is not fills.winners


def test_dimension_mismatch_rejected(small_incomplete):
    cb = _codebook(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        impute(cb, small_incomplete)


def test_n_maps_validation(small_incomplete):
    sched = TrainingSchedule(total_iters=60, radius0=1, zero_radius_fraction=0.5, rng_seed=0)
    with pytest.raises(ValueError):
        impute_multi(small_incomplete, GridTopology(1, 2), replace(sched, rng_seed=0), n_maps=0)


@pytest.mark.parametrize("build, message", [
    (lambda: Fills(np.zeros((1, 1), int), np.zeros((1, 1), int), np.zeros((1, 1), int)),
     "rows and cols must be 1-D arrays of equal length"),
    (lambda: Fills(np.zeros(1, int), np.zeros(1, int), np.zeros(1, int)),
     "winners must be 2-D, one row per table row"),
    (lambda: impute_ensemble([], random_incomplete(0, n=4, p=2)), "need at least one codebook"),
], ids=["fills-not-1d", "winners-not-2d", "no-codebook"])
def test_malformed_arguments_are_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("n_maps", [1, 5])
def test_imputation_holds_less_than_one_more_table_beside_its_output(n_maps):
    # nearly every row here has a hole; holding the gathered rows while the
    # filled table is built costs about one more table's values
    n, p = 20_000, 20
    rng = np.random.default_rng(7)
    data = DataMatrix(rng.normal(size=(n, p)), rng.random((n, p)) > 0.2,
                      tuple(f"r{i}" for i in range(n)), tuple(f"c{k}" for k in range(p)))
    codebooks = [_codebook(rng.normal(size=(16, p))) for _ in range(n_maps)]
    tracemalloc.start()
    try:
        report = impute_ensemble(codebooks, data)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.fills) == n * p - int(data.mask.sum())
    assert peak - kept < data.values.nbytes, (peak - kept, data.values.nbytes)
