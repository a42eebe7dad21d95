from dataclasses import replace

import numpy as np
import pytest

from somimpute import (
    Assignment,
    DataMatrix,
    Fills,
    GridTopology,
    ImputationReport,
    MaskingLedger,
    TrainingMode,
    TrainingSchedule,
    deletion_curve,
    fit_standardizer,
    impute_multi,
    mask_random,
    mean_impute_baseline,
    modality_proportions,
    pairwise_correlation,
    rmse_deleted,
    standardize,
)
from somimpute.evaluation import EvalReport, count_unresolved_deleted
from somimpute.imputation import impute_ensemble
from somimpute.synthetic import correlated_clusters
from somimpute.trainer import train_maps
from helpers import estimate, naive_pearson


def _complete(seed=0, n=10, p=5):
    rng = np.random.default_rng(seed)
    return DataMatrix.from_nan(rng.normal(size=(n, p)))


def _cells(ledger):
    """The ledger's cells as ``(row, col)`` pairs, in ledger order."""
    return tuple(zip(ledger.rows.tolist(), ledger.cols.tolist()))


def _ledger(cells, true_values):
    return MaskingLedger([i for i, _ in cells], [k for _, k in cells], true_values)


class TestMaskRandom:
    def test_zero_deletions_is_a_noop(self):
        data = _complete()
        masked, ledger = mask_random(data, 0, seed=1)
        assert np.array_equal(masked.values, data.values)
        assert masked.mask.all()
        assert len(ledger) == 0

    def test_boundary_leaves_one_observed_cell_per_row(self):
        data = _complete(p=4)
        masked, _ = mask_random(data, 3, seed=2)
        assert np.all(masked.mask.sum(axis=1) == 1)

    def test_same_seed_same_mask(self):
        data = _complete()
        a, la = mask_random(data, 2, seed=3)
        b, lb = mask_random(data, 2, seed=3)
        assert np.array_equal(a.mask, b.mask)
        assert _cells(la) == _cells(lb)

    def test_ledger_records_true_values(self):
        data = _complete()
        _, ledger = mask_random(data, 2, seed=4)
        for (i, k), v in zip(_cells(ledger), ledger.true_values):
            assert v == data.values[i, k]

    def test_exactly_d_cells_per_row(self):
        data = _complete(p=5)
        masked, ledger = mask_random(data, 2, seed=5)
        assert np.all((~masked.mask).sum(axis=1) == 2)
        assert len(ledger) == 2 * data.n_rows

    def test_d_too_large_rejected(self):
        data = _complete(p=3)
        with pytest.raises(ValueError):
            mask_random(data, 3, seed=0)

    def test_negative_d_rejected(self):
        with pytest.raises(ValueError, match="^per_row_deletions must be >= 0, got -1$"):
            mask_random(_complete(), -1, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -3$"):
            mask_random(_complete(), 1, seed=-3)

    def test_ledger_holds_read_only_aligned_arrays(self):
        _, ledger = mask_random(_complete(), 2, seed=6)
        for a in (ledger.rows, ledger.cols, ledger.true_values):
            assert a.shape == (20,) and not a.flags.writeable
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            MaskingLedger([0, 1], [0], [1.0, 2.0])
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            MaskingLedger([0], [0], [1.0, 2.0])

    def test_incomplete_input_rejected(self, small_incomplete):
        with pytest.raises(ValueError):
            mask_random(small_incomplete, 1, seed=0)

    def test_per_row_draws_are_sorted_choices_from_one_generator(self):
        data = _complete(seed=3, n=9, p=6)
        masked, ledger = mask_random(data, 4, seed=12)
        rng = np.random.default_rng(12)
        cells = tuple((i, int(k)) for i in range(9)
                      for k in np.sort(rng.choice(6, size=4, replace=False)))
        assert _cells(ledger) == cells
        assert ledger.true_values.tolist() == [data.values[c] for c in cells]
        assert sorted(map(tuple, np.argwhere(~masked.mask).tolist())) == list(cells)

    def test_global_mcar_draw_is_one_choice_over_the_flat_table(self):
        data = _complete(seed=3, n=9, p=6)
        masked, ledger = mask_random(data, 2, seed=13, global_mcar=True)
        flat = np.sort(np.random.default_rng(13).choice(54, size=18, replace=False))
        assert _cells(ledger) == tuple((int(j) // 6, int(j) % 6) for j in flat)
        assert sorted(map(tuple, np.argwhere(~masked.mask).tolist())) == list(_cells(ledger))

    def test_global_mcar_spreads_the_same_budget(self):
        data = _complete(n=20, p=6)
        masked, ledger = mask_random(data, 2, seed=9, global_mcar=True)
        assert len(ledger) == 2 * 20
        per_row = (~masked.mask).sum(axis=1)
        assert per_row.sum() == 40
        assert per_row.max() > 2 or per_row.min() < 2  # not the per-row pattern
        again, ledger2 = mask_random(data, 2, seed=9, global_mcar=True)
        assert np.array_equal(masked.mask, again.mask)
        assert _cells(ledger) == _cells(ledger2)


def _report_for(data, estimates):
    values = data.values.copy()
    mask = data.mask.copy()
    cells = list(estimates)
    for (i, k), v in estimates.items():
        values[i, k] = v
        mask[i, k] = True
    rows = [i for i, _ in cells]
    cols = [k for _, k in cells]
    fills = Fills(rows, cols, np.zeros((data.n_rows, 1)))
    filled = DataMatrix(values, mask, data.row_labels, data.col_names)
    return ImputationReport(filled, fills)


class TestRmseDeleted:
    def test_perfect_recovery_is_zero(self):
        data = _complete(n=3, p=3)
        masked, ledger = mask_random(data, 1, seed=8)
        estimates = {c: float(v) for c, v in zip(_cells(ledger), ledger.true_values)}
        assert rmse_deleted(ledger, _report_for(masked, estimates)) == 0.0

    def test_single_cell_hand_case(self):
        ledger = _ledger(((0, 0),), np.array([1.0]))
        values = np.array([[np.nan, 2.0], [4.0, 5.0]])
        masked = DataMatrix(values, np.isfinite(values), ("a", "b"), ("x", "y"))
        report = _report_for(masked, {(0, 0): 0.5})
        assert rmse_deleted(ledger, report) == 0.5

    def test_two_cell_hand_case(self):
        ledger = _ledger(((0, 0), (0, 1)), np.array([1.0, 1.0]))
        values = np.array([[np.nan, np.nan, 3.0], [4.0, 5.0, 6.0]])
        masked = DataMatrix(values, np.isfinite(values), ("a", "b"), ("x", "y", "z"))
        report = _report_for(masked, {(0, 0): 1.0, (0, 1): 0.0})
        assert rmse_deleted(ledger, report) == pytest.approx(np.sqrt(0.5))

    def test_empty_ledger_rejected(self):
        data = _complete(n=2, p=2)
        report = _report_for(data, {})
        with pytest.raises(ValueError):
            rmse_deleted(_ledger((), np.array([])), report)

    def test_unresolved_cells_excluded(self):
        ledger = _ledger(((0, 0), (1, 0)), np.array([1.0, 5.0]))
        values = np.array([[np.nan, 2.0], [np.nan, np.nan], [7.0, 8.0]])
        masked = DataMatrix(values, np.isfinite(values), ("a", "b", "c"), ("x", "y"))
        report = _report_for(masked, {(0, 0): 0.5})
        assert report.unresolved == ((1, 0), (1, 1))
        assert rmse_deleted(ledger, report) == 0.5


    def test_ledger_cell_that_was_never_missing_rejected(self):
        # (0, 1) is observed and not filled: the ledger does not belong to
        # this report
        ledger = _ledger(((0, 0), (0, 1)), np.array([1.0, 2.0]))
        values = np.array([[np.nan, 2.0], [4.0, 5.0]])
        masked = DataMatrix(values, np.isfinite(values), ("a", "b"), ("x", "y"))
        report = _report_for(masked, {(0, 0): 0.5})
        with pytest.raises(ValueError, match=r"\(0, 1\) is neither filled nor unresolved"):
            rmse_deleted(ledger, report)

    def test_unresolved_deleted_cells_counted(self):
        ledger = _ledger(((0, 0), (1, 0), (1, 1), (2, 1)), np.zeros(4))
        values = np.array([[np.nan, 2.0], [np.nan, np.nan], [7.0, np.nan]])
        masked = DataMatrix(values, np.isfinite(values), ("a", "b", "c"), ("x", "y"))
        report = _report_for(masked, {(0, 0): 0.5, (2, 1): 1.0})
        assert count_unresolved_deleted(ledger, report) == 2


class TestMeanBaseline:
    def test_standardized_data_fills_zero(self, small_incomplete):
        std = standardize(small_incomplete, fit_standardizer(small_incomplete))
        report = mean_impute_baseline(std)
        f = report.fills
        assert all(abs(v) < 1e-12 for v in report.filled.values[f.rows, f.cols])

    def test_hand_case_mean_of_two(self):
        values = np.array([[2.0, 0.0], [4.0, 1.0], [np.nan, 2.0]])
        data = DataMatrix(values, np.isfinite(values), ("a", "b", "c"), ("x", "y"))
        report = mean_impute_baseline(data)
        assert estimate(report, 2, 0) == 3.0

    def test_complete_data_fills_nothing(self):
        report = mean_impute_baseline(_complete())
        assert len(report.fills) == 0


class TestPairwiseCorrelation:
    def test_diagonal_is_exactly_one(self, small_incomplete):
        corr = pairwise_correlation(small_incomplete)
        assert np.all(np.diag(corr) == 1.0)

    def test_identical_columns_correlate_perfectly(self):
        values = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]])
        corr = pairwise_correlation(DataMatrix.from_nan(values))
        assert corr[0, 1] == pytest.approx(1.0)

    def test_antiproportional_columns(self):
        values = np.array([[1.0, 6.0], [2.0, 4.0], [3.0, 2.0]])
        corr = pairwise_correlation(DataMatrix.from_nan(values))
        assert corr[0, 1] == pytest.approx(-1.0)

    def test_complete_data_matches_corrcoef(self):
        data = _complete(seed=13, n=40, p=4)
        corr = pairwise_correlation(data)
        assert np.allclose(corr, np.corrcoef(data.values, rowvar=False), atol=1e-10)

    def test_pairwise_complete_matches_naive_pearson(self):
        values = np.array(
            [[1.0, 2.0], [2.0, np.nan], [3.0, 1.0], [np.nan, 4.0], [5.0, 0.5]]
        )
        data = DataMatrix(values, np.isfinite(values), tuple("abcde"), ("x", "y"))
        joint = data.mask[:, 0] & data.mask[:, 1]
        expected = naive_pearson(values[joint, 0].tolist(), values[joint, 1].tolist())
        corr = pairwise_correlation(data)
        assert corr[0, 1] == pytest.approx(expected, rel=1e-12)
        assert corr[1, 0] == corr[0, 1]

    def test_insufficient_overlap_marked_undefined(self):
        values = np.array([[1.0, np.nan], [2.0, np.nan], [np.nan, 3.0], [np.nan, 4.0]])
        data = DataMatrix(values, np.isfinite(values), tuple("abcd"), ("x", "y"))
        corr = pairwise_correlation(data)
        assert np.isnan(corr[0, 1])
        assert corr[0, 0] == 1.0

    def test_zero_variance_pair_marked_undefined(self):
        values = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        corr = pairwise_correlation(DataMatrix.from_nan(values))
        assert np.isnan(corr[0, 1])


class TestModalityProportions:
    def _data_with_modalities(self, cats):
        n = len(cats)
        values = np.arange(float(n)).reshape(n, 1)
        return DataMatrix(values, np.ones((n, 1), bool),
                          tuple(f"r{i}" for i in range(n)), ("x",), tuple(cats))

    def test_constant_class(self):
        data = self._data_with_modalities(["hi", "hi", "hi"])
        asg = Assignment(np.array([1, 1, 1]), np.zeros(3), 2)
        table = modality_proportions(asg, data)
        assert table[1] == {"hi": 1.0}
        assert table[0] == {}

    def test_counting_case(self):
        data = self._data_with_modalities(["1", "1", "2"])
        asg = Assignment(np.array([0, 0, 0]), np.zeros(3), 1)
        table = modality_proportions(asg, data)
        assert table[0]["1"] == pytest.approx(2 / 3)
        assert table[0]["2"] == pytest.approx(1 / 3)

    def test_missing_modalities_excluded(self):
        data = self._data_with_modalities(["a", None, "b", None])
        asg = Assignment(np.array([0, 0, 0, 0]), np.zeros(4), 1)
        table = modality_proportions(asg, data)
        assert table[0] == {"a": 0.5, "b": 0.5}

    def test_empty_string_is_a_modality(self):
        # under a missing marker other than "", an empty cell is the category ""
        data = self._data_with_modalities(["", "a", "", "a"])
        asg = Assignment(np.array([0, 0, 0, 0]), np.zeros(4), 1)
        assert modality_proportions(asg, data)[0] == {"": 0.5, "a": 0.5}

    def test_distributions_sum_to_one_or_empty(self):
        rng = np.random.default_rng(9)
        cats = [str(rng.integers(3)) if rng.random() < 0.8 else None for _ in range(30)]
        data = self._data_with_modalities(cats)
        asg = Assignment(rng.integers(0, 4, size=30), np.zeros(30), 4)
        for table in modality_proportions(asg, data).values():
            assert table == {} or sum(table.values()) == pytest.approx(1.0, abs=1e-10)

    def test_requires_categorical_column(self):
        data = _complete(n=3, p=1)
        asg = Assignment(np.zeros(3, dtype=int), np.zeros(3), 1)
        with pytest.raises(ValueError):
            modality_proportions(asg, data)


class TestDeletionCurve:
    def test_bit_reproducible(self):
        data = _complete(seed=21, n=12, p=5)
        topo = GridTopology(2, 2)
        sched = TrainingSchedule(total_iters=150, radius0=1, rng_seed=3)
        a = deletion_curve(data, [1, 2], topo, sched, n_repeats=2)
        b = deletion_curve(data, [1, 2], topo, sched, n_repeats=2)
        assert a.rmse_som == b.rmse_som
        assert a.rmse_mean_baseline == b.rmse_mean_baseline
        assert a.rmse_by_repeat == b.rmse_by_repeat

    def test_point_clusters_recover_almost_exactly(self):
        a = np.array([0.0, 1.0, 2.0, 3.0])
        b = np.array([10.0, 12.0, 14.0, 16.0])
        values = np.vstack([a] * 6 + [b] * 6)
        data = DataMatrix.from_nan(values)
        sched = TrainingSchedule(total_iters=1500, radius0=1, zero_radius_fraction=0.5,
                                 rng_seed=5)
        report = deletion_curve(data, [1], GridTopology(1, 2), sched)
        assert report.rmse_som[1] < 1e-6
        assert report.n_unresolved[1] == 0

    def test_incomplete_input_rejected(self, small_incomplete):
        sched = TrainingSchedule(total_iters=50, radius0=1, zero_radius_fraction=0.5, rng_seed=0)
        with pytest.raises(ValueError):
            deletion_curve(small_incomplete, [1], GridTopology(1, 2), sched)

    def test_cell_counts_accumulate_over_repeats(self):
        data = _complete(seed=2, n=8, p=4)
        sched = TrainingSchedule(total_iters=100, radius0=1, rng_seed=1)
        report = deletion_curve(data, [2], GridTopology(2, 2), sched, n_repeats=3)
        assert report.n_cells[2] == 2 * 8 * 3
        assert len(report.rmse_by_repeat[2]) == 3

    def test_degenerate_arm_is_named(self):
        # on 6 rows, d = 3 of 4 columns often leaves a column with fewer
        # than two observed values; the study stops and names that arm
        data = _complete(seed=4, n=6, p=4)
        sched = TrainingSchedule(total_iters=60, radius0=1, rng_seed=0)
        with pytest.raises(ValueError, match=r"deletion arm d=\d, repeat=\d+: column 'v\d'"):
            deletion_curve(data, range(1, 4), GridTopology(2, 2), sched, n_repeats=20)

    @pytest.mark.parametrize("seed", [6, 21, 25])
    def test_arm_with_no_scorable_cell_is_named(self, seed):
        # a global-MCAR arm on 4 rows deletes whole rows here, and every
        # deleted cell falls in them: no deleted cell has a winner to score
        data, _ = correlated_clusters(4, 2, seed=0)
        sched = TrainingSchedule(total_iters=50, radius0=1, rng_seed=seed)
        with pytest.raises(ValueError) as err:
            deletion_curve(data, [1], GridTopology(1, 2), sched, global_mcar=True)
        assert str(err.value) == ("deletion arm d=1, repeat=0: every deleted cell is "
                                  "unresolved; RMSE undefined")

    def test_zero_deletions_rejected_before_any_arm(self):
        data = _complete(seed=5, n=8, p=4)
        sched = TrainingSchedule(total_iters=50, radius0=1, rng_seed=0)
        with pytest.raises(ValueError, match="every d in d_range must be >= 1") as err:
            deletion_curve(data, [0, 1], GridTopology(2, 2), sched)
        assert "deletion arm" not in str(err.value)

    def test_complete_only_needs_global_mcar_before_any_arm(self):
        # the per-row protocol deletes d >= 1 cells from every row, so
        # complete-only training would find no complete row in any arm
        data = _complete(seed=5, n=8, p=4)
        sched = TrainingSchedule(total_iters=50, radius0=1, rng_seed=0)
        with pytest.raises(ValueError, match="mode=complete-only needs global_mcar") as err:
            deletion_curve(data, [1], GridTopology(2, 2), sched,
                           mode=TrainingMode.COMPLETE_ONLY)
        assert "deletion arm" not in str(err.value)

    def test_zero_maps_rejected_before_any_arm(self):
        data = _complete(seed=5, n=8, p=4)
        sched = TrainingSchedule(total_iters=50, radius0=1, rng_seed=0)
        with pytest.raises(ValueError, match="n_maps must be >= 1, got 0") as err:
            deletion_curve(data, [1], GridTopology(2, 2), sched, n_maps=0)
        assert "deletion arm" not in str(err.value)

    def test_multi_map_arms_equal_a_per_arm_loop(self):
        # the study trains the maps of all arms of one d together; a plain
        # loop over the arms with the documented seeds gives the same numbers
        data = _complete(seed=8, n=14, p=5)
        topo = GridTopology(2, 2)
        sched = TrainingSchedule(total_iters=120, radius0=1, rng_seed=9)
        n_maps, n_repeats = 3, 2
        report = deletion_curve(data, [1, 2], topo, sched, n_maps=n_maps, n_repeats=n_repeats)
        for d in (1, 2):
            som, base, cells, unresolved = [], [], 0, 0
            for rep in range(n_repeats):
                seeds = [int(np.random.SeedSequence([sched.rng_seed, d, rep, part])
                             .generate_state(1)[0]) for part in (0, 1)]
                masked, ledger = mask_random(data, d, seeds[0])
                params = fit_standardizer(masked)
                std = standardize(masked, params)
                cols = ledger.cols
                truth = (ledger.true_values - params.means[cols]) / params.stds[cols]
                std_ledger = replace(ledger, true_values=truth)
                arm = impute_multi(std, topo, replace(sched, rng_seed=seeds[1]), n_maps)
                som.append(rmse_deleted(std_ledger, arm))
                base.append(rmse_deleted(std_ledger, mean_impute_baseline(std)))
                cells += len(ledger)
                unresolved += sum(c in set(arm.unresolved) for c in _cells(ledger))
            assert report.rmse_by_repeat[d] == tuple(som)
            assert report.baseline_by_repeat[d] == tuple(base)
            assert report.n_cells[d] == cells
            assert report.n_unresolved[d] == unresolved

    def test_whole_study_batch_equals_one_train_maps_call_per_d(self):
        # the study trains every map of every arm and every d in one call; a
        # loop that makes one train_maps call per d gives the same report
        data = _complete(seed=5, n=16, p=7)
        topo = GridTopology(2, 2)
        sched = TrainingSchedule(total_iters=150, radius0=1, rng_seed=4)
        n_maps, n_repeats, d_values = 2, 3, (1, 2, 3)
        report = deletion_curve(data, d_values, topo, sched, n_maps=n_maps, n_repeats=n_repeats)
        fields = {name: {} for name in ("som", "base", "cells", "unresolved")}
        for d in d_values:
            arms, seeds = [], []
            for rep in range(n_repeats):
                mask_seed, map_seed = (int(np.random.SeedSequence([sched.rng_seed, d, rep, part])
                                           .generate_state(1)[0]) for part in (0, 1))
                masked, ledger = mask_random(data, d, mask_seed)
                params = fit_standardizer(masked)
                cols = ledger.cols
                truth = (ledger.true_values - params.means[cols]) / params.stds[cols]
                arms.append((standardize(masked, params), replace(ledger, true_values=truth)))
                seeds.append(tuple(range(map_seed, map_seed + n_maps)))
            codebooks = train_maps([std for std, _ in arms for _ in range(n_maps)], topo, sched,
                                   [s for arm in seeds for s in arm])
            reports = [impute_ensemble(codebooks[a * n_maps:(a + 1) * n_maps], std, seeds[a])
                       for a, (std, _) in enumerate(arms)]
            fields["som"][d] = tuple(rmse_deleted(ledger, r) for (_, ledger), r in zip(arms, reports))
            fields["base"][d] = tuple(rmse_deleted(ledger, mean_impute_baseline(std))
                                      for std, ledger in arms)
            fields["cells"][d] = sum(len(ledger) for _, ledger in arms)
            fields["unresolved"][d] = sum(count_unresolved_deleted(ledger, r)
                                          for (_, ledger), r in zip(arms, reports))
        expected = EvalReport(
            d_values,
            {d: float(np.mean(v)) for d, v in fields["som"].items()},
            {d: float(np.mean(v)) for d, v in fields["base"].items()},
            fields["cells"], fields["unresolved"], fields["som"], fields["base"],
        )
        assert report == expected

    def test_training_error_names_its_own_arm(self):
        # complete-only training needs a complete row.  Under global MCAR on
        # 5 x 3, with this seed, repeats 0 and 1 keep one and repeat 2 does
        # not; with two maps per arm that is the fifth map of the batch
        data = DataMatrix.from_nan(np.random.default_rng(7).normal(size=(5, 3)))
        sched = TrainingSchedule(total_iters=40, radius0=1, rng_seed=3)
        for rep in range(3):
            seed = int(np.random.SeedSequence([3, 1, rep, 0]).generate_state(1)[0])
            masked, _ = mask_random(data, 1, seed, global_mcar=True)
            assert masked.mask.all(axis=1).any() == (rep < 2)
        with pytest.raises(ValueError, match=r"^deletion arm d=1, repeat=2: complete-only mode"):
            deletion_curve(data, [1], GridTopology(1, 2), sched, n_maps=2, n_repeats=4,
                           mode=TrainingMode.COMPLETE_ONLY, global_mcar=True)

    def test_training_error_in_a_later_d_names_its_own_arm(self):
        # every d trains in the same call, so the failing map's position must
        # map back across d: on 6 x 4 with this seed, both d = 1 arms keep a
        # complete row and the first d = 2 arm does not (maps 0-3 train, map 4
        # fails)
        data = DataMatrix.from_nan(np.random.default_rng(7).normal(size=(6, 4)))
        sched = TrainingSchedule(total_iters=40, radius0=1, rng_seed=5)
        for d, rep, keeps in ((1, 0, True), (1, 1, True), (2, 0, False), (2, 1, True)):
            seed = int(np.random.SeedSequence([5, d, rep, 0]).generate_state(1)[0])
            masked, _ = mask_random(data, d, seed, global_mcar=True)
            assert masked.mask.all(axis=1).any() == keeps
        with pytest.raises(ValueError, match=r"^deletion arm d=2, repeat=0: complete-only mode"):
            deletion_curve(data, [1, 2], GridTopology(1, 2), sched, n_maps=2, n_repeats=2,
                           mode=TrainingMode.COMPLETE_ONLY, global_mcar=True)


def _unresolved_arm():
    """A ledger of one deleted cell that the report leaves unresolved."""
    data = DataMatrix(np.array([[1.0, 2.0], [3.0, np.nan]]), np.array([[1, 1], [1, 0]], bool),
                      ("a", "b"), ("x", "y"))
    ledger = MaskingLedger(np.array([1]), np.array([1]), np.array([4.0]))
    return ledger, ImputationReport(data, Fills((), (), np.full((2, 1), -1)))


@pytest.mark.parametrize("build, message", [
    (lambda: deletion_curve(DataMatrix.from_nan(np.arange(6.0).reshape(3, 2)), [1],
                            GridTopology(1, 2), TrainingSchedule(total_iters=10), n_repeats=0),
     "n_repeats must be >= 1, got 0"),
    (lambda: rmse_deleted(*_unresolved_arm()), "every deleted cell is unresolved; RMSE undefined"),
    (lambda: modality_proportions(
        Assignment(np.zeros(3, int), np.zeros(3), 2),
        DataMatrix(np.arange(4.0).reshape(2, 2), np.ones((2, 2), bool), ("a", "b"),
                   ("x", "y"), ("lo", "hi"))),
     "assignment covers 3 rows, data has 2"),
], ids=["no-repeats", "all-unresolved", "row-count"])
def test_malformed_arguments_are_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
