import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somimpute import (
    DataMatrix,
    StandardizationParams,
    destandardize,
    fit_standardizer,
    standardize,
)
from somimpute.trainer import TrainingMode, pool_mask
from conftest import random_incomplete


class TestDataMatrix:
    def test_missing_set_complete_row(self, small_incomplete):
        assert small_incomplete.mask[0].all()
        assert small_incomplete.values[0].tolist() == [1.0, 2.0, 3.0]

    def test_missing_set_partial_row(self, small_incomplete):
        assert np.flatnonzero(~small_incomplete.mask[1]).tolist() == [1]
        assert small_incomplete.values[1, 2] == 6.0
        assert np.isnan(small_incomplete.values[1, 1])  # the tripwire, not a value

    def test_missing_set_all_missing_row(self, small_incomplete):
        assert np.flatnonzero(~small_incomplete.mask[2]).tolist() == [0, 1, 2]

    def test_missing_set_out_of_range(self, small_incomplete):
        with pytest.raises(IndexError):
            small_incomplete.mask[4]

    def test_all_missing_rows_are_admitted(self, small_incomplete):
        # admitted here, and left out of the training pool in both modes
        incomplete = pool_mask(small_incomplete, TrainingMode.INCLUDE_INCOMPLETE)
        assert np.flatnonzero(~incomplete).tolist() == [2]
        complete = pool_mask(small_incomplete, TrainingMode.COMPLETE_ONLY)
        assert np.flatnonzero(complete).tolist() == [0]

    def test_all_missing_column_rejected(self):
        values = np.array([[1.0, 0.0], [2.0, 0.0]])
        mask = np.array([[True, False], [True, False]])
        with pytest.raises(ValueError, match="'y'"):
            DataMatrix(values, mask, ("a", "b"), ("x", "y"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DataMatrix(np.zeros((2, 2)), np.ones((2, 3), dtype=bool), ("a", "b"), ("x", "y"))

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            DataMatrix(np.zeros((2, 2)), np.ones((2, 2), dtype=bool), ("a",), ("x", "y"))

    def test_nonfinite_observed_rejected(self):
        with pytest.raises(ValueError):
            DataMatrix(
                np.array([[np.inf, 1.0]]), np.ones((1, 2), dtype=bool), ("a",), ("x", "y")
            )

    def test_storage_is_readonly(self, small_incomplete):
        with pytest.raises(ValueError):
            small_incomplete.values[0, 0] = 99.0
        with pytest.raises(ValueError):
            small_incomplete.mask[0, 0] = False

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_from_nan_rejects_infinity(self, bad):
        # only NaN means missing; an infinite entry is a bad observation
        with pytest.raises(ValueError, match="finite"):
            DataMatrix.from_nan(np.array([[1.0, bad], [2.0, 3.0]]))

    def test_from_nan_roundtrip(self, small_incomplete):
        again = DataMatrix.from_nan(
            np.array(small_incomplete.values), small_incomplete.row_labels,
            small_incomplete.col_names,
        )
        assert np.array_equal(again.mask, small_incomplete.mask)


class TestStandardizer:
    def test_hand_case_population_std(self):
        # column x observed {2, 4}: mean 3, population std 1
        values = np.array([[2.0, 1.0], [4.0, 5.0], [np.nan, 3.0]])
        data = DataMatrix(values, np.isfinite(values), ("a", "b", "c"), ("x", "y"))
        params = fit_standardizer(data)
        assert params.means[0] == 3.0
        assert params.stds[0] == 1.0
        assert params.means[1] == 3.0
        assert params.stds[1] == pytest.approx(np.std([1.0, 5.0, 3.0]), rel=1e-15)

    def test_complete_matrix_matches_textbook(self):
        rng = np.random.default_rng(0)
        values = rng.normal(2.0, 3.0, size=(20, 4))
        data = DataMatrix.from_nan(values)
        params = fit_standardizer(data)
        assert np.allclose(params.means, values.mean(axis=0), rtol=0, atol=1e-12)
        assert np.allclose(params.stds, values.std(axis=0), rtol=0, atol=1e-12)

    def test_zero_variance_column_rejected(self):
        values = np.array([[5.0, 1.0], [np.nan, 2.0], [5.0, 3.0]])
        data = DataMatrix(values, np.isfinite(values), ("a", "b", "c"), ("x", "y"))
        with pytest.raises(ValueError, match="'x'.*zero variance"):
            fit_standardizer(data)

    def test_underobserved_column_rejected(self):
        values = np.array([[5.0, 1.0], [np.nan, 2.0], [np.nan, 3.0]])
        data = DataMatrix(values, np.isfinite(values), ("a", "b", "c"), ("x", "y"))
        with pytest.raises(ValueError, match="'x'.*fewer than 2"):
            fit_standardizer(data)

    def test_centering_identity(self):
        data = DataMatrix.from_nan(np.array([[3.0], [2.0], [4.0]]))
        std = standardize(data, fit_standardizer(data))
        assert std.values[0, 0] == 0.0

    def test_missing_cells_stay_missing(self, small_incomplete):
        params = fit_standardizer(small_incomplete)
        std = standardize(small_incomplete, params)
        assert np.array_equal(std.mask, small_incomplete.mask)
        assert np.flatnonzero(~std.mask[1]).tolist() == [1]

    def test_standardized_columns_centered_and_scaled(self):
        rng = np.random.default_rng(3)
        data = DataMatrix.from_nan(rng.normal(5.0, 7.0, size=(50, 3)))
        std = standardize(data, fit_standardizer(data))
        assert np.all(np.abs(std.values.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(std.values.std(axis=0) - 1.0) < 1e-10)

    def test_dimension_mismatch(self, small_incomplete):
        params = StandardizationParams(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            standardize(small_incomplete, params)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            StandardizationParams(np.zeros(2), np.array([1.0, 0.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_roundtrip_on_observed_cells(self, seed):
        data = random_incomplete(seed)
        params = fit_standardizer(data)
        back = destandardize(standardize(data, params), params)
        obs = data.mask
        assert np.allclose(back.values[obs], data.values[obs], rtol=1e-10, atol=1e-12)
        assert np.array_equal(back.mask, data.mask)
