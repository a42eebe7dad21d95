import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somimpute import (
    DataMatrix,
    Fills,
    ImputationReport,
    StandardizationParams,
    destandardize,
    fit_standardizer,
    standardize,
)
from somimpute.cli import _destandardized_report
from somimpute.data import _BLOCK_ROWS, RowBlock
from somimpute.imputation import _observed_means
from somimpute.trainer import TrainingMode, pool_mask
from conftest import random_incomplete
from helpers import (
    reference_destandardized,
    reference_destandardized_report,
    reference_standardized,
)


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

    def test_constructor_copies_the_callers_arrays(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [True, True]])
        data = DataMatrix(values, mask, ("a", "b"), ("x", "y"))
        assert values.flags.writeable and mask.flags.writeable
        assert values[0, 1] == 2.0  # the tripwire NaN went into the matrix's copy
        values[0, 0] = 9.0
        mask[0, 1] = True
        assert data.values[0, 0] == 1.0
        assert not data.mask[0, 1]

    def test_with_cells_keeps_arrays_handed_over(self, small_incomplete):
        values = np.ones((4, 3))
        mask = np.ones((4, 3), dtype=bool)
        mask[0, 0] = False
        out = small_incomplete.with_cells(values, mask)
        assert out.values is values and out.mask is mask
        assert np.isnan(values[0, 0])
        assert not values.flags.writeable and not mask.flags.writeable
        assert out.row_labels == small_incomplete.row_labels

    def test_with_cells_copies_borrowed_or_readonly_arrays(self, small_incomplete):
        hide = np.array(small_incomplete.mask)
        hide[0, 0] = False
        # another matrix's read-only values and mask
        out = small_incomplete.with_cells(small_incomplete.values, hide)
        assert np.isnan(out.values[0, 0]) and small_incomplete.values[0, 0] == 1.0
        out = small_incomplete.with_cells(np.ones((4, 3)), small_incomplete.mask)
        assert out.mask is not small_incomplete.mask
        # a writeable view that does not own its data
        base = np.arange(24.0).reshape(4, 6)
        out = small_incomplete.with_cells(base[:, :3], hide)
        assert np.isnan(out.values[0, 0])
        assert base[0, 0] == 0.0 and base.flags.writeable
        # another dtype
        ints = np.ones((4, 3), dtype=int)
        out = small_incomplete.with_cells(ints, hide.astype(int))
        assert out.values.dtype == float and out.mask.dtype == bool
        assert ints.flags.writeable and ints[0, 0] == 1

    def test_with_cells_runs_the_constructors_checks(self, small_incomplete):
        with pytest.raises(ValueError, match="finite"):
            small_incomplete.with_cells(np.full((4, 3), np.inf), np.ones((4, 3), dtype=bool))
        with pytest.raises(ValueError, match="no observed values"):
            small_incomplete.with_cells(np.ones((4, 3)), np.zeros((4, 3), dtype=bool))
        with pytest.raises(ValueError, match="expected 3 row labels, got 4"):
            small_incomplete.with_cells(np.ones((3, 3)), np.ones((3, 3), dtype=bool))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_from_nan_rejects_infinity(self, bad):
        # only NaN means missing; an infinite entry is a bad observation
        with pytest.raises(ValueError, match="finite"):
            DataMatrix.from_nan(np.array([[1.0, bad], [2.0, 3.0]]))

    def test_from_nan_roundtrip(self, small_incomplete):
        again = DataMatrix.from_nan(np.array(small_incomplete.values))
        assert np.array_equal(again.mask, small_incomplete.mask)
        assert np.array_equal(again.values, small_incomplete.values, equal_nan=True)
        assert again.row_labels == ("r0", "r1", "r2", "r3")
        assert again.col_names == ("v0", "v1", "v2")


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


@st.composite
def _scaled_tables(draw):
    """A holed table, standardization parameters, and estimates for some of
    its holes (standardized)."""
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 4))

    def floats(size, elements=st.floats(-1e6, 1e6)):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    mask = np.array(draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p))).reshape(n, p)
    mask[0, ~mask.any(axis=0)] = True
    data = DataMatrix(floats(n * p).reshape(n, p), mask, tuple(f"r{i}" for i in range(n)),
                      tuple(f"c{k}" for k in range(p)))
    params = StandardizationParams(floats(p), floats(p, st.floats(1e-3, 1e3)))
    fill = ~mask & np.array(draw(st.lists(st.booleans(), min_size=n * p,
                                          max_size=n * p))).reshape(n, p)
    return data, params, fill, floats(n * p, st.floats(-1e3, 1e3)).reshape(n, p)


def _same_bits(got: DataMatrix, expected: np.ndarray, mask: np.ndarray) -> None:
    assert np.array_equal(got.mask, mask)
    assert got.values[mask].tobytes() == expected[mask].tobytes()
    assert np.isnan(got.values[~mask]).all()


@settings(max_examples=100, deadline=None)
@given(_scaled_tables())
def test_in_place_scaling_equals_the_one_expression_bit_for_bit(table):
    data, params, fill, estimates = table
    m, s = params.means, params.stds
    std = standardize(data, params)
    _same_bits(std, reference_standardized(data.values, m, s), data.mask)
    _same_bits(destandardize(std, params), reference_destandardized(std.values, m, s), data.mask)
    filled = std.with_cells(np.where(fill, estimates, std.values), data.mask | fill)
    report = ImputationReport(filled, Fills(*np.nonzero(fill), np.zeros((data.n_rows, 1))))
    out = _destandardized_report(report, data, params)
    expected = reference_destandardized_report(data.values, data.mask, filled.values, m, s)
    _same_bits(out.filled, expected, filled.mask)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from([-1, 0, 1, "2B+1"]),
       st.sampled_from([0.0, 0.2, 0.6]), st.booleans(), st.integers(0, 2**32 - 1))
def test_fit_and_column_means_equal_numpy_bit_for_bit(p, rows, missing, fortran, seed):
    # the fit and the fallback's column means add the observed cells a
    # block of rows at a time; np.nanmean and np.nanstd add the rows of a
    # table of two columns or more one at a time, in order, and a single
    # column pairwise, so a sum restarted at a block's edge, or a column
    # added in the wrong order, shows in the last bits of some of these
    # tables: values spread over twelve orders of magnitude, one row short
    # of a block, one block, and one or two blocks and a row, handed over
    # in either memory order
    block = _BLOCK_ROWS
    n = 2 * block + 1 if rows == "2B+1" else block + rows
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-6, 7, size=(n, p))
    values += rng.normal(size=p) * 1e3
    mask = rng.random((n, p)) >= missing
    mask[:2] = True  # two observed values in every column
    if fortran:
        values, mask = np.asfortranarray(values), np.asfortranarray(mask)
    data = DataMatrix(values, mask, tuple(f"r{i}" for i in range(n)),
                      tuple(f"c{k}" for k in range(p)))
    params = fit_standardizer(data)
    assert params.means.tobytes() == np.nanmean(data.values, axis=0).tobytes()
    assert params.stds.tobytes() == np.nanstd(data.values, axis=0).tobytes()
    blocks = [RowBlock(data.values[lo:lo + block], data.mask[lo:lo + block],
                       data.row_labels[lo:lo + block], data.col_names)
              for lo in range(0, n, block)]
    assert _observed_means(blocks).tobytes() == np.nanmean(data.values, axis=0).tobytes()


_TWO_BY_TWO = np.arange(4.0).reshape(2, 2)


@pytest.mark.parametrize("build, message", [
    (lambda: DataMatrix(np.arange(3.0), np.ones(3, bool), ("a", "b", "c"), ("x",)),
     "values must be 2-D, got shape (3,)"),
    (lambda: DataMatrix(_TWO_BY_TWO, np.ones((2, 2), bool), ("a", "b"), ("x",)),
     "expected 2 column names, got 1"),
    (lambda: DataMatrix(_TWO_BY_TWO, np.ones((2, 2), bool), ("a", "b"), ("x", "y"), ("lo",)),
     "expected 2 categorical entries, got 1"),
    (lambda: DataMatrix(np.empty((3, 0)), np.empty((3, 0), bool), ("a", "b", "c"), ()),
     "a table needs at least one column"),
    (lambda: StandardizationParams(np.zeros(2), np.ones(3)),
     "means and stds must be 1-D arrays of equal length"),
    (lambda: StandardizationParams(np.array([0.0, np.inf]), np.ones(2)),
     "means and stds must be finite"),
    (lambda: destandardize(DataMatrix.from_nan(_TWO_BY_TWO),
                           StandardizationParams(np.zeros(3), np.ones(3))),
     "params cover 3 columns, data has 2"),
], ids=["values-not-2d", "column-names", "categorical-length", "no-column",
        "params-shapes", "params-not-finite", "destandardize-width"])
def test_malformed_arguments_are_refused(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
