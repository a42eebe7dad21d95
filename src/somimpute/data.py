"""Data model for numeric observations with missing entries.

Missingness is carried by an explicit boolean mask (True = observed); every
statistic in this module (means, standard deviations, ranges) is taken over
observed cells only.  Masked slots of the numeric storage hold NaN as a
tripwire: the mask stays the single source of truth, and arithmetic that
bypasses it corrupts loudly instead of silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# rows per block: the CSV reader parses, the table writers format and the
# standardizer's sums add one block of rows at a time, and a map trains on
# one block of steps at a time, so that beside a table only one block is held
_BLOCK_ROWS = 1024


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _handed_over(a, dtype) -> np.ndarray:
    """``a`` itself if it is a writeable C-ordered ``dtype`` array that owns
    its data, else a C-ordered copy: a borrowed or read-only array is never
    written into."""
    if (type(a) is np.ndarray and a.dtype == dtype and a.flags.owndata and a.flags.writeable
            and a.flags.c_contiguous):
        return a
    return np.array(a, dtype=dtype, order="C")


@dataclass(frozen=True)
class DataMatrix:
    """An n x p matrix of real values where any cell may be missing.

    Rows that are entirely missing are legal here; the consumers that
    cannot handle them (training, winner selection) skip and flag them.
    Construction fails for a table with no column and for columns with no
    observed value at all, so some row always has an observed cell.

    Instances are immutable after construction and safe to share across
    workers; the backing arrays are C-ordered and marked read-only.  The
    constructor copies ``values`` and ``mask``, so the caller's arrays stay
    its own.
    :meth:`with_cells` (and :func:`somimpute.model_io.read_csv`, through
    :meth:`_of`) keeps an array it is handed when that array is a writeable
    C-ordered float (bool) array that owns its data, writing NaN into its
    masked slots and marking it read-only, and copies anything else.
    """

    values: np.ndarray
    mask: np.ndarray
    row_labels: tuple[str, ...]
    col_names: tuple[str, ...]
    categorical: tuple[str | None, ...] | None = None
    categorical_name: str | None = None

    def __post_init__(self) -> None:
        self._take(np.array(self.values, dtype=float, order="C"),
                   np.array(self.mask, dtype=bool, order="C"))

    @classmethod
    def _of(cls, values, mask, row_labels, col_names, categorical, categorical_name):
        """The matrix the constructor builds from these fields, except that
        ``values`` and ``mask`` are kept, not copied, when they are handed
        over (see the class docstring)."""
        out = cls.__new__(cls)
        vars(out).update(row_labels=row_labels, col_names=col_names,
                         categorical=categorical, categorical_name=categorical_name)
        out._take(_handed_over(values, float), _handed_over(mask, bool))
        return out

    def _take(self, values: np.ndarray, mask: np.ndarray) -> None:
        """Check ``values`` and ``mask`` against the other fields, then make
        them this matrix's arrays: NaN goes into the masked slots of
        ``values``, and both are marked read-only."""
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if mask.shape != values.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match values shape {values.shape}"
            )
        n, p = values.shape
        if p == 0:
            raise ValueError("a table needs at least one column")
        labels = tuple(str(s) for s in self.row_labels)
        names = tuple(str(s) for s in self.col_names)
        if len(labels) != n:
            raise ValueError(f"expected {n} row labels, got {len(labels)}")
        if len(names) != p:
            raise ValueError(f"expected {p} column names, got {len(names)}")
        if not np.isfinite(values, where=mask, out=np.ones(mask.shape, bool)).all():
            raise ValueError("observed cells must be finite numbers")
        self._check_columns(mask, names)
        cat = self.categorical
        if cat is not None:
            cat = tuple(None if c is None else str(c) for c in cat)
            if len(cat) != n:
                raise ValueError(f"expected {n} categorical entries, got {len(cat)}")
        values[~mask] = np.nan
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "mask", _readonly(mask))
        object.__setattr__(self, "row_labels", labels)
        object.__setattr__(self, "col_names", names)
        object.__setattr__(self, "categorical", cat)

    def _check_columns(self, mask: np.ndarray, names: tuple[str, ...]) -> None:
        _every_column_observed(mask.any(axis=0), names)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def n_missing_cells(self) -> int:
        return int((~self.mask).sum())

    @classmethod
    def from_nan(cls, values) -> "DataMatrix":
        """Build a matrix treating NaN entries of ``values`` as missing, with
        rows labelled ``r0, r1, ...`` and columns named ``v0, v1, ...``.

        Only NaN means missing: an infinite entry is an observed cell and is
        rejected like any other non-finite observation.  Boundary convenience
        for ingestion and tests; internally the mask remains the only
        authority on missingness.
        """
        values = np.asarray(values, dtype=float)
        n, p = values.shape
        return cls(values, ~np.isnan(values), tuple(f"r{i}" for i in range(n)),
                   tuple(f"v{k}" for k in range(p)))

    def column_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) per column over observed cells."""
        return np.nanmin(self.values, axis=0), np.nanmax(self.values, axis=0)

    def with_cells(self, values: np.ndarray, mask: np.ndarray) -> "DataMatrix":
        """Same labels and metadata, new cell values and mask; ``values`` and
        ``mask`` are kept, not copied, when they are handed over (see the
        class docstring)."""
        return type(self)._of(values, mask, self.row_labels, self.col_names,
                              self.categorical, self.categorical_name)


def _every_column_observed(observed: np.ndarray, names) -> None:
    """Raise for the first column whose entry of ``observed`` is False: a
    table has an observed value in every column."""
    empty = np.flatnonzero(~observed)
    if empty.size:
        raise ValueError(f"column {names[int(empty[0])]!r} has no observed values")


class RowBlock(DataMatrix):
    """Consecutive rows of a table, as the model commands read, scale,
    classify, fill and write them, one block at a time.

    A block is a :class:`DataMatrix` in all but one check: a column of the
    table may have no observed value within one block, so the reader checks
    that over the whole table instead (see
    :func:`somimpute.model_io._read_blocks`).  :meth:`with_cells` of a block
    is a block.
    """

    def _check_columns(self, mask: np.ndarray, names: tuple[str, ...]) -> None:
        pass


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column centering and scaling fitted on observed cells only."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        means = np.array(self.means, dtype=float)
        stds = np.array(self.stds, dtype=float)
        if means.ndim != 1 or stds.shape != means.shape:
            raise ValueError("means and stds must be 1-D arrays of equal length")
        if not (np.isfinite(means).all() and np.isfinite(stds).all()):
            raise ValueError("means and stds must be finite")
        if not (stds > 0).all():
            raise ValueError("every std must be strictly positive")
        object.__setattr__(self, "means", _readonly(means))
        object.__setattr__(self, "stds", _readonly(stds))

    @property
    def n_cols(self) -> int:
        return self.means.shape[0]


def fit_standardizer(data: DataMatrix) -> StandardizationParams:
    """Fit per-column mean and population (1/n) std over observed cells.

    Missing cells are ignored, never treated as zero.  Columns with fewer
    than two observed values or zero observed variance are rejected by name.
    """
    return _fit_observed(data.values, data.mask, data.col_names)


def _fit_observed(values: np.ndarray, mask: np.ndarray, col_names) -> StandardizationParams:
    """:func:`fit_standardizer` of the table with these ``values`` (NaN in
    every unobserved slot), ``mask`` and ``col_names``, which need not be a
    :class:`DataMatrix` yet."""
    counts = mask.sum(axis=0)
    short = np.flatnonzero(counts < 2)
    if short.size:
        raise ValueError(
            f"column {col_names[int(short[0])]!r} has fewer than 2 observed values"
        )
    blocks = _row_blocks(values, mask)
    # np.nanmean and np.nanstd (ddof 0) bit for bit, without their copies of the table
    means = _observed_means(blocks)
    stds = np.sqrt(_column_sums(np.square(np.where(m, v - means, 0.0)) for v, m in blocks)
                   / counts)
    flat = np.flatnonzero(stds == 0.0)
    if flat.size:
        raise ValueError(
            f"column {col_names[int(flat[0])]!r} has zero variance over observed values"
        )
    return StandardizationParams(means, stds)


def _row_blocks(values: np.ndarray, mask: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views of consecutive ``_BLOCK_ROWS``-row blocks of ``values`` and
    ``mask``, as ``(values, mask)`` pairs."""
    return [(values[lo:lo + _BLOCK_ROWS], mask[lo:lo + _BLOCK_ROWS])
            for lo in range(0, values.shape[0], _BLOCK_ROWS)]


def _observed_means(blocks) -> np.ndarray:
    """The per-column means of the observed cells of the table that
    ``blocks`` (``(values, mask)`` pairs of consecutive row blocks) make up,
    bit for bit as ``np.nanmean`` over the whole table gives them, holding
    one block at a time but for a table of one column (see
    :func:`_column_sums`)."""
    counts = []

    def observed():
        for values, mask in blocks:
            counts.append(mask.sum(axis=0))
            yield np.where(mask, values, 0.0)

    return _column_sums(observed()) / sum(counts)


def _column_sums(blocks) -> np.ndarray:
    """``np.sum(table, axis=0)``, bit for bit, of the table that ``blocks``
    (consecutive row blocks) make up, holding one block at a time but for a
    table of one column.

    numpy adds the rows of a C-ordered table of two columns or more one at
    a time, in order, so one running sum carried across the blocks repeats
    its sums (summing each block, then the block sums, would not); a single
    column it adds pairwise, over all of its rows at once, so that column
    is kept whole.
    """
    sums, column = None, []
    for block in blocks:
        if block.shape[1] == 1:
            column.append(block)
        else:
            sums = block.sum(axis=0) if sums is None else np.vstack([sums, block]).sum(axis=0)
    return np.concatenate(column).sum(axis=0) if column else sums


def standardize(data: DataMatrix, params: StandardizationParams) -> DataMatrix:
    """Map observed cells to (x - mean) / std; the mask is unchanged."""
    if params.n_cols != data.n_cols:
        raise ValueError(
            f"params cover {params.n_cols} columns, data has {data.n_cols}"
        )
    return data.with_cells(_standardized(data.values, params), data.mask)


def _standardized(values: np.ndarray, params: StandardizationParams, out=None) -> np.ndarray:
    """``(values - mean) / std`` column by column, into ``out`` when given
    (``values`` itself scales a table in place)."""
    out = np.subtract(values, params.means, out=out)
    out /= params.stds
    return out


def destandardize(data: DataMatrix, params: StandardizationParams) -> DataMatrix:
    """Inverse of :func:`standardize` on observed cells."""
    if params.n_cols != data.n_cols:
        raise ValueError(
            f"params cover {params.n_cols} columns, data has {data.n_cols}"
        )
    values = data.values * params.stds
    values += params.means
    return data.with_cells(values, data.mask)
