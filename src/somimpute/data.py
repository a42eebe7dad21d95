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


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DataMatrix:
    """An n x p matrix of real values where any cell may be missing.

    Rows that are entirely missing are legal here; the consumers that
    cannot handle them (training, winner selection) reject or flag them.
    Construction fails for columns with no observed value at all.

    Instances are immutable after construction and safe to share across
    workers; the backing arrays are marked read-only.
    """

    values: np.ndarray
    mask: np.ndarray
    row_labels: tuple[str, ...]
    col_names: tuple[str, ...]
    categorical: tuple[str | None, ...] | None = None
    categorical_name: str | None = None

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        mask = np.array(self.mask, dtype=bool)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if mask.shape != values.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match values shape {values.shape}"
            )
        n, p = values.shape
        labels = tuple(str(s) for s in self.row_labels)
        names = tuple(str(s) for s in self.col_names)
        if len(labels) != n:
            raise ValueError(f"expected {n} row labels, got {len(labels)}")
        if len(names) != p:
            raise ValueError(f"expected {p} column names, got {len(names)}")
        if not np.all(np.isfinite(values[mask])):
            raise ValueError("observed cells must be finite numbers")
        observed_per_col = mask.sum(axis=0)
        empty = np.flatnonzero(observed_per_col == 0)
        if empty.size:
            raise ValueError(f"column {names[int(empty[0])]!r} has no observed values")
        values[~mask] = np.nan
        cat = self.categorical
        if cat is not None:
            cat = tuple(None if c is None else str(c) for c in cat)
            if len(cat) != n:
                raise ValueError(f"expected {n} categorical entries, got {len(cat)}")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "mask", _readonly(mask))
        object.__setattr__(self, "row_labels", labels)
        object.__setattr__(self, "col_names", names)
        object.__setattr__(self, "categorical", cat)

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
        """Same labels and metadata, new cell values and mask."""
        return DataMatrix(
            values,
            mask,
            self.row_labels,
            self.col_names,
            self.categorical,
            self.categorical_name,
        )


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
    counts = data.mask.sum(axis=0)
    short = np.flatnonzero(counts < 2)
    if short.size:
        raise ValueError(
            f"column {data.col_names[int(short[0])]!r} has fewer than 2 observed values"
        )
    means = np.nanmean(data.values, axis=0)
    stds = np.nanstd(data.values, axis=0)
    flat = np.flatnonzero(stds == 0.0)
    if flat.size:
        raise ValueError(
            f"column {data.col_names[int(flat[0])]!r} has zero variance over observed values"
        )
    return StandardizationParams(means, stds)


def standardize(data: DataMatrix, params: StandardizationParams) -> DataMatrix:
    """Map observed cells to (x - mean) / std; the mask is unchanged."""
    if params.n_cols != data.n_cols:
        raise ValueError(
            f"params cover {params.n_cols} columns, data has {data.n_cols}"
        )
    return data.with_cells((data.values - params.means) / params.stds, data.mask)


def destandardize(data: DataMatrix, params: StandardizationParams) -> DataMatrix:
    """Inverse of :func:`standardize` on observed cells."""
    if params.n_cols != data.n_cols:
        raise ValueError(
            f"params cover {params.n_cols} columns, data has {data.n_cols}"
        )
    return data.with_cells(data.values * params.stds + params.means, data.mask)
