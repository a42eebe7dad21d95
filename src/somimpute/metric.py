"""Squared distance restricted to observed components, and winner selection.

The distance between an observation and a code vector is the sum of squared
differences over its observed components only.  :func:`assign`, the one
winner search, returns each row's winner and that distance; a row observing
nothing is at 0 from every unit and is flagged ``UNCLASSIFIABLE`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _readonly
from .topology import GridTopology


@dataclass(frozen=True)
class CodeBook:
    """One fully-defined code vector per grid unit; the trained model."""

    codes: np.ndarray
    topology: GridTopology
    col_names: tuple[str, ...]

    def __post_init__(self) -> None:
        codes = np.array(self.codes, dtype=float)
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
        if codes.shape[0] != self.topology.n_units:
            raise ValueError(
                f"{codes.shape[0]} code vectors for a grid of {self.topology.n_units} units"
            )
        if not np.isfinite(codes).all():
            raise ValueError("every code component must be finite")
        names = tuple(str(s) for s in self.col_names)
        if len(names) != codes.shape[1]:
            raise ValueError(f"expected {codes.shape[1]} column names, got {len(names)}")
        object.__setattr__(self, "codes", _readonly(codes))
        object.__setattr__(self, "col_names", names)

    @property
    def n_units(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return self.codes.shape[1]


UNCLASSIFIABLE = -1


@dataclass(frozen=True)
class Assignment:
    """Winning unit and masked squared distance per row.

    Rows with no observed component carry ``UNCLASSIFIABLE`` (-1) and a NaN
    distance.
    """

    units: np.ndarray
    sq_distances: np.ndarray
    n_units: int

    def __post_init__(self) -> None:
        units = np.array(self.units, dtype=int)
        dists = np.array(self.sq_distances, dtype=float)
        if units.ndim != 1 or dists.shape != units.shape:
            raise ValueError("units and sq_distances must be 1-D arrays of equal length")
        if units.size and (units.max() >= self.n_units or units.min() < UNCLASSIFIABLE):
            raise ValueError("unit index out of range")
        object.__setattr__(self, "units", _readonly(units))
        object.__setattr__(self, "sq_distances", _readonly(dists))

    @property
    def n_rows(self) -> int:
        return self.units.shape[0]


# rows per chunk are chosen so that a chunk's (rows, n_units) distance buffer
# holds about this many float64 cells (128 KiB)
_CHUNK_CELLS = 1 << 14


def _sq_distances(codes: np.ndarray, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``(rows, n_units)`` masked squared distances of a block of rows.

    Entry ``[i, u]`` is ``sum_k m_ik * (x_ik - c_uk)**2``, accumulated column
    by column in ascending ``k`` from 0.0, which is exactly the sequential
    sum over observed components; missing cells may hold anything.
    """
    m = mask.astype(float)
    x = np.where(mask, values, 0.0)
    out = np.zeros((values.shape[0], codes.shape[0]))
    term = np.empty_like(out)
    full = mask.all(axis=0)
    for k in np.flatnonzero(mask.any(axis=0)):
        np.subtract(x[:, k, None], codes[:, k], out=term)
        np.multiply(term, term, out=term)
        if not full[k]:
            np.multiply(term, m[:, k, None], out=term)
        np.add(out, term, out=out)
    return out


def assign(codes: np.ndarray, values: np.ndarray, mask: np.ndarray) -> Assignment:
    """Winner and masked squared distance of every row, in row chunks.

    Ties break to the lowest unit index.  Rows with no observed component
    get ``UNCLASSIFIABLE`` and a NaN distance.  Temporaries are bounded by
    one chunk of rows times the number of units.
    """
    codes = np.asarray(codes, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if codes.ndim != 2 or values.ndim != 2 or mask.shape != values.shape:
        raise ValueError(
            f"shape mismatch: codes {codes.shape}, values {values.shape}, mask {mask.shape}"
        )
    if codes.shape[1] != values.shape[1]:
        raise ValueError(
            f"codes have {codes.shape[1]} components, rows have {values.shape[1]}"
        )
    n, n_units = values.shape[0], codes.shape[0]
    units = np.full(n, UNCLASSIFIABLE, dtype=int)
    dists = np.full(n, np.nan)
    step = max(1, _CHUNK_CELLS // n_units)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        d = _sq_distances(codes, values[rows], mask[rows])
        w = d.argmin(axis=1)
        ok = mask[rows].any(axis=1)
        units[rows][ok] = w[ok]
        dists[rows][ok] = np.take_along_axis(d, w[:, None], axis=1)[ok, 0]
    return Assignment(units, dists, n_units)
