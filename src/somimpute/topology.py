"""Rectangular map grid: Chebyshev unit distance and square step neighborhoods.

Neighbor weight is 1 inside the radius and 0 outside (hard step kernel), and
grid borders are genuine: no toroidal wraparound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridTopology:
    """A rows x cols grid of units, indexed row-major."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if int(self.rows) != self.rows or int(self.cols) != self.cols:
            raise ValueError("rows and cols must be integers")
        object.__setattr__(self, "rows", int(self.rows))
        object.__setattr__(self, "cols", int(self.cols))
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must have positive dimensions, got {self.rows}x{self.cols}")

    @property
    def n_units(self) -> int:
        return self.rows * self.cols

    def _check_unit(self, u: int) -> None:
        if not 0 <= u < self.n_units:
            raise IndexError(f"unit {u} out of range for {self.rows}x{self.cols} grid")

    def unit_coords(self, u: int) -> tuple[int, int]:
        self._check_unit(u)
        return divmod(int(u), self.cols)

    def unit_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"coordinates ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def coord_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column coordinate of every unit, in unit order."""
        idx = np.arange(self.n_units)
        return idx // self.cols, idx % self.cols

    def grid_distance(self, u: int, v: int) -> int:
        """Chebyshev (8-neighbor) distance between two units."""
        ur, uc = self.unit_coords(u)
        vr, vc = self.unit_coords(v)
        return max(abs(ur - vr), abs(uc - vc))

    def distance_matrix(self) -> np.ndarray:
        """n_units x n_units Chebyshev distances."""
        rr, cc = self.coord_arrays()
        return np.maximum(
            np.abs(rr[:, None] - rr[None, :]), np.abs(cc[:, None] - cc[None, :])
        )

    def neighbors(self, u: int, radius: int) -> np.ndarray:
        """Units within ``radius`` of ``u`` (inclusive), ascending; always contains u."""
        self._check_unit(u)
        if radius < 0:
            raise ValueError(f"radius must be nonnegative, got {radius}")
        rr, cc = self.coord_arrays()
        ur, uc = divmod(int(u), self.cols)
        within = np.maximum(np.abs(rr - ur), np.abs(cc - uc)) <= radius
        return np.flatnonzero(within)

