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

    def unit_coords(self, u: int) -> tuple[int, int]:
        if not 0 <= u < self.n_units:
            raise IndexError(f"unit {u} out of range for {self.rows}x{self.cols} grid")
        return divmod(int(u), self.cols)

    def unit_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"coordinates ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def distance_matrix(self) -> np.ndarray:
        """n_units x n_units Chebyshev distances."""
        rr, cc = np.divmod(np.arange(self.n_units), self.cols)
        return np.maximum(
            np.abs(rr[:, None] - rr[None, :]), np.abs(cc[:, None] - cc[None, :])
        )
