"""Estimate missing cells from the winning code vector.

Each missing component of a classified row is filled with the corresponding
component of its winning unit's code vector; since training ends at radius 0,
those components sit near the class means.  Precision can be raised by
averaging the estimates from several independently trained maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, _handed_over, _readonly
from .metric import UNCLASSIFIABLE, CodeBook, assign
from .topology import GridTopology
from .trainer import TrainingMode, TrainingSchedule, train_maps
from .trainer import train  # unused here; perfbench/tracing.py wraps it


@dataclass(frozen=True)
class Fills:
    """Provenance of the filled cells: one entry per cell, one winner per row.

    Cell ``j`` is ``(rows[j], cols[j])``; its estimate is the report's
    ``filled.values[rows[j], cols[j]]``.  ``winners`` holds every table
    row's winning unit on each map (shape ``(n_rows, n_maps)``;
    ``UNCLASSIFIABLE`` where a map has none), and ``seeds`` the maps'
    training seeds when known (else empty).  A cell's units and source
    follow from its row's winners.  Like :class:`~somimpute.data.DataMatrix`,
    it keeps an int array it is handed that owns its data and is writeable,
    marking it read-only, and copies anything else.
    """

    rows: np.ndarray
    cols: np.ndarray
    winners: np.ndarray
    seeds: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        rows = _handed_over(self.rows, int)
        cols = _handed_over(self.cols, int)
        winners = _handed_over(self.winners, int)
        if rows.ndim != 1 or cols.shape != rows.shape:
            raise ValueError("rows and cols must be 1-D arrays of equal length")
        if winners.ndim != 2:
            raise ValueError("winners must be 2-D, one row per table row")
        if rows.size and not 0 <= rows.min() <= rows.max() < winners.shape[0]:
            raise ValueError(f"a cell's row lies outside the {winners.shape[0]} rows of winners")
        for name, a in (("rows", rows), ("cols", cols), ("winners", winners)):
            object.__setattr__(self, name, _readonly(a))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    def __len__(self) -> int:
        return self.rows.shape[0]

    def source_of(self, cells) -> np.ndarray:
        """How each cell that ``cells`` (a slice or index of ``rows``)
        selects was filled: ``"codebook"`` where a map has a winner for its
        row, else ``"column-mean"``."""
        from_map = (self.winners[self.rows[cells]] >= 0).any(axis=1)
        return np.where(from_map, "codebook", "column-mean")


@dataclass(frozen=True)
class ImputationReport:
    """Filled matrix plus per-cell provenance.

    ``filled`` is the one record of the result: originally observed cells
    are bit-identical to the input, each cell of ``fills`` holds its
    estimate, and every cell still missing in ``filled`` is unresolved
    (rows with no observed component have no winner and stay unresolved
    unless an explicit fallback is applied).
    """

    filled: DataMatrix
    fills: Fills

    @property
    def unresolved(self) -> tuple[tuple[int, int], ...]:
        """The cells still missing in ``filled``, in row-major order."""
        return tuple(map(tuple, np.argwhere(~self.filled.mask).tolist()))


def _with_fills(data: DataMatrix, rows, cols, estimates) -> DataMatrix:
    """``data`` with cells ``(rows[j], cols[j])`` set to ``estimates[j]`` and
    marked observed."""
    values = data.values.copy()
    values[rows, cols] = estimates
    mask = data.mask.copy()
    mask[rows, cols] = True
    return data.with_cells(values, mask)


def impute(codebook: CodeBook, data: DataMatrix) -> ImputationReport:
    """Fill each missing cell with the winning unit's code component.

    The codebook must have been trained on data scaled the same way as
    ``data`` (normally: both standardized with the same parameters).  Cells
    are listed in row-major order.  This is the one-map ensemble,
    :func:`impute_ensemble` on ``[codebook]``.
    """
    return impute_ensemble([codebook], data)


def impute_ensemble(
    codebooks: list[CodeBook] | tuple[CodeBook, ...],
    data: DataMatrix,
    seeds: tuple[int, ...] | None = None,
) -> ImputationReport:
    """Average the per-map estimates of several codebooks, cell by cell.

    Every map fills the same cells (the missing cells of the classifiable
    rows), in row-major order, each with its winner's code component.
    """
    if not codebooks:
        raise ValueError("need at least one codebook")
    # complete rows need no winner; all-missing rows have none
    holed = np.flatnonzero(~data.mask.all(axis=1))
    values, mask = data.values[holed], data.mask[holed]
    winners = np.full((data.n_rows, len(codebooks)), UNCLASSIFIABLE)
    for k, cb in enumerate(codebooks):
        winners[holed, k] = assign(cb.codes, values, mask).units
    del holed, values, mask  # not alive beside the copy of the table that the fills make
    # divmod gives two arrays that Fills can keep; np.nonzero's are views
    rows, cols = divmod(np.flatnonzero(~data.mask & (winners[:, 0] >= 0)[:, None]), data.n_cols)
    estimates = np.stack([cb.codes[winners[rows, k], cols] for k, cb in enumerate(codebooks)],
                         axis=1).mean(axis=1)
    return ImputationReport(_with_fills(data, rows, cols, estimates),
                            Fills(rows, cols, winners, seeds or ()))


def _map_seeds(first: int, n_maps: int) -> tuple[int, ...]:
    """The training seeds of ``n_maps`` maps averaged together: ``first``,
    ``first + 1``, ..., ``first + n_maps - 1``."""
    return tuple(first + j for j in range(n_maps))


def impute_multi(
    data: DataMatrix,
    topology: GridTopology,
    schedule: TrainingSchedule,
    n_maps: int,
    mode: TrainingMode = TrainingMode.INCLUDE_INCOMPLETE,
) -> ImputationReport:
    """Train ``n_maps`` maps with the seeds :func:`_map_seeds` gives from
    ``schedule.rng_seed`` (in one :func:`somimpute.trainer.train_maps`
    call) and average their estimates for each missing cell."""
    if n_maps < 1:
        raise ValueError(f"n_maps must be >= 1, got {n_maps}")
    seeds = _map_seeds(schedule.rng_seed, n_maps)
    codebooks = train_maps([data] * n_maps, topology, schedule, seeds, mode)
    return impute_ensemble(codebooks, data, seeds)


def _with_column_means(report: ImputationReport, means: np.ndarray) -> ImputationReport:
    """``report`` with each unresolved cell filled with its column's entry
    of ``means``, the column-mean fallback.

    Deliberately a separate, explicit step: the codebook method gives those
    cells no winner, and falling back silently would hide that.  The new
    cells follow the report's own; their rows have no winner, so their
    source is ``"column-mean"``.
    """
    rows, cols = np.nonzero(~report.filled.mask)
    if not rows.size:
        return report
    old = report.fills
    fills = Fills(np.concatenate([old.rows, rows]), np.concatenate([old.cols, cols]),
                  old.winners, old.seeds)
    return ImputationReport(_with_fills(report.filled, rows, cols, means[cols]), fills)
