"""Deletion experiment: mask known values, impute them back, measure error.

Also provides the column-mean baseline, the pairwise-complete correlation
diagnostic for heavily holed tables, and per-unit modality frequencies for
overlaying a categorical variable on the map.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .data import DataMatrix, fit_standardizer, standardize
from .imputation import Fills, ImputationReport, _with_fills, impute, impute_ensemble
from .imputation import impute_multi  # unused here; perfbench/tracing.py wraps it
from .metric import Assignment
from .topology import GridTopology
from .trainer import TrainingMode, TrainingSchedule, _pool, train_maps
from .trainer import train  # unused here; perfbench/tracing.py wraps it


@dataclass(frozen=True)
class MaskingPlan:
    """Delete ``per_row_deletions`` cells from every row, seeded.

    ``global_mcar`` is an extension: the same total budget
    (``per_row_deletions * n_rows`` cells) drawn uniformly over the whole
    table instead of row by row.  Unlike the per-row protocol it may leave
    some rows entirely missing; those flow through the unresolved-cell
    machinery downstream.
    """

    per_row_deletions: int
    seed: int
    global_mcar: bool = False

    def __post_init__(self) -> None:
        if self.per_row_deletions < 0:
            raise ValueError(f"per_row_deletions must be >= 0, got {self.per_row_deletions}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class MaskingLedger:
    """Deleted cells and their true values, in deterministic order."""

    cells: tuple[tuple[int, int], ...]
    true_values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.true_values, dtype=float)
        if vals.shape != (len(self.cells),):
            raise ValueError("true_values must align with cells")
        vals.setflags(write=False)
        object.__setattr__(self, "true_values", vals)

    def __len__(self) -> int:
        return len(self.cells)


def mask_random(data: DataMatrix, plan: MaskingPlan) -> tuple[DataMatrix, MaskingLedger]:
    """Mask exactly ``d`` cells per row, uniform without replacement, seeded.

    The input must be complete.  Every row keeps at least one observed
    value because ``d < p`` is enforced.

    Under ``plan.global_mcar`` the same cell budget is drawn uniformly over
    the whole table instead; rows may then end up entirely missing, and a
    draw that empties a whole column fails loudly at construction.
    """
    if data.n_missing_cells:
        raise ValueError("mask_random requires a complete input matrix")
    d = plan.per_row_deletions
    p = data.n_cols
    if d >= p:
        raise ValueError(f"per_row_deletions={d} must be < number of columns ({p})")
    n = data.n_rows
    rng = np.random.default_rng(plan.seed)
    if plan.global_mcar:
        rows, cols = divmod(np.sort(rng.choice(n * p, size=d * n, replace=False)), p)
    else:
        rows = np.repeat(np.arange(n), d)
        cols = np.concatenate(
            [np.sort(rng.choice(p, size=d, replace=False)) for _ in range(n)]
        )
    new_mask = np.ones_like(data.mask)
    new_mask[rows, cols] = False
    cells = tuple(zip(rows.tolist(), cols.tolist()))
    return data.with_cells(data.values, new_mask), MaskingLedger(cells, data.values[rows, cols])


def _ledger_index(ledger: MaskingLedger) -> tuple[np.ndarray, np.ndarray]:
    """The ledger's cells as a (rows, cols) index pair."""
    return tuple(np.array(ledger.cells, dtype=int).reshape(-1, 2).T)


def rmse_deleted(ledger: MaskingLedger, report: ImputationReport) -> float:
    """Root mean squared error over deleted cells that the report filled.

    Unresolved cells are excluded (they carry no estimate); a ledger cell
    that is neither filled nor unresolved is an error.
    """
    if len(ledger) == 0:
        raise ValueError("empty ledger: no deleted cells to score")
    filled = report.filled
    in_fills = np.zeros(filled.values.shape, dtype=bool)
    in_fills[report.fills.rows, report.fills.cols] = True
    rows, cols = _ledger_index(ledger)
    used = filled.mask[rows, cols]
    stray = used & ~in_fills[rows, cols]
    if stray.any():
        i = int(np.flatnonzero(stray)[0])
        raise ValueError(f"deleted cell {ledger.cells[i]} is neither filled nor unresolved")
    if not used.any():
        raise ValueError("every deleted cell is unresolved; RMSE undefined")
    err = filled.values[rows[used], cols[used]] - ledger.true_values[used]
    # a running sum, in ledger order, not numpy's pairwise one
    return math.sqrt(np.cumsum(err * err)[-1] / err.size)


def count_unresolved_deleted(ledger: MaskingLedger, report: ImputationReport) -> int:
    """How many of the ledger's cells the report left unresolved."""
    return int((~report.filled.mask[_ledger_index(ledger)]).sum())


def mean_impute_baseline(data: DataMatrix) -> ImputationReport:
    """Fill every missing cell with its column's observed mean.

    The baseline the codebook method is judged against; on standardized data
    every filled value is 0 by construction.  No map is involved, so every
    cell's source is ``"column-mean"``.
    """
    rows, cols = np.nonzero(~data.mask)
    filled = _with_fills(data, rows, cols, np.nanmean(data.values, axis=0)[cols])
    return ImputationReport(filled, Fills(rows, cols, np.empty((data.n_rows, 0))))


@dataclass(frozen=True)
class EvalReport:
    """RMSE (standardized units) per deletion count, with the mean baseline."""

    d_values: tuple[int, ...]
    rmse_som: dict[int, float]
    rmse_mean_baseline: dict[int, float]
    n_cells: dict[int, int]
    n_unresolved: dict[int, int]
    rmse_by_repeat: dict[int, tuple[float, ...]] = field(default_factory=dict)
    baseline_by_repeat: dict[int, tuple[float, ...]] = field(default_factory=dict)


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _masked_arm(
    data: DataMatrix, d: int, rep: int, seed: int, global_mcar: bool
) -> tuple[DataMatrix, MaskingLedger]:
    """Arm ``(d, rep)`` of the deletion study up to training: the table
    masked and standardized, and the ledger of deleted cells with their
    truths standardized alike."""
    masked, ledger = mask_random(
        data, MaskingPlan(d, _derive_seed(seed, d, rep, 0), global_mcar=global_mcar)
    )
    params = fit_standardizer(masked)
    std_masked = standardize(masked, params)
    _, cols = _ledger_index(ledger)
    std_truth = (ledger.true_values - params.means[cols]) / params.stds[cols]
    return std_masked, MaskingLedger(ledger.cells, std_truth)


def deletion_curve(
    data: DataMatrix,
    d_range,
    topology: GridTopology,
    schedule: TrainingSchedule,
    n_maps: int = 1,
    n_repeats: int = 1,
    mode: TrainingMode = TrainingMode.INCLUDE_INCOMPLETE,
    global_mcar: bool = False,
) -> EvalReport:
    """For each d: delete d values per row, standardize what remains, train,
    impute, and score against the standardized truth; the column-mean
    baseline runs on the same masks.

    ``n_repeats`` independent mask/train arms are averaged per d.  Arm
    ``(d, repeat)`` masks with the seed ``SeedSequence([schedule.rng_seed,
    d, repeat, 0]).generate_state(1)[0]`` and trains ``n_maps`` maps with
    seeds ``s .. s + n_maps - 1``, ``s`` derived alike from ``(...,
    repeat, 1)``, so the whole curve is bit-reproducible.

    Every arm of every d is first masked, standardized and checked for an
    empty training pool, in ``(d, repeat)`` order; then all ``len(d_range) *
    n_repeats * n_maps`` maps train in one :func:`somimpute.trainer.train_maps`
    call, and each arm is imputed and scored in the same order.  An error
    names the arm it comes from as ``deletion arm d=..., repeat=...``.
    """
    if data.n_missing_cells:
        raise ValueError("deletion_curve requires a complete input matrix")
    if n_repeats < 1:
        raise ValueError(f"n_repeats must be >= 1, got {n_repeats}")
    if n_maps < 1:
        raise ValueError(f"n_maps must be >= 1, got {n_maps}")
    d_values = tuple(int(d) for d in d_range)
    if any(d < 1 for d in d_values):
        raise ValueError(
            f"every d in d_range must be >= 1 (d=0 deletes nothing), got {min(d_values)}"
        )
    if mode is TrainingMode.COMPLETE_ONLY and not global_mcar:
        raise ValueError(
            "mode=complete-only needs global_mcar: the per-row protocol deletes d >= 1 "
            "cells from every row, so no complete row is left to train on"
        )
    keys = [(d, rep) for d in d_values for rep in range(n_repeats)]
    arms = []
    for d, rep in keys:
        try:
            arms.append(_masked_arm(data, d, rep, schedule.rng_seed, global_mcar))
            _pool(arms[-1][0], mode)
        except ValueError as exc:
            raise ValueError(f"deletion arm d={d}, repeat={rep}: {exc}") from exc
    seeds = [tuple(_derive_seed(schedule.rng_seed, d, rep, 1) + j for j in range(n_maps))
             for d, rep in keys]
    codebooks = train_maps(
        [std for std, _ in arms for _ in range(n_maps)], topology,
        [replace(schedule, rng_seed=s) for arm in seeds for s in arm], mode)
    som: list[float] = []
    base: list[float] = []
    unres: list[int] = []
    for a, ((d, rep), (std_masked, ledger)) in enumerate(zip(keys, arms)):
        maps = codebooks[a * n_maps:(a + 1) * n_maps]
        try:
            if n_maps == 1:
                report = impute(maps[0], std_masked)
            else:
                report = impute_ensemble(maps, std_masked, seeds[a])
            som.append(rmse_deleted(ledger, report))
            base.append(rmse_deleted(ledger, mean_impute_baseline(std_masked)))
        except ValueError as exc:
            raise ValueError(f"deletion arm d={d}, repeat={rep}: {exc}") from exc
        unres.append(count_unresolved_deleted(ledger, report))
    per_d = {d: slice(j * n_repeats, (j + 1) * n_repeats) for j, d in enumerate(d_values)}
    return EvalReport(
        d_values,
        {d: float(np.mean(som[s])) for d, s in per_d.items()},
        {d: float(np.mean(base[s])) for d, s in per_d.items()},
        {d: sum(len(ledger) for _, ledger in arms[s]) for d, s in per_d.items()},
        {d: sum(unres[s]) for d, s in per_d.items()},
        {d: tuple(som[s]) for d, s in per_d.items()},
        {d: tuple(base[s]) for d, s in per_d.items()},
    )


def pairwise_correlation(data: DataMatrix) -> np.ndarray:
    """Pearson correlation per column pair over jointly observed rows.

    Pairs with fewer than two joint rows, or zero variance on the joint
    rows, are marked NaN (undefined); the diagonal is exactly 1.
    """
    p = data.n_cols
    out = np.full((p, p), np.nan)
    for j in range(p):
        out[j, j] = 1.0
        for k in range(j + 1, p):
            joint = data.mask[:, j] & data.mask[:, k]
            if joint.sum() < 2:
                continue
            xj = data.values[joint, j]
            xk = data.values[joint, k]
            cj = xj - xj.mean()
            ck = xk - xk.mean()
            denom = math.sqrt(float((cj**2).sum()) * float((ck**2).sum()))
            if denom == 0.0:
                continue
            r = float((cj * ck).sum()) / denom
            out[j, k] = out[k, j] = r
    return out


def modality_proportions(assignment: Assignment, data: DataMatrix) -> dict[int, dict[str, float]]:
    """Frequency of each modality among the rows assigned to each unit.

    Rows with a missing modality are excluded from their unit's denominator;
    empty units map to an empty table, never a division error.
    """
    if data.categorical is None:
        raise ValueError("data has no categorical column")
    if assignment.n_rows != data.n_rows:
        raise ValueError(
            f"assignment covers {assignment.n_rows} rows, data has {data.n_rows}"
        )
    counts: list[Counter[str]] = [Counter() for _ in range(assignment.n_units)]
    for u, modality in zip(assignment.units.tolist(), data.categorical):
        if u >= 0 and modality:  # neither unclassified rows nor missing modalities count
            counts[u][modality] += 1
    return {u: {m: c / table.total() for m, c in sorted(table.items())}
            for u, table in enumerate(counts)}
