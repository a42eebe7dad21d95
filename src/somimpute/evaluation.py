"""Deletion experiment: mask known values, impute them back, measure error.

Also provides the column-mean baseline, the pairwise-complete correlation
diagnostic for heavily holed tables, and per-unit modality frequencies for
overlaying a categorical variable on the map.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .data import DataMatrix, fit_standardizer, standardize
from .imputation import Fills, ImputationReport, apply_column_mean_fallback, impute, impute_ensemble
from .imputation import impute_multi  # unused here; perfbench/tracing.py wraps it
from .metric import Assignment
from .topology import GridTopology
from .trainer import TrainingMode, TrainingSchedule, _pool, train_maps
from .trainer import train  # unused here; perfbench/tracing.py wraps it


@dataclass(frozen=True)
class MaskingLedger:
    """Deleted cells and their true values, in deterministic order: cell
    ``j`` is ``(rows[j], cols[j])`` and held ``true_values[j]``."""

    rows: np.ndarray
    cols: np.ndarray
    true_values: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.rows, dtype=int)
        cols = np.array(self.cols, dtype=int)
        vals = np.array(self.true_values, dtype=float)
        if rows.ndim != 1 or cols.shape != rows.shape or vals.shape != rows.shape:
            raise ValueError("rows, cols and true_values must be 1-D arrays of equal length")
        for name, a in (("rows", rows), ("cols", cols), ("true_values", vals)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.rows.size


def mask_random(
    data: DataMatrix, d: int, seed: int, global_mcar: bool = False
) -> tuple[DataMatrix, MaskingLedger]:
    """Mask exactly ``d`` cells per row, uniform without replacement, drawn
    from ``default_rng(seed)``.

    The input must be complete.  Every row keeps at least one observed
    value because ``d < p`` is enforced.

    ``global_mcar`` is an extension: the same budget of ``d * n_rows`` cells
    is drawn uniformly over the whole table instead of row by row.  Rows may
    then end up entirely missing, and flow through the unresolved-cell
    machinery downstream; a draw that empties a whole column fails loudly
    at construction.
    """
    if d < 0:
        raise ValueError(f"per_row_deletions must be >= 0, got {d}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if data.n_missing_cells:
        raise ValueError("mask_random requires a complete input matrix")
    p = data.n_cols
    if d >= p:
        raise ValueError(f"per_row_deletions={d} must be < number of columns ({p})")
    n = data.n_rows
    rng = np.random.default_rng(seed)
    if global_mcar:
        rows, cols = divmod(np.sort(rng.choice(n * p, size=d * n, replace=False)), p)
    else:
        rows = np.repeat(np.arange(n), d)
        cols = np.concatenate(
            [np.sort(rng.choice(p, size=d, replace=False)) for _ in range(n)]
        )
    new_mask = np.ones_like(data.mask)
    new_mask[rows, cols] = False
    ledger = MaskingLedger(rows, cols, data.values[rows, cols])
    return data.with_cells(data.values, new_mask), ledger


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
    rows, cols = ledger.rows, ledger.cols
    used = filled.mask[rows, cols]
    stray = used & ~in_fills[rows, cols]
    if stray.any():
        i = int(np.flatnonzero(stray)[0])
        raise ValueError(f"deleted cell ({rows[i]}, {cols[i]}) is neither filled nor unresolved")
    if not used.any():
        raise ValueError("every deleted cell is unresolved; RMSE undefined")
    err = filled.values[rows[used], cols[used]] - ledger.true_values[used]
    # a running sum, in ledger order, not numpy's pairwise one
    return math.sqrt(np.cumsum(err * err)[-1] / err.size)


def count_unresolved_deleted(ledger: MaskingLedger, report: ImputationReport) -> int:
    """How many of the ledger's cells the report left unresolved."""
    return int((~report.filled.mask[ledger.rows, ledger.cols]).sum())


def mean_impute_baseline(data: DataMatrix) -> ImputationReport:
    """Fill every missing cell with its column's observed mean.

    The baseline the codebook method is judged against; on standardized data
    every filled value is 0 by construction.  No map is involved, so every
    cell's source is ``"column-mean"``.
    """
    nothing = ImputationReport(data, Fills((), (), np.empty((data.n_rows, 0))))
    return apply_column_mean_fallback(nothing)


@dataclass(frozen=True)
class EvalReport:
    """RMSE (standardized units) per deletion count, with the mean baseline."""

    d_values: tuple[int, ...]
    rmse_som: dict[int, float]
    rmse_mean_baseline: dict[int, float]
    n_cells: dict[int, int]
    n_unresolved: dict[int, int]
    rmse_by_repeat: dict[int, tuple[float, ...]]
    baseline_by_repeat: dict[int, tuple[float, ...]]


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _masked_arm(
    data: DataMatrix, d: int, rep: int, seed: int, global_mcar: bool
) -> tuple[DataMatrix, MaskingLedger]:
    """Arm ``(d, rep)`` of the deletion study up to training: the table
    masked and standardized, and the ledger of deleted cells with their
    truths standardized alike."""
    masked, ledger = mask_random(data, d, _derive_seed(seed, d, rep, 0), global_mcar)
    params = fit_standardizer(masked)
    m, s = params.means[ledger.cols], params.stds[ledger.cols]
    return standardize(masked, params), replace(ledger, true_values=(ledger.true_values - m) / s)


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
    codebooks = train_maps([std for std, _ in arms for _ in range(n_maps)], topology, schedule,
                           [s for arm in seeds for s in arm], mode)
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

    Rows with a missing modality (``None``) are excluded from their unit's
    denominator, while ``""`` counts like any other modality; empty units map
    to an empty table, never a division error.
    """
    if data.categorical is None:
        raise ValueError("data has no categorical column")
    if assignment.n_rows != data.n_rows:
        raise ValueError(
            f"assignment covers {assignment.n_rows} rows, data has {data.n_rows}"
        )
    counts: list[Counter[str]] = [Counter() for _ in range(assignment.n_units)]
    for u, modality in zip(assignment.units.tolist(), data.categorical):
        if u >= 0 and modality is not None:  # skip unclassified rows, missing modalities
            counts[u][modality] += 1
    return {u: {m: c / table.total() for m, c in sorted(table.items())}
            for u, table in enumerate(counts)}
