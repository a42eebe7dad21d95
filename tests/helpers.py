"""Shared independent oracles for the test suite.

Everything here is deliberately naive (loops, enumeration) so it cannot
share a bug with the vectorized implementations it checks.
"""

from __future__ import annotations

import csv
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from somimpute.metric import UNCLASSIFIABLE
from somimpute.model_io import DEFAULT_MISSING_MARKERS, _refuse_changed_text


def estimate(report, row: int, col: int) -> float:
    """The report's estimate for cell ``(row, col)``, which must be one of
    its filled cells."""
    f = report.fills
    assert ((f.rows == row) & (f.cols == col)).any(), f"cell ({row}, {col}) was not filled"
    return float(report.filled.values[row, col])


def brute_masked_sq_distance(x, observed, code) -> float:
    """Explicit loop over observed components, ascending index order."""
    total = 0.0
    for k in range(len(x)):
        if observed[k]:
            d = x[k] - code[k]
            total += d * d
    return total


def brute_winner(x, observed, codes) -> int:
    """Argmin of the loop-based distance, lowest index on ties."""
    best, best_u = None, None
    for u in range(codes.shape[0]):
        d = brute_masked_sq_distance(x, observed, codes[u])
        if best is None or d < best:
            best, best_u = d, u
    return best_u


def brute_grid_distance(cols, u, v) -> int:
    """Chebyshev distance between units ``u`` and ``v`` of a grid ``cols``
    units wide, from their row-major ``divmod`` coordinates."""
    ur, uc = divmod(u, cols)
    vr, vc = divmod(v, cols)
    return max(abs(ur - vr), abs(uc - vc))


def brute_neighbors(rows, cols, u, radius) -> list[int]:
    """Units within ``radius`` of ``u`` (inclusive), ascending, by
    enumerating every unit of the grid."""
    return [v for v in range(rows * cols) if brute_grid_distance(cols, u, v) <= radius]


def alpha_at(schedule, t: int) -> float:
    """The learning rate of step ``t``, one scalar at a time."""
    if schedule.total_iters == 1:
        return schedule.alpha0
    frac = t / (schedule.total_iters - 1)
    return schedule.alpha0 + (schedule.alpha_final - schedule.alpha0) * frac


def radius_at(schedule, t: int) -> int:
    """The neighbourhood radius of step ``t``, one scalar at a time."""
    d = schedule.decay_iters
    if t >= d:
        return 0
    # ceil(radius0 * (d - t) / d) in exact integer arithmetic
    num = schedule.radius0 * (d - t)
    return (num + d - 1) // d


def reference_standardized(values, means, stds):
    """Standardized cells as one expression, ``(x - m) / s``."""
    return (values - means) / stds


def reference_destandardized(values, means, stds):
    """Destandardized cells as one expression, ``x * s + m``."""
    return values * stds + means


def reference_destandardized_report(values, mask, filled, means, stds):
    """The filled table in the units of the input: its observed cells
    ``values[mask]`` verbatim, every other cell of ``filled`` (standardized)
    destandardized."""
    return np.where(mask, values, filled * stds + means)


def reference_train_codes(data, topology, schedule, complete_only=False):
    """Final codes of online training, one plain step at a time.

    Follows the documented protocol: initial codes from one
    ``(n_units, p)`` uniform draw over the observed column ranges, then one
    scalar row draw per step from the same stream.  Each step gathers the
    row's observed components from every code, takes the winner by their
    summed squared difference, and scatters the update into the winner and
    every unit within the step's radius.
    """
    values, mask = data.values, data.mask
    pool = np.flatnonzero(mask.all(axis=1) if complete_only else mask.any(axis=1))
    rng = np.random.default_rng(schedule.rng_seed)
    lo, hi = np.nanmin(values, axis=0), np.nanmax(values, axis=0)
    codes = rng.uniform(lo, hi, size=(topology.n_units, values.shape[1]))
    cheb = topology.distance_matrix()
    for t in range(schedule.total_iters):
        i = pool[rng.integers(pool.size)]
        obs_idx = np.flatnonzero(mask[i])
        x_obs = values[i, obs_idx]
        w = np.argmin(((codes[:, obs_idx] - x_obs) ** 2).sum(axis=1))
        nb = np.flatnonzero(cheb[w] <= radius_at(schedule, t))[:, None]
        block = codes[nb, obs_idx]
        codes[nb, obs_idx] = block + alpha_at(schedule, t) * (x_obs - block)
    return codes


def reference_ward_dendrogram(points: np.ndarray) -> list[tuple[int, int, float]]:
    """Full agglomerative merge sequence of ``points`` under Ward cost.

    Returns ``len(points) - 1`` merges ``(left_id, right_id, height)`` where
    ids follow the scipy convention and left/right are ordered by smallest
    member index.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a nonempty 2-D array")
    m = pts.shape[0]
    ids = list(range(m))
    sizes = np.ones(m)
    means = pts.copy()
    min_member = list(range(m))
    merges: list[tuple[int, int, float]] = []
    next_id = m
    active = list(range(m))  # indices into ids/sizes/means rows

    while len(active) > 1:
        sub_sizes = sizes[active]
        sub_means = means[active]
        diff = sub_means[:, None, :] - sub_means[None, :, :]
        sq = (diff**2).sum(axis=-1)
        weight = sub_sizes[:, None] * sub_sizes[None, :] / (sub_sizes[:, None] + sub_sizes[None, :])
        cost = weight * sq
        np.fill_diagonal(cost, np.inf)
        cmin = cost.min()
        tie_i, tie_j = np.nonzero(cost == cmin)
        best = None
        for a, b in zip(tie_i.tolist(), tie_j.tolist()):
            if a >= b:
                continue
            ia, ib = active[a], active[b]
            key = tuple(sorted((min_member[ia], min_member[ib])))
            if best is None or key < best[0]:
                best = (key, a, b)
        _, a, b = best
        ia, ib = active[a], active[b]
        left, right = (ia, ib) if min_member[ia] <= min_member[ib] else (ib, ia)
        merges.append((ids[left], ids[right], float(cmin)))
        # merged cluster replaces the left slot, right slot retires
        total = sizes[ia] + sizes[ib]
        means[ia] = (sizes[ia] * means[ia] + sizes[ib] * means[ib]) / total
        sizes[ia] = total
        min_member[ia] = min(min_member[ia], min_member[ib])
        ids[ia] = next_id
        next_id += 1
        active.remove(ib)
    return merges


def set_partitions(items):
    """All partitions of ``items`` into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def within_class_ss(points, blocks) -> float:
    """Total within-class sum of squares of a partition."""
    total = 0.0
    for b in blocks:
        pts = points[list(b)]
        mu = pts.mean(axis=0)
        total += float(((pts - mu) ** 2).sum())
    return total


def best_partition_at_k(points, k):
    """Globally optimal k-partition by enumeration, plus the optimality margin.

    Returns (partition as set of frozensets, margin to the second-best ESS);
    margin is None when only one k-partition exists.
    """
    n = points.shape[0]
    best, second, best_part = None, None, None
    for part in set_partitions(range(n)):
        if len(part) != k:
            continue
        e = within_class_ss(points, part)
        if best is None or e < best:
            second = best
            best, best_part = e, part
        elif second is None or e < second:
            second = e
    margin = None if second is None else second - best
    return {frozenset(b) for b in best_part}, margin


def labels_to_partition(labels) -> set[frozenset]:
    labels = np.asarray(labels)
    return {
        frozenset(np.flatnonzero(labels == lab).tolist())
        for lab in np.unique(labels)
    }


def naive_pearson(x, y) -> float:
    """Textbook Pearson correlation, plain Python accumulation."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = sum((a - mx) ** 2 for a in x)
    dy = sum((b - my) ** 2 for b in y)
    return num / (dx * dy) ** 0.5


def _reference_csv(path, header, rows) -> None:
    """``header`` then ``rows`` through one ``csv.writer`` whose lines end in
    ``\\r\\n`` (so a field holding ``\\r`` or ``\\n`` is quoted), each ending then
    cut back to ``\\n``."""
    lines = []
    w = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    w.writerow(header)
    w.writerows(rows)
    Path(path).write_text("".join(line[:-2] + "\n" for line in lines), encoding="utf-8",
                          newline="")


def _fmt17(x) -> str:
    return format(float(x), ".17g")


def reference_write_csv(data, path, markers=DEFAULT_MISSING_MARKERS) -> None:
    """``model_io.write_csv``, one ``csv.writer`` row of str fields per table row."""
    header = ["label"]
    if data.categorical is not None:
        header.append(data.categorical_name or "category")
    header.extend(data.col_names)
    _refuse_changed_text(header, data.row_labels, data.categorical, set(markers))
    rows = []
    for i in range(data.n_rows):
        row = [data.row_labels[i]]
        if data.categorical is not None:
            cat = data.categorical[i]
            row.append(markers[0] if cat is None else cat)
        for k in range(data.n_cols):
            row.append(_fmt17(data.values[i, k]) if data.mask[i, k] else markers[0])
        rows.append(row)
    _reference_csv(path, header, rows)


def reference_write_assignment_csv(path, row_labels, assignment, topology,
                                   superclass_labels=None, supplementary=None) -> None:
    """``model_io.write_assignment_csv``, one ``csv.writer`` row per table row."""
    header = ["label", "unit", "grid_row", "grid_col", "sq_distance", "status"]
    if superclass_labels is not None:
        header.append("superclass")
    if supplementary is not None:
        header.append("supplementary")
    rows = []
    for i in range(assignment.n_rows):
        u = int(assignment.units[i])
        if u == UNCLASSIFIABLE:
            row = [row_labels[i], "", "", "", "", "unclassifiable"]
        else:
            row = [row_labels[i], str(u), str(u // topology.cols), str(u % topology.cols),
                   _fmt17(assignment.sq_distances[i]), "ok"]
        if superclass_labels is not None:
            s = int(superclass_labels[i])
            row.append("" if s < 0 else str(s))
        if supplementary is not None:
            row.append("yes" if supplementary[i] else "no")
        rows.append(row)
    _reference_csv(path, header, rows)


def reference_write_provenance_csv(path, report, row_labels, col_names) -> None:
    """``model_io.write_provenance_csv``, one ``csv.writer`` row per filled
    cell, then one per unresolved cell."""
    f = report.fills
    rows = []
    for i, k in zip(f.rows.tolist(), f.cols.tolist()):
        winners = f.winners[i].tolist()
        from_map = any(w >= 0 for w in winners)
        rows.append([
            row_labels[i], col_names[k], _fmt17(report.filled.values[i, k]),
            ";".join(map(str, winners)) if from_map else "",
            ";".join(map(str, f.seeds)) if from_map else "",
            "codebook" if from_map else "column-mean",
        ])
    for i, k in report.unresolved:
        rows.append([row_labels[i], col_names[k], "", "", "", "unresolved"])
    _reference_csv(path, ["label", "column", "estimate", "units", "seeds", "source"], rows)
