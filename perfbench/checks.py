"""Checks of the program's outputs, computed apart from the program.

Every check reads the files an operation wrote and recomputes what they
should hold with numpy (and scipy for Ward linkage), never with somimpute.
A check returns a list of problems; an empty list means it passed.  The
``verify_*`` functions group the checks of one operation into a mapping
``{check name: problems}``.

Tolerances: winners may differ from the brute-force winner only where the
distances tie within ``REL_TOL`` relative; distances, estimates, dendrogram
heights and centroid means must match within ``REL_TOL`` relative (or
``ABS_TOL`` absolute near zero).  Observed cells must be bit-identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12
# cap on the problems kept per check, so a broken output stays readable
MAX_PROBLEMS = 5


@dataclass(frozen=True)
class Table:
    """A CSV table: row labels, numeric column names, values (NaN where
    missing) and the observed mask."""

    labels: tuple[str, ...]
    names: tuple[str, ...]
    values: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True)
class Model:
    """What ``model.txt`` holds that the checks need."""

    codes: np.ndarray
    means: np.ndarray
    stds: np.ndarray


def _rows(path) -> list[list[str]]:
    with Path(path).open(newline="") as fh:
        return list(csv.reader(fh))


def _dict_rows(path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def read_table(path) -> Table:
    """Label column first, then numeric columns; an empty field is missing."""
    rows = _rows(path)
    header, body = rows[0], rows[1:]
    p = len(header) - 1
    for line, row in enumerate(body, start=2):
        if len(row) != p + 1:
            raise ValueError(f"{path}: line {line} has {len(row)} fields, expected {p + 1}")
    cells = [row[1:] for row in body]
    mask = np.array([[c != "" for c in row] for row in cells], dtype=bool).reshape(-1, p)
    values = np.array(
        [[float(c) if c != "" else np.nan for c in row] for row in cells]
    ).reshape(-1, p)
    return Table(tuple(r[0] for r in body), tuple(header[1:]), values, mask)


def read_model(path) -> Model:
    lines = Path(path).read_text().splitlines()
    head = lines[0].split("\t")
    rows, cols, p = int(head[0]), int(head[1]), int(head[2])
    n_units = rows * cols
    codes = np.array([[float(v) for v in lines[1 + u].split("\t")] for u in range(n_units)])
    keyed = {}
    for line in lines[1 + n_units:]:
        key, *rest = line.split("\t")
        keyed[key] = rest
    means = np.array([float(v) for v in keyed["mean"]])
    stds = np.array([float(v) for v in keyed["std"]])
    if codes.shape != (n_units, p) or means.shape != (p,) or stds.shape != (p,):
        raise ValueError(f"{path}: model shapes disagree with its header")
    return Model(codes, means, stds)


def standardized(table: Table, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    return (table.values - means) / stds


def model_distances(table: Table, model: Model) -> np.ndarray:
    """Masked squared distances from every row, standardized as the model
    says, to every code vector."""
    return masked_distances(standardized(table, model.means, model.stds), table.mask, model.codes)


def masked_distances(x: np.ndarray, mask: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """(n_rows, n_units) squared distances over each row's observed cells."""
    x0 = np.where(mask, x, 0.0)
    out = np.empty((x.shape[0], codes.shape[0]))
    for lo in range(0, x.shape[0], 1024):
        hi = lo + 1024
        diff = codes[None, :, :] - x0[lo:hi, None, :]
        out[lo:hi] = (diff * diff * mask[lo:hi, None, :]).sum(axis=2)
    return out


def _close(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) <= np.maximum(REL_TOL * np.maximum(np.abs(a), np.abs(b)), ABS_TOL)


def _capped(problems: list[str]) -> list[str]:
    if len(problems) <= MAX_PROBLEMS:
        return problems
    return problems[:MAX_PROBLEMS] + [f"... {len(problems) - MAX_PROBLEMS} more"]


def _tied_winners(dist: np.ndarray, rows: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Whether ``units[j]`` ties the smallest distance of row ``rows[j]``;
    a unit outside the map never does."""
    best = dist[rows].min(axis=1)
    inside = (units >= 0) & (units < dist.shape[1])
    got = dist[rows, np.where(inside, units, 0)]
    return inside & (got <= best + np.maximum(REL_TOL * best, ABS_TOL))


# ---------------------------------------------------------------- checks


def check_winners(units, sq_distances, dist: np.ndarray) -> list[str]:
    """Each row's unit is a brute-force masked winner (ties within REL_TOL)
    and its reported squared distance matches the recomputed one.

    ``dist`` is :func:`model_distances` of the input.
    """
    units = np.asarray(units, dtype=int)
    rows = np.arange(dist.shape[0])
    tied = _tied_winners(dist, rows, units)
    problems = [f"row {i}: unit {units[i]} is not a brute-force winner, "
                f"unit {int(dist[i].argmin())} is, at {float(dist[i].min())!r}"
                for i in np.flatnonzero(~tied)]
    got = np.where(tied, dist[rows, np.where(tied, units, 0)], np.nan)
    off = tied & ~_close(sq_distances, got)
    problems += [f"row {i}: sq_distance {float(sq_distances[i])!r}, recomputed {float(got[i])!r}"
                 for i in np.flatnonzero(off)]
    return _capped(problems)


def _partition(labels) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for unit, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(unit)
    return {frozenset(g) for g in groups.values()}


def _merge_members(merges, n_leaves) -> list[tuple[frozenset, frozenset]]:
    """Leaf sets (left, right) joined at each step of a scipy-style merge list."""
    members = {u: frozenset([u]) for u in range(n_leaves)}
    out = []
    for step, (left, right) in enumerate(merges):
        if left not in members or right not in members:
            raise ValueError(f"step {step} joins cluster {left} or {right} before it exists")
        a, b = members.pop(left), members.pop(right)
        members[n_leaves + step] = a | b
        out.append((a, b))
    return out


def check_ward(codes: np.ndarray, unit_labels, dendrogram: np.ndarray, k: int) -> list[str]:
    """The k-cut equals scipy's Ward partition, and every merge joins the
    same leaf sets as scipy's at a height of ``Z[:, 2]**2 / 2``.

    ``dendrogram`` holds rows (left, right, height) in step order.
    """
    from scipy.cluster.hierarchy import fcluster, linkage

    n = codes.shape[0]
    z = linkage(codes, "ward")
    problems = []
    want = _partition(fcluster(z, k, criterion="maxclust"))
    got = _partition(unit_labels)
    if got != want:
        problems.append(f"cut at k={k} is {sorted(map(sorted, got))}, scipy gives "
                        f"{sorted(map(sorted, want))}")
    if dendrogram.shape != (n - 1, 3):
        return problems + [f"dendrogram has shape {dendrogram.shape}, expected ({n - 1}, 3)"]
    try:
        got_merges = _merge_members(dendrogram[:, :2].astype(int).tolist(), n)
    except ValueError as exc:
        return problems + [f"dendrogram: {exc}"]
    want_merges = _merge_members(z[:, :2].astype(int).tolist(), n)
    heights = z[:, 2] ** 2 / 2
    for step in range(n - 1):
        if {*got_merges[step]} != {*want_merges[step]}:
            problems.append(f"step {step} joins {sorted(map(sorted, got_merges[step]))}, "
                            f"scipy joins {sorted(map(sorted, want_merges[step]))}")
        elif not _close(dendrogram[step, 2], heights[step]):
            problems.append(f"step {step} height {dendrogram[step, 2]!r}, "
                            f"scipy gives {heights[step]!r}")
    return _capped(problems)


def check_observed_unchanged(table: Table, out_values: np.ndarray) -> list[str]:
    """Cells observed in the input are bit-identical in the output."""
    obs = table.mask
    changed = obs & (out_values != table.values)
    n_bad = int(changed.sum())
    if not n_bad:
        return []
    rows, cols = np.nonzero(changed)
    rel = np.abs(out_values[changed] - table.values[changed]) / np.abs(table.values[changed])
    problems = [f"{n_bad} of {int(obs.sum())} observed cells changed, "
                f"largest relative change {float(rel.max()):.3g}"]
    problems += [f"row {i} col {k}: {float(table.values[i, k])!r} became "
                 f"{float(out_values[i, k])!r}"
                 for i, k in zip(rows[:MAX_PROBLEMS], cols[:MAX_PROBLEMS])]
    return problems


def check_in_range(table: Table, out_values: np.ndarray) -> list[str]:
    """Every filled cell lies within its column's observed range."""
    lo = np.nanmin(table.values, axis=0)
    hi = np.nanmax(table.values, axis=0)
    slack = REL_TOL * (hi - lo)
    filled = ~table.mask
    outside = filled & ((out_values < lo - slack) | (out_values > hi + slack) | np.isnan(out_values))
    rows, cols = np.nonzero(outside)
    problems = [f"row {i} col {k}: {float(out_values[i, k])!r} outside "
                f"[{float(lo[k])!r}, {float(hi[k])!r}]" for i, k in zip(rows, cols)]
    return _capped(problems)


def check_rmse_below_baseline(truth: np.ndarray, table: Table, out_values: np.ndarray,
                              means: np.ndarray, stds: np.ndarray) -> tuple[list[str], float, float]:
    """RMSE of the filled cells against the true values, in standardized
    units, is below that of the column-mean fill.  Returns the two RMSEs."""
    filled = ~table.mask
    cols = np.nonzero(filled)[1]
    err = (out_values[filled] - truth[filled]) / stds[cols]
    base = (means[cols] - truth[filled]) / stds[cols]
    rmse = float(np.sqrt(np.mean(err * err)))
    rmse_base = float(np.sqrt(np.mean(base * base)))
    problems = [] if rmse < rmse_base else [f"rmse {rmse:.4g} is not below the column-mean "
                                             f"baseline {rmse_base:.4g}"]
    return problems, rmse, rmse_base


def check_eval_table(rows: list[dict], n_rows: int, repeats: int, d_max: int) -> list[str]:
    """d = 1..d_max, n_cells = d * n_rows * repeats, nothing unresolved and
    the map beating the column-mean baseline at every d."""
    problems = []
    ds = [int(r["d"]) for r in rows]
    if ds != list(range(1, d_max + 1)):
        problems.append(f"d values {ds}, expected 1..{d_max}")
    for r in rows:
        d = int(r["d"])
        if int(r["n_cells"]) != d * n_rows * repeats:
            problems.append(f"d={d}: n_cells {r['n_cells']}, expected {d * n_rows * repeats}")
        if int(r["n_unresolved"]) != 0:
            problems.append(f"d={d}: {r['n_unresolved']} unresolved cells")
        if not float(r["rmse_som"]) < float(r["rmse_mean"]):
            problems.append(f"d={d}: rmse_som {r['rmse_som']} not below rmse_mean {r['rmse_mean']}")
    return _capped(problems)


def check_forgy(x: np.ndarray, mask: np.ndarray, cents: np.ndarray, units, history,
                converged: bool) -> list[str]:
    """Converged to an assignment fixpoint: distortion never increases (within
    ``REL_TOL`` of the first value, for rounding), each row sits at a
    brute-force nearest centroid, and each centroid component its members
    observe is their observed mean."""
    units = np.asarray(units, dtype=int)
    history = np.asarray(history, dtype=float)
    problems = []
    if not converged:
        problems.append("did not converge")
    rises = np.flatnonzero(np.diff(history) > REL_TOL * abs(history[0]))
    problems += [f"distortion rose at round {int(t) + 1}: {history[t]!r} -> {history[t + 1]!r}"
                 for t in rises]
    dist = masked_distances(x, mask, cents)
    far = ~_tied_winners(dist, np.arange(x.shape[0]), units)
    problems += [f"row {i}: centroid {units[i]} is not the nearest ({int(dist[i].argmin())})"
                 for i in np.flatnonzero(far)]
    x0 = np.where(mask, x, 0.0)
    for c in range(cents.shape[0]):
        members = units == c
        counts = mask[members].sum(axis=0)
        seen = counts > 0
        means = x0[members].sum(axis=0)[seen] / counts[seen]
        off = np.flatnonzero(~_close(cents[c, seen], means))
        cols = np.flatnonzero(seen)[off]
        problems += [f"centroid {c} component {k}: {float(cents[c, k])!r}, members' mean "
                     f"{float(means[j])!r}" for j, k in zip(off, cols)]
    return _capped(problems)


# --------------------------------------------------------- per operation


def _assignments(path) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    rows = _dict_rows(path)
    units = np.array([int(r["unit"]) if r["status"] == "ok" else -1 for r in rows])
    dists = np.array([float(r["sq_distance"]) if r["status"] == "ok" else np.nan for r in rows])
    return units, dists, rows


def verify_assignments(out_dir, table: Table, dist: np.ndarray) -> dict[str, list[str]]:
    """``dist`` is :func:`model_distances` of ``table`` under the model."""
    units, dists, rows = _assignments(Path(out_dir) / "assignments.csv")
    if tuple(r["label"] for r in rows) != table.labels:
        return {"winners_brute_force": ["assignment labels differ from the input rows"]}
    return {"winners_brute_force": check_winners(units, dists, dist)}


def verify_train(out_dir, table: Table, model: Model, dist: np.ndarray, k: int) -> dict[str, list[str]]:
    """``model`` is the one train wrote, ``dist`` its :func:`model_distances`."""
    out_dir = Path(out_dir)
    result = verify_assignments(out_dir, table, dist)
    sc = {int(r["unit"]): int(r["superclass"]) for r in _dict_rows(out_dir / "superclasses.csv")}
    dendro = np.array([[float(r["left"]), float(r["right"]), float(r["height"])]
                       for r in _dict_rows(out_dir / "dendrogram.csv")])
    labels = [sc[u] for u in range(len(model.codes))]
    problems = check_ward(model.codes, labels, dendro.reshape(-1, 3), k)
    wrong = [r["label"] for r in _dict_rows(out_dir / "assignments.csv")
             if r["status"] == "ok" and int(r["superclass"]) != sc[int(r["unit"])]]
    if wrong:
        problems.append(f"{len(wrong)} rows carry another super-class than their unit, "
                        f"first {wrong[0]}")
    result["superclass_ward"] = problems
    return result


def _fill_cells(prov: list[dict], table: Table) -> tuple[list[str], dict]:
    """Map each provenance line to its cell and check that the lines cover
    exactly the input's missing cells."""
    row_of = {lab: i for i, lab in enumerate(table.labels)}
    col_of = {name: k for k, name in enumerate(table.names)}
    cells = {}
    for line in prov:
        cells[(row_of[line["label"]], col_of[line["column"]])] = line
    missing = {(int(i), int(k)) for i, k in zip(*np.nonzero(~table.mask))}
    problems = []
    if len(cells) != len(prov):
        problems.append(f"{len(prov) - len(cells)} cells listed twice in provenance.csv")
    if set(cells) != missing:
        problems.append(f"provenance.csv covers {len(cells)} cells, the input misses "
                        f"{len(missing)}, {len(set(cells) ^ missing)} differ")
    return problems, cells


def _imputed(out_dir, table: Table) -> tuple[Table, list[dict], dict[str, list[str]]]:
    """imputed.csv, provenance.csv, and the checks on the filled table's
    layout and observed cells."""
    out = read_table(Path(out_dir) / "imputed.csv")
    layout = []
    if (out.labels, out.names) != (table.labels, table.names):
        layout.append("imputed.csv rows or columns differ from the input's")
    elif not out.mask.all():
        layout.append(f"{int((~out.mask).sum())} cells left empty in imputed.csv")
    result = {"imputed_layout": layout,
              "observed_cells_unchanged": [] if layout else
              check_observed_unchanged(table, out.values)}
    return out, _dict_rows(Path(out_dir) / "provenance.csv"), result


def verify_impute_model(out_dir, table: Table, model: Model, dist: np.ndarray, truth: np.ndarray):
    """``dist`` is :func:`model_distances` of ``table`` under ``model``."""
    out, prov, result = _imputed(out_dir, table)
    problems, cells = _fill_cells(prov, table)
    problems += [f"{line['label']} {line['column']}: source {line['source']!r}"
                 for line in prov if line["source"] != "codebook"]
    keys = sorted(cells)
    rows = np.array([i for i, _ in keys], dtype=int)
    cols = np.array([k for _, k in keys], dtype=int)
    units = np.array([int(cells[c]["units"]) if cells[c]["units"].isdigit() else -1
                      for c in keys], dtype=int)
    estimates = np.array([float(cells[c]["estimate"] or "nan") for c in keys])
    tied = _tied_winners(dist, rows, units)
    problems += [f"row {rows[j]}: unit {units[j]} is not a brute-force winner "
                 f"({int(dist[rows[j]].argmin())})" for j in np.flatnonzero(~tied)]
    want = model.codes[np.where(tied, units, 0), cols] * model.stds[cols] + model.means[cols]
    got = out.values[rows, cols]
    off = tied & ~(_close(got, want) & _close(estimates, want))
    problems += [f"row {rows[j]} col {cols[j]}: {float(got[j])!r}, winner {units[j]} gives "
                 f"{float(want[j])!r}" for j in np.flatnonzero(off)]
    result["fills_equal_winner"] = _capped(problems)
    result["fills_within_range"] = check_in_range(table, out.values)
    rmse_problems, rmse, base = check_rmse_below_baseline(truth, table, out.values,
                                                          model.means, model.stds)
    result["rmse_below_baseline"] = rmse_problems
    return result, {"rmse": rmse, "rmse_baseline": base}


def verify_impute_maps(out_dir, table: Table, truth: np.ndarray, n_maps: int, base_seed: int):
    out, prov, result = _imputed(out_dir, table)
    problems, _ = _fill_cells(prov, table)
    seeds = ";".join(str(base_seed + j) for j in range(n_maps))
    bad = [line for line in prov if line["seeds"] != seeds or line["source"] != "codebook"
           or len(line["units"].split(";")) != n_maps]
    problems += [f"{line['label']} {line['column']}: units {line['units']!r}, seeds "
                 f"{line['seeds']!r}, expected {n_maps} units and seeds {seeds!r}"
                 for line in bad]
    result["ensemble_provenance"] = _capped(problems)
    result["fills_within_range"] = check_in_range(table, out.values)
    means = np.nanmean(table.values, axis=0)
    stds = np.nanstd(table.values, axis=0)
    rmse_problems, rmse, base = check_rmse_below_baseline(truth, table, out.values, means, stds)
    result["rmse_below_baseline"] = rmse_problems
    return result, {"rmse": rmse, "rmse_baseline": base}


def verify_evaluate(out_dir, n_rows: int, repeats: int, d_max: int) -> dict[str, list[str]]:
    out_dir = Path(out_dir)
    problems = check_eval_table(_dict_rows(out_dir / "eval.csv"), n_rows, repeats, d_max)
    svg = out_dir / "curve.svg"
    if not svg.is_file() or "<svg" not in svg.read_text():
        problems.append("curve.svg missing or not an SVG")
    return {"eval_table": problems}


def verify_forgy(out_dir, table: Table) -> dict[str, list[str]]:
    """The library call's saved result against the table standardized over
    its observed cells (population std)."""
    out_dir = Path(out_dir)
    x = standardized(table, np.nanmean(table.values, axis=0), np.nanstd(table.values, axis=0))
    meta = (out_dir / "meta.txt").read_text().split()
    problems = check_forgy(x, table.mask, np.load(out_dir / "centroids.npy"),
                           np.load(out_dir / "units.npy"), np.load(out_dir / "history.npy"),
                           converged=meta[1] == "True")
    return {"forgy_fixpoint": problems}
