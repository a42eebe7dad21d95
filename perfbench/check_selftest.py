"""Tests of the benchmark's output checks: each accepts what the program
writes today (apart from the known observed-cell fault) and rejects a
deliberately corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench/check_selftest.py

The file is named so that the repository's own test run does not collect it.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import op  # noqa: E402
from inputs import holed_table, table_csv  # noqa: E402
from run import KNOWN_FAULTS  # noqa: E402
from somimpute.cli import main as cli_main  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Small versions of the three workloads, run through the real CLI."""
    d = tmp_path_factory.mktemp("bench")
    truth, mask = holed_table(300, 6, 3, SEED)
    (d / "table.csv").write_text(table_csv(truth, mask))
    complete, _ = holed_table(24, 11, 0, SEED)
    (d / "complete.csv").write_text(table_csv(complete, np.ones_like(complete, dtype=bool)))
    t, m = str(d / "table.csv"), str(d / "train" / "model.txt")
    for argv in (
        ["train", "--input", t, "--output-dir", str(d / "train"), "--grid-rows", "4",
         "--grid-cols", "4", "--iters", "3000", "--seed", str(SEED), "--superclasses", "3"],
        ["classify", "--input", t, "--output-dir", str(d / "classify"), "--model", m],
        ["impute", "--input", t, "--output-dir", str(d / "impute"), "--model", m],
        ["impute", "--input", t, "--output-dir", str(d / "maps"), "--n-maps", "3",
         "--mode", "complete-only", "--grid-rows", "3", "--grid-cols", "3",
         "--iters", "2000", "--seed", str(SEED)],
        ["evaluate", "--input", str(d / "complete.csv"), "--output-dir", str(d / "eval"),
         "--grid-rows", "3", "--grid-cols", "3", "--iters", "1000", "--d-min", "1",
         "--d-max", "5", "--repeats", "2", "--seed", str(SEED)],
    ):
        assert cli_main(argv) == 0, argv
    assert op.main(["forgy", "--input", t, "--classes", "5", "--seed", str(SEED),
                    "--out", str(d / "forgy")]) == 0
    table = checks.read_table(d / "table.csv")
    model = checks.read_model(m)
    return {"dir": d, "table": table, "truth": truth, "model": model,
            "dist": checks.model_distances(table, model)}


def _failures(results: dict) -> set[str]:
    return {name for name, problems in results.items() if problems}


def _write_rows(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_checks_accept_todays_outputs(run):
    d, table, model, dist = run["dir"], run["table"], run["model"], run["dist"]
    results = {
        **checks.verify_train(d / "train", table, model, dist, k=3),
        **checks.verify_assignments(d / "classify", table, dist),
        **checks.verify_impute_model(d / "impute", table, model, dist, run["truth"])[0],
        **checks.verify_evaluate(d / "eval", n_rows=24, repeats=2, d_max=5),
        **checks.verify_forgy(d / "forgy", table),
    }
    maps, _ = checks.verify_impute_maps(d / "maps", table, run["truth"], n_maps=3,
                                        base_seed=SEED)
    assert _failures(results) <= KNOWN_FAULTS, results
    assert _failures(maps) <= KNOWN_FAULTS, maps


def test_moved_winner_rejected(run, tmp_path):
    rows = _read_rows(run["dir"] / "classify" / "assignments.csv")
    i = 7
    far = int(run["dist"][i].argmax())
    rows[i]["unit"] = str(far)
    _write_rows(tmp_path / "assignments.csv", rows)
    problems = checks.verify_assignments(tmp_path, run["table"], run["dist"])
    assert any(f"row {i}: unit {far}" in p for p in problems["winners_brute_force"])


def test_wrong_sq_distance_rejected(run, tmp_path):
    rows = _read_rows(run["dir"] / "classify" / "assignments.csv")
    rows[3]["sq_distance"] = repr(float(rows[3]["sq_distance"]) * (1 + 1e-6))
    _write_rows(tmp_path / "assignments.csv", rows)
    problems = checks.verify_assignments(tmp_path, run["table"], run["dist"])
    assert any("row 3: sq_distance" in p for p in problems["winners_brute_force"])


def _imputed_with_exact_observed(run) -> np.ndarray:
    out = checks.read_table(run["dir"] / "impute" / "imputed.csv").values.copy()
    table = run["table"]
    out[table.mask] = table.values[table.mask]
    return out


def test_altered_observed_cell_rejected(run):
    table = run["table"]
    out = _imputed_with_exact_observed(run)
    assert checks.check_observed_unchanged(table, out) == []
    i, k = map(int, np.argwhere(table.mask)[10])
    out[i, k] = np.nextafter(out[i, k], np.inf)
    problems = checks.check_observed_unchanged(table, out)
    assert problems and problems[0].startswith("1 of ")


def test_estimate_outside_range_rejected(run):
    table = run["table"]
    out = _imputed_with_exact_observed(run)
    assert checks.check_in_range(table, out) == []
    i, k = map(int, np.argwhere(~table.mask)[0])
    out[i, k] = np.nanmax(table.values[:, k]) + 1.0
    assert any(f"row {i} col {k}" in p for p in checks.check_in_range(table, out))


def test_fill_from_another_unit_rejected(run, tmp_path):
    src = run["dir"] / "impute"
    prov = _read_rows(src / "provenance.csv")
    label, column = prov[0]["label"], prov[0]["column"]
    i, k = run["table"].labels.index(label), run["table"].names.index(column)
    far = int(run["dist"][i].argmax())
    prov[0]["units"] = str(far)
    _write_rows(tmp_path / "provenance.csv", prov)
    (tmp_path / "imputed.csv").write_bytes((src / "imputed.csv").read_bytes())
    results, _ = checks.verify_impute_model(tmp_path, run["table"], run["model"], run["dist"],
                                            run["truth"])
    assert any(f"row {i}: unit {far}" in p for p in results["fills_equal_winner"]), k


def test_poor_imputation_rejected(run):
    table, truth = run["table"], run["truth"]
    means, stds = np.nanmean(table.values, axis=0), np.nanstd(table.values, axis=0)
    noisy = np.where(table.mask, table.values, truth + 3 * stds)
    problems, rmse, base = checks.check_rmse_below_baseline(truth, table, noisy, means, stds)
    assert problems and rmse > base


def _train_parts(run):
    d = run["dir"] / "train"
    sc = [int(r["superclass"]) for r in _read_rows(d / "superclasses.csv")]
    dendro = np.array([[float(r["left"]), float(r["right"]), float(r["height"])]
                       for r in _read_rows(d / "dendrogram.csv")])
    return run["model"].codes, sc, dendro


def test_reordered_dendrogram_rejected(run):
    codes, sc, dendro = _train_parts(run)
    assert checks.check_ward(codes, sc, dendro, 3) == []
    n = codes.shape[0]
    # two merges of single units swap places: both still valid, order wrong
    leaf_steps = [s for s in range(n - 1) if dendro[s, 0] < n and dendro[s, 1] < n]
    a, b = leaf_steps[:2]
    swapped = dendro.copy()
    swapped[[a, b]] = swapped[[b, a]]
    assert any(f"step {a} joins" in p for p in checks.check_ward(codes, sc, swapped, 3))
    # the last merge moved first: it joins clusters that do not exist yet
    rotated = np.roll(dendro, 1, axis=0)
    assert any("before it exists" in p for p in checks.check_ward(codes, sc, rotated, 3))


def test_wrong_height_and_cut_rejected(run):
    codes, sc, dendro = _train_parts(run)
    taller = dendro.copy()
    taller[-1, 2] *= 1 + 1e-6
    assert any("height" in p for p in checks.check_ward(codes, sc, taller, 3))
    moved = list(sc)
    moved[0] = (moved[0] + 1) % 3
    assert any("cut at k=3" in p for p in checks.check_ward(codes, moved, dendro, 3))


def _forgy_parts(run):
    d = run["dir"] / "forgy"
    table = run["table"]
    x = checks.standardized(table, np.nanmean(table.values, axis=0),
                            np.nanstd(table.values, axis=0))
    return (x, table.mask, np.load(d / "centroids.npy"), np.load(d / "units.npy"),
            np.load(d / "history.npy"))


def test_non_fixpoint_centroid_rejected(run):
    x, mask, cents, units, history = _forgy_parts(run)
    assert checks.check_forgy(x, mask, cents, units, history, True) == []
    moved = cents.copy()
    moved[1, 2] += 0.05
    assert any("centroid 1 component 2" in p
               for p in checks.check_forgy(x, mask, moved, units, history, True))
    assert checks.check_forgy(x, mask, cents, units, history, False) == ["did not converge"]


def test_rising_distortion_rejected(run):
    x, mask, cents, units, history = _forgy_parts(run)
    rising = np.append(history, history[-1] * 1.01)
    assert any("distortion rose" in p
               for p in checks.check_forgy(x, mask, cents, units, rising, True))


def test_wrong_ensemble_provenance_rejected(run, tmp_path):
    src = run["dir"] / "maps"
    prov = _read_rows(src / "provenance.csv")
    prov[2]["seeds"] = ";".join(str(SEED + j) for j in (0, 1, 3))
    _write_rows(tmp_path / "provenance.csv", prov)
    (tmp_path / "imputed.csv").write_bytes((src / "imputed.csv").read_bytes())
    results, _ = checks.verify_impute_maps(tmp_path, run["table"], run["truth"], n_maps=3,
                                           base_seed=SEED)
    assert results["ensemble_provenance"]


def test_wrong_eval_table_rejected(run):
    rows = _read_rows(run["dir"] / "eval" / "eval.csv")
    assert checks.check_eval_table(rows, 24, 2, 5) == []
    bad = [dict(r) for r in rows]
    bad[4]["rmse_som"] = bad[4]["rmse_mean"]
    bad[2]["n_unresolved"] = "1"
    problems = checks.check_eval_table(bad, 24, 2, 5)
    assert any("d=5: rmse_som" in p for p in problems)
    assert any("d=3: 1 unresolved" in p for p in problems)
    assert checks.check_eval_table(rows[:-1], 24, 2, 5)
