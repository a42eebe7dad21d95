"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime.
"""

import collections
import time
from dataclasses import replace

import numpy as np
import pytest

from somimpute import (
    UNCLASSIFIABLE,
    CodeBook,
    DataMatrix,
    GridTopology,
    MaskingLedger,
    TrainingMode,
    TrainingSchedule,
    assign,
    classify_supplementary,
    deletion_curve,
    fit_standardizer,
    hierarchical_codes,
    impute,
    impute_multi,
    mask_random,
    mean_impute_baseline,
    pairwise_correlation,
    rmse_deleted,
    standardize,
    superclass_of_rows,
    train,
)
from somimpute.cli import main
from somimpute.model_io import write_csv
from somimpute.synthetic import correlated_clusters, gaussian_blobs, iid_gaussian
from helpers import (alpha_at, best_partition_at_k, brute_winner, estimate,
                     labels_to_partition, radius_at)


def _ok(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_masked_trainer_matches_unmasked_reference_bitwise():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((50, 5))
    data = DataMatrix.from_nan(raw)
    topo = GridTopology(3, 3)
    sched = TrainingSchedule(total_iters=1000, alpha0=0.5, alpha_final=0.01,
                             radius0=2, zero_radius_fraction=0.4, rng_seed=42)
    t0 = time.perf_counter()
    fit = train(data, topo, sched)
    elapsed = time.perf_counter() - t0

    # independent unmasked online loop, restating the documented protocol:
    # one generator draws the (n_units, p) init then one row index per step
    g = np.random.default_rng(sched.rng_seed)
    codes = g.uniform(raw.min(axis=0), raw.max(axis=0), size=(topo.n_units, 5))
    coords = np.array([divmod(u, topo.cols) for u in range(topo.n_units)])
    cheb = np.maximum(
        np.abs(coords[:, 0][:, None] - coords[:, 0][None, :]),
        np.abs(coords[:, 1][:, None] - coords[:, 1][None, :]),
    )
    for t in range(sched.total_iters):
        i = int(g.integers(raw.shape[0]))
        x = raw[i]
        w = int(np.argmin(((codes - x) ** 2).sum(axis=1)))
        nb = np.flatnonzero(cheb[w] <= radius_at(sched, t))
        a = alpha_at(sched, t)
        codes[nb] = codes[nb] + a * (x - codes[nb])

    assert np.array_equal(fit.codebook.codes, codes), "codebooks differ bitwise"
    assert elapsed < 1.0, f"training took {elapsed:.3f}s"
    _ok(1, f"masked trainer bit-identical to unmasked reference in {elapsed * 1000:.0f} ms")


def test_criterion_2_masked_distance_matches_bruteforce_on_10000_triples():
    # assign on a one-unit codebook returns that unit's masked distance
    rng = np.random.default_rng(20260811)
    n_empty = 0
    for trial in range(10_000):
        p = int(rng.integers(1, 17))
        x = rng.normal(size=p)
        c = rng.normal(size=p)
        observed = rng.random(p) < rng.uniform(0.2, 1.0)
        # oracle: explicit loop over the present components, same fixed
        # ascending-index summation order the contract mandates
        expected = 0.0
        for k in range(p):
            if observed[k]:
                d = x[k] - c[k]
                expected += d * d
        got = assign(c[None], x[None], observed[None])
        if observed.any():
            assert got.sq_distances[0] == expected, f"triple {trial}"
        else:
            # no observed component: the empty sum, and no winner
            n_empty += 1
            assert got.units[0] == UNCLASSIFIABLE, f"triple {trial}"
            assert np.isnan(got.sq_distances[0]), f"triple {trial}"
    _ok(2, "one-unit assign exact against the explicit-loop oracle on 10000 triples "
           f"({n_empty} with no observed component flagged unclassifiable)")


def test_criterion_3_imputation_identity_on_1000_random_instances():
    rng = np.random.default_rng(314159)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(4, 12))
        p = int(rng.integers(2, 7))
        n_units = int(rng.integers(1, 7))
        codes = rng.normal(size=(n_units, p))
        cb = CodeBook(codes, GridTopology(1, n_units), tuple(f"v{k}" for k in range(p)))
        values = rng.normal(size=(n, p))
        mask = rng.random((n, p)) < 0.6
        mask[:, 0] |= ~mask.any(axis=1)  # keep every row classifiable
        for k in range(p):
            if not mask[:, k].any():
                mask[int(rng.integers(n)), k] = True
        data = DataMatrix(values, mask,
                          tuple(f"r{i}" for i in range(n)),
                          tuple(f"v{k}" for k in range(p)))
        report = impute(cb, data)
        fills = report.fills
        estimates = report.filled.values[fills.rows, fills.cols]
        for row, col, value in zip(fills.rows, fills.cols, estimates):
            w = brute_winner(data.values[row], data.mask[row], codes)
            assert value == codes[w, col]
            checked += 1
    assert checked > 10_000
    _ok(3, f"every filled cell equals its winner's code component exactly ({checked} cells)")


# shared by criteria 4 and 10
_CURVE_SEED = 20260811


def _curve_dataset():
    data, labels = correlated_clusters(24, 11, 3, seed=_CURVE_SEED)
    corr = pairwise_correlation(data)
    off = corr[~np.eye(11, dtype=bool)]
    assert off.min() >= 0.8, f"generator produced min correlation {off.min():.3f}"
    return data, labels


def test_criterion_4_deletion_curve_trend():
    t0 = time.perf_counter()
    data, _ = _curve_dataset()
    topo = GridTopology(3, 3)
    sched = TrainingSchedule(total_iters=1000, alpha0=0.5, alpha_final=0.01,
                             radius0=2, zero_radius_fraction=0.4, rng_seed=1234)
    report = deletion_curve(data, range(1, 9), topo, sched, n_maps=1, n_repeats=10)
    elapsed = time.perf_counter() - t0

    som = [report.rmse_som[d] for d in range(1, 9)]
    base = [report.rmse_mean_baseline[d] for d in range(1, 9)]
    # (a) accurate recovery at a single deletion per row
    assert som[0] <= 0.6, f"RMSE at d=1 is {som[0]:.3f}"
    # (b) non-decreasing up to a plateau, within 0.15 noise on 10-seed means
    for lo, hi in zip(som, som[1:]):
        assert hi >= lo - 0.15, f"curve dips from {lo:.3f} to {hi:.3f}"
    # (c) beats the column-mean baseline by >= 25% through d = 4
    for d in range(1, 5):
        assert som[d - 1] <= 0.75 * base[d - 1], (
            f"d={d}: som {som[d - 1]:.3f} vs baseline {base[d - 1]:.3f}"
        )
    assert elapsed < 30.0, f"curve took {elapsed:.1f}s"
    _ok(4, "deletion curve: rmse(d=1)="
        f"{som[0]:.2f}<=0.6, non-decreasing within 0.15, >=25% under baseline "
        f"for d<=4, in {elapsed:.1f}s")


def test_criterion_5_mean_baseline_anchor_near_one():
    data = iid_gaussian(200, 10, seed=99)
    masked, ledger = mask_random(data, 3, seed=123)
    assert len(ledger) >= 500
    params = fit_standardizer(masked)
    std = standardize(masked, params)
    std_truth = np.array(
        [(t - params.means[k]) / params.stds[k]
         for k, t in zip(ledger.cols, ledger.true_values)]
    )
    rmse = rmse_deleted(MaskingLedger(ledger.rows, ledger.cols, std_truth),
                        mean_impute_baseline(std))
    assert abs(rmse - 1.0) <= 0.15, f"baseline rmse {rmse:.3f}"
    _ok(5, f"column-mean baseline RMSE {rmse:.3f} within 1.0 +/- 0.15 on {len(ledger)} cells")


def test_criterion_6_convex_hull_invariant_across_100_trainings():
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(30, 6)) * rng.uniform(0.5, 3.0, size=6)
        mask = rng.random((30, 6)) >= 0.6  # about 60% missing
        for k in range(6):
            if not mask[:, k].any():
                mask[int(rng.integers(30)), k] = True
        data = DataMatrix(values, mask,
                          tuple(f"r{i}" for i in range(30)),
                          tuple(f"v{k}" for k in range(6)))
        if not data.mask.any(axis=1).any():
            continue
        sched = TrainingSchedule(total_iters=300, radius0=1, zero_radius_fraction=0.4,
                                 rng_seed=seed)
        fit = train(data, GridTopology(3, 3), sched)
        lo, hi = data.column_ranges()
        assert np.all(fit.codebook.codes >= lo), f"seed {seed}: code below observed min"
        assert np.all(fit.codebook.codes <= hi), f"seed {seed}: code above observed max"
        checked += 1
    assert checked == 100
    _ok(6, "all code components inside their columns' observed ranges over 100 trainings")


def test_criterion_7_supplementary_classification_recovers_clusters():
    centers = np.array([[0.0, 0.0, 0.0, 0.0],
                        [8.0, 9.0, 8.0, 9.0],
                        [17.0, 16.0, 18.0, 15.0]])
    train_data, train_labels = gaussian_blobs(centers, 20, noise=1.0, seed=5)
    test_data, test_labels = gaussian_blobs(centers, 15, noise=1.0, seed=6)
    rng = np.random.default_rng(7)
    vals = test_data.values.copy()
    mask = np.ones_like(vals, dtype=bool)
    for i in range(vals.shape[0]):
        drop = rng.choice(4, size=int(rng.integers(1, 3)), replace=False)
        mask[i, drop] = False
    test_masked = DataMatrix(vals, mask, test_data.row_labels, test_data.col_names)

    params = fit_standardizer(train_data)
    fit = train(standardize(train_data, params), GridTopology(3, 3),
                TrainingSchedule(total_iters=1000, radius0=2, rng_seed=11),
                TrainingMode.COMPLETE_ONLY)
    sc = hierarchical_codes(fit.codebook, 3)
    train_sc = superclass_of_rows(fit.assignment, sc)
    cluster_of = {}
    for label in range(3):
        votes = collections.Counter(train_labels[train_sc == label])
        cluster_of[label] = votes.most_common(1)[0][0]
    assert len(set(cluster_of.values())) == 3, "super-classes do not separate the clusters"

    asg = classify_supplementary(fit.codebook, standardize(test_masked, params))
    test_sc = superclass_of_rows(asg, sc)
    hits = np.mean([cluster_of[int(test_sc[i])] == test_labels[i]
                    for i in range(test_labels.size)])
    assert hits >= 0.95, f"only {hits:.2%} matched their generating cluster"
    _ok(7, f"{hits:.1%} of deleted-component rows land in the right super-class")


def test_criterion_8_ward_cut_matches_bruteforce_minimum_partitions():
    configs = [
        np.array([[0.0], [0.1], [0.3], [10.0], [10.04], [10.1], [30.0], [30.5]]),
        np.array([[0.0, 0.0], [0.0, 0.1], [20.0, 0.0], [20.0, 0.14],
                  [60.0, 40.0], [60.0, 40.3]]),
    ]
    checked = 0
    for pts in configs:
        n = pts.shape[0]
        cb = CodeBook(pts, GridTopology(1, n), tuple(f"v{k}" for k in range(pts.shape[1])))
        for k in range(1, n + 1):
            oracle, margin = best_partition_at_k(pts, k)
            if margin is not None:
                assert margin > 1e-9, f"k={k}: optimum not unique, test ill-posed"
            got = labels_to_partition(hierarchical_codes(cb, k).labels)
            assert got == oracle, f"k={k}: {got} != {oracle}"
            checked += 1
    # the documented 4-point example, where only the k=2 optimum is unique
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    cb = CodeBook(pts, GridTopology(1, 4), ("v0",))
    oracle, margin = best_partition_at_k(pts, 2)
    assert margin > 1e-9
    assert labels_to_partition(hierarchical_codes(cb, 2).labels) == oracle
    checked += 1
    _ok(8, f"hierarchical cuts equal enumerated minimum-variance partitions ({checked} cuts)")


def test_criterion_9_manifest_replay_reproduces_csv_bytes(tmp_path):
    rng = np.random.default_rng(17)
    raw = rng.normal(size=(16, 5)) + np.arange(5)
    complete = DataMatrix.from_nan(raw)
    complete_csv = tmp_path / "complete.csv"
    write_csv(complete, complete_csv)

    holed = raw.copy()
    holed[rng.random(raw.shape) < 0.2] = np.nan
    holed_data = DataMatrix.from_nan(holed)
    holed_csv = tmp_path / "holed.csv"
    write_csv(holed_data, holed_csv)

    run = tmp_path / "train"
    assert main(["train", "--input", str(holed_csv), "--output-dir", str(run),
                 "--grid-rows", "2", "--grid-cols", "2", "--iters", "400",
                 "--radius0", "1", "--seed", "5", "--superclasses", "2"]) == 0
    imp = tmp_path / "impute"
    assert main(["impute", "--input", str(holed_csv), "--output-dir", str(imp),
                 "--model", str(run / "model.txt")]) == 0
    ev = tmp_path / "evaluate"
    assert main(["evaluate", "--input", str(complete_csv), "--output-dir", str(ev),
                 "--grid-rows", "2", "--grid-cols", "2", "--iters", "200",
                 "--radius0", "1", "--d-min", "1", "--d-max", "3",
                 "--repeats", "2", "--seed", "9"]) == 0

    n_compared = 0
    for stage in (run, imp, ev):
        redo = tmp_path / f"redo_{stage.name}"
        assert main(["replay", "--manifest", str(stage / "manifest.txt"),
                     "--output-dir", str(redo)]) == 0
        csvs = sorted(p.name for p in stage.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (stage / name).read_bytes() == (redo / name).read_bytes(), (
                f"{stage.name}/{name} differs on replay"
            )
            n_compared += 1
    _ok(9, f"replayed train/impute/evaluate pipelines byte-identical ({n_compared} CSVs)")


def test_criterion_10_multi_map_averaging_halves_estimate_variance():
    data, _ = _curve_dataset()
    masked, _ = mask_random(data, 3, seed=777)
    params = fit_standardizer(masked)
    std = standardize(masked, params)
    topo = GridTopology(3, 3)
    sched = TrainingSchedule(total_iters=1000, radius0=2, rng_seed=0)
    fills = impute(train(std, topo, sched).codebook, std).fills
    cells = list(zip(fills.rows.tolist(), fills.cols.tolist()))

    n_replicas = 30
    single = np.empty((n_replicas, len(cells)))
    multi = np.empty((n_replicas, len(cells)))
    for r in range(n_replicas):
        one = TrainingSchedule(total_iters=1000, radius0=2, rng_seed=50_000 + r)
        rep1 = impute(train(std, topo, one).codebook, std)
        repm = impute_multi(std, topo, replace(sched, rng_seed=100_000 + 5 * r), n_maps=5)
        single[r] = [estimate(rep1, *c) for c in cells]
        multi[r] = [estimate(repm, *c) for c in cells]
    var_single = single.var(axis=0, ddof=1).mean()
    var_multi = multi.var(axis=0, ddof=1).mean()
    assert var_multi <= 0.5 * var_single, (
        f"multi-map variance {var_multi:.5f} vs single {var_single:.5f}"
    )
    _ok(10, f"5-map averaging cuts per-cell estimate variance to "
        f"{var_multi / var_single:.2f}x the single-map level over {n_replicas} replicas")
