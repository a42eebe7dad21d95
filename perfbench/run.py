#!/usr/bin/env python3
"""Benchmark of the somimpute CLI, end to end and layer by layer.

Run from the root of a source tree (the directory holding ``src/``):

    python3 perfbench/run.py --workload large-table --seed 1 --seconds 40 --trace 0

Each workload is one closed loop on this one process: it generates its input
table from ``--seed`` (in a child process, several times, to time set-up), then
runs rounds of a fixed sequence of operations, each started only after the
previous one ended and its outputs were checked, until ``--seconds`` are
used up.  An operation is one CLI run, started as users start it
(``python -m somimpute.cli ...``), or one library call to ``forgy_train`` in a
child process.  It fails when it exits with a status other than 0 or when a
check of its outputs (``checks.py``) fails.

With ``--trace 0`` every operation runs untraced and the end-to-end metrics
are printed.  With ``--trace 1`` untraced and traced rounds alternate; the
per-layer metrics come from the traced rounds and the tracing overhead is
the difference between the two.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record
of the run (versions, failed checks, output digests, per-operation figures)
goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import tracing

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
RESULTS = HERE / "results"
# relative, so that the paths the program records in its manifests, and so
# the output digests, are the same in every checkout and every run
WORK = Path(os.path.relpath(HERE, Path.cwd())) / "work"

# set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_SECONDS
# are spent, so that the median of a fast set-up rests on enough samples
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.5
SETUP_MAX_REPEATS = 15
OP_TIMEOUT_S = 90
# the one fault every run is known to hit: impute rewrites observed cells
# through destandardize(standardize(x)), which moves some in their last bits
KNOWN_FAULTS = frozenset({"observed_cells_unchanged"})

# per-layer metric -> (unit, span name, which of tracing.totals() to take)
PER_LAYER = {
    "model_io.read_csv_s": ("s", "model_io.read_csv", "total"),
    "model_io.cells_read": ("count", "model_io.read_csv", "count"),
    "model_io.write_csv_s": ("s", "model_io.write_csv", "total"),
    "model_io.write_provenance_s": ("s", "model_io.write_provenance", "total"),
    "model_io.write_assignments_s": ("s", "model_io.write_assignments", "total"),
    "model_io.sha256_s": ("s", "model_io.sha256", "total"),
    "data.standardize_s": ("s", "data.standardize", "total"),
    "trainer.train_s": ("s", "trainer.train", "self"),
    "trainer.train_iters": ("count", "trainer.train", "count"),
    "trainer.classify_s": ("s", "trainer.classify", "total"),
    "trainer.classify_rows": ("count", "trainer.classify", "count"),
    "trainer.forgy_s": ("s", "trainer.forgy", "total"),
    "trainer.forgy_rounds": ("count", "trainer.forgy", "count"),
    "imputation.impute_s": ("s", "imputation.impute", "total"),
    "imputation.cells_filled": ("count", "imputation.impute", "count"),
    "imputation.ensemble_self_s": ("s", "imputation.impute_ensemble", "self"),
    "superclass.ward_s": ("s", "superclass.ward", "total"),
    "evaluation.mask_random_s": ("s", "evaluation.mask_random", "total"),
    "evaluation.rmse_s": ("s", "evaluation.rmse", "total"),
    "evaluation.arms": ("count", "evaluation.mask_random", "count"),
    "render.curve_svg_s": ("s", "render.curve_svg", "total"),
    "cli.self_s": ("s", "cli.main", "self"),
}
# rates: name -> (unit, numerator metric, denominator metric, scale)
PER_LAYER_RATES = {
    "trainer.train_us_per_iter": ("us", "trainer.train_s", "trainer.train_iters", 1e6),
    "trainer.classify_us_per_row": ("us", "trainer.classify_s", "trainer.classify_rows", 1e6),
    "trainer.forgy_ms_per_round": ("ms", "trainer.forgy_s", "trainer.forgy_rounds", 1e3),
    "imputation.impute_us_per_cell": ("us", "imputation.impute_s", "imputation.cells_filled", 1e6),
}


@dataclass(frozen=True)
class Op:
    """One operation of a round: how to start it and how to check it."""

    name: str
    kind: str  # "cli" or "forgy"
    args: list[str]
    out_dir: Path
    verify: Callable[[], tuple[dict, dict]]  # -> ({check: problems}, figures)


@dataclass
class OpResult:
    name: str
    wall_s: float
    rss_kb: int
    checks: dict = field(default_factory=dict)
    figures: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)

    @property
    def failed_checks(self) -> list[str]:
        return sorted(name for name, problems in self.checks.items() if problems)


# ------------------------------------------------------------- workloads


def large_table_ops(work: Path, seed: int, ctx: dict) -> list[Op]:
    """train (10x10, 20 000 iterations, 6 super-classes), then classify and
    impute against the saved model, on the 20 000 x 20 holed table."""
    table_csv = str(work / "in" / "table.csv")
    out = work / "out"
    model = str(out / "train" / "model.txt")

    def model_and_distances():
        # the three operations of a round share one model: recompute the
        # brute-force distances only when model.txt changed
        key = hashlib.sha256(Path(model).read_bytes()).hexdigest()
        if ctx.get("model_key") != key:
            m = checks.read_model(model)
            ctx.update(model_key=key, model=m, dist=checks.model_distances(ctx["table"], m))
        return ctx["model"], ctx["dist"]

    def verify_train():
        return checks.verify_train(out / "train", ctx["table"], *model_and_distances(), k=6), {}

    def verify_classify():
        return checks.verify_assignments(out / "classify", ctx["table"],
                                         model_and_distances()[1]), {}

    def verify_impute():
        return checks.verify_impute_model(out / "impute", ctx["table"], *model_and_distances(),
                                          ctx["truth"])

    return [
        Op("train", "cli", ["train", "--input", table_csv, "--output-dir", str(out / "train"),
                            "--grid-rows", "10", "--grid-cols", "10", "--iters", "20000",
                            "--seed", str(seed), "--superclasses", "6"],
           out / "train", verify_train),
        Op("classify", "cli", ["classify", "--input", table_csv, "--output-dir",
                               str(out / "classify"), "--model", model],
           out / "classify", verify_classify),
        Op("impute", "cli", ["impute", "--input", table_csv, "--output-dir",
                             str(out / "impute"), "--model", model],
           out / "impute", verify_impute),
    ]


def deletion_study_ops(work: Path, seed: int, ctx: dict) -> list[Op]:
    """The paper's random-deletion study on a 24 x 11 table with a 3x3 map
    and 1 000 iterations: d = 1..5 deletions per row, 16 repeats (80
    trainings).  Beyond d = 5 a seeded arm may leave a column with fewer
    than two observed values, which aborts the whole study, so d stops at 5
    (with 16 repeats the chance is about 3e-5 per seed, against 0.56 for
    d = 1..8 with 10 repeats)."""
    out = work / "out" / "evaluate"
    return [
        Op("evaluate", "cli", ["evaluate", "--input", str(work / "in" / "table.csv"),
                               "--output-dir", str(out), "--grid-rows", "3", "--grid-cols", "3",
                               "--iters", "1000", "--d-min", "1", "--d-max", "5",
                               "--repeats", "16", "--seed", str(seed)],
           out, lambda: (checks.verify_evaluate(out, n_rows=24, repeats=16, d_max=5), {})),
    ]


def ensemble_ops(work: Path, seed: int, ctx: dict) -> list[Op]:
    """impute with 5 maps trained on the complete rows (6x6, 10 000
    iterations each), then forgy_train with 12 classes to its fixpoint, on
    the 2 000 x 20 holed table."""
    table_csv = str(work / "in" / "table.csv")
    out = work / "out"

    def verify_forgy():
        rounds = int((out / "forgy" / "meta.txt").read_text().split()[0])
        return checks.verify_forgy(out / "forgy", ctx["table"]), {"forgy_rounds": rounds}

    return [
        Op("impute_maps", "cli", ["impute", "--input", table_csv, "--output-dir",
                                  str(out / "impute_maps"), "--n-maps", "5",
                                  "--mode", "complete-only", "--grid-rows", "6",
                                  "--grid-cols", "6", "--iters", "10000", "--seed", str(seed)],
           out / "impute_maps",
           lambda: checks.verify_impute_maps(out / "impute_maps", ctx["table"], ctx["truth"],
                                             n_maps=5, base_seed=seed)),
        Op("forgy", "forgy", ["forgy", "--input", table_csv, "--classes", "12",
                              "--seed", str(seed), "--out", str(out / "forgy")],
           out / "forgy", verify_forgy),
    ]


WORKLOADS = {
    "large-table": large_table_ops,
    "deletion-study": deletion_study_ops,
    "ensemble": ensemble_ops,
}


# ------------------------------------------------------------ processes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], log: Path) -> tuple[float, int, int]:
    """Run ``cmd`` to its end through ``launch.py``; (wall seconds, exit
    status, peak RSS in KiB)."""
    launcher = subprocess.Popen(
        [sys.executable, str(HERE / "launch.py"), str(log), str(OP_TIMEOUT_S), "--", *cmd],
        stdout=subprocess.PIPE, env=child_env(), start_new_session=True)
    try:
        out, _ = launcher.communicate(timeout=OP_TIMEOUT_S + 30)
    except BaseException:
        # the launcher and the operation share a process group
        os.killpg(launcher.pid, signal.SIGKILL)
        launcher.wait()
        raise
    if launcher.returncode != 0:
        raise RuntimeError(f"launcher failed on {cmd}")
    res = json.loads(out)
    return res["wall_s"], res["status"], res["peak_rss_kb"]


def digests(out_dir: Path) -> dict[str, str]:
    if not out_dir.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def run_op(op: Op, work: Path, spans_path: Path | None, first: OpResult | None) -> OpResult:
    """Run one operation and check its outputs.

    The checks run in full on the operation's first round.  A later round
    whose outputs are byte-identical to the first round's gets the same
    verdict, since the checks depend on nothing else; one whose outputs
    differ is checked in full and fails ``outputs_repeat``.
    """
    shutil.rmtree(op.out_dir, ignore_errors=True)
    log = work / f"{op.name}.log"
    if op.kind == "cli" and spans_path is None:
        cmd = [sys.executable, "-m", "somimpute.cli", *op.args]
    else:
        trace = [] if spans_path is None else ["--spans", str(spans_path)]
        cmd = [sys.executable, str(HERE / "op.py"), *trace, *(["cli"] if op.kind == "cli" else []),
               *op.args]
    wall, status, rss = run_child(cmd, log)
    result = OpResult(op.name, wall, rss)
    if status != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        result.checks = {"exit_status": [f"exit status {status}", *tail]}
        return result
    if op.kind == "forgy":
        result.figures["forgy_call_s"] = float(log.read_text().split()[-1])
    if spans_path is not None:
        result.spans = tracing.totals(json.loads(spans_path.read_text()))
    result.digests = digests(op.out_dir)
    if first is not None and first.digests == result.digests:
        result.checks = first.checks
        return result
    try:
        verdict, figures = op.verify()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        verdict, figures = {"outputs_readable": [f"{type(exc).__name__}: {exc}"]}, {}
    result.checks = dict(verdict)
    result.figures.update(figures)
    if first is not None:
        changed = sorted(k for k in result.digests if result.digests[k] != first.digests.get(k))
        result.checks["outputs_repeat"] = [f"outputs differ from the first round: {changed}"]
    return result


# ---------------------------------------------------------------- set-up


def set_up(workload: str, seed: int, work: Path) -> float:
    """Generate the inputs several times, each in a fresh process; keep the
    first copy and return the median time."""
    times, tables = [], []
    for rep in range(SETUP_MAX_REPEATS):
        if rep >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_SECONDS:
            break
        dest = work / ("in" if rep == 0 else f"setup-{rep}")
        wall, status, _ = run_child([sys.executable, str(HERE / "inputs.py"), "--workload",
                                     workload, "--seed", str(seed), "--out", str(dest)],
                                    work / "setup.log")
        if status != 0:
            raise RuntimeError(f"input generation failed: "
                               f"{(work / 'setup.log').read_text(errors='replace')[-500:]}")
        times.append(wall)
        tables.append(hashlib.sha256((dest / "table.csv").read_bytes()).hexdigest())
        if rep:
            shutil.rmtree(dest)
    if len(set(tables)) != 1:
        raise RuntimeError("the same seed generated different tables")
    return statistics.median(times)


# ---------------------------------------------------------------- record


def versions() -> dict:
    import scipy

    sha = None
    if (Path.cwd() / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src_digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "git_sha": sha, "src_sha256": src_digest.hexdigest()}


def layer_metrics(round_results: list[OpResult]) -> dict[str, float]:
    """Per-layer figures of one traced round, summed over its operations."""
    summed: dict[str, dict[str, float]] = {}
    for r in round_results:
        for name, t in r.spans.items():
            acc = summed.setdefault(name, {"total": 0.0, "self": 0.0, "count": 0, "calls": 0})
            for key in acc:
                acc[key] += t[key]
    out = {metric: summed.get(span, {}).get(key, 0)
           for metric, (_, span, key) in PER_LAYER.items()}
    for metric, (_, num, den, scale) in PER_LAYER_RATES.items():
        out[metric] = out[num] / out[den] * scale if out[den] else 0.0
    return out


def measure(ops: list[Op], work: Path, seconds: float, trace: bool):
    """Run rounds until the next one would end after ``seconds``; with
    ``trace``, every second round is traced.  Returns the rounds' results,
    which rounds were traced, and every traced span."""
    rounds: list[list[OpResult]] = []
    traced: list[bool] = []
    spans: list[dict] = []
    first: dict[str, OpResult] = {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        is_traced = trace and len(rounds) % 2 == 1
        results = []
        for op in ops:
            path = work / f"{op.name}-{len(rounds)}.spans.json" if is_traced else None
            r = run_op(op, work, path, first.get(op.name))
            if path is not None and path.exists():
                spans += json.loads(path.read_text())
            first.setdefault(op.name, r)
            results.append(r)
        rounds.append(results)
        traced.append(is_traced)
        # stop before a round that would overrun; the first round, which
        # runs every check, is slower than the rest, so go by the last one
        now = time.perf_counter()
        if not (trace and len(rounds) < 2) and now - start + (now - t0) > seconds:
            return rounds, traced, spans


def summarize(rounds, traced, setup_s: float, trace: bool):
    """(metrics, per-operation wall times of the untraced rounds)."""
    untraced = [rs for rs, t in zip(rounds, traced) if not t]
    per_op: dict[str, list[float]] = {}
    for rs in untraced:
        for r in rs:
            per_op.setdefault(f"{r.name}_s", []).append(r.wall_s)
            if "forgy_call_s" in r.figures:
                per_op.setdefault("forgy_call_s", []).append(r.figures["forgy_call_s"])
    chain = statistics.median(sum(r.wall_s for r in rs) for rs in untraced)
    if not trace:
        return {
            "setup_s": {"value": setup_s, "unit": "s"},
            "chain_s": {"value": chain, "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_kb for rs in rounds for r in rs) / 1024,
                            "unit": "MB"},
        }, per_op
    traced_rounds = [rs for rs, t in zip(rounds, traced) if t]
    per_round = [layer_metrics(rs) for rs in traced_rounds]
    metrics = {name: {"value": statistics.median(m[name] for m in per_round), "unit": unit}
               for name, (unit, *_) in {**PER_LAYER, **PER_LAYER_RATES}.items()}
    overhead = statistics.median(sum(r.wall_s for r in rs) for rs in traced_rounds) - chain
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_pct"] = {"value": 100 * overhead / chain, "unit": "%"}
    return metrics, per_op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "somimpute" / "cli.py").is_file():
        print(f"error: no somimpute source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    # a SIGTERM unwinds like an exception, so the running child is killed
    # and waited for, and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = set_up(args.workload, args.seed, work)
        ctx = {"table": checks.read_table(work / "in" / "table.csv"),
               "truth": np.load(work / "in" / "truth.npy")}
        ops = WORKLOADS[args.workload](work, args.seed, ctx)
        rounds, traced, spans = measure(ops, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    all_ops = [r for rs in rounds for r in rs]
    failed = [r for r in all_ops if r.failed_checks]
    correct = all(set(r.failed_checks) <= KNOWN_FAULTS for r in failed)
    metrics, per_op = summarize(rounds, traced, setup_s, bool(args.trace))
    op_medians = {k: statistics.median(v) for k, v in per_op.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **versions(),
        "rounds": len(rounds), "attempted": len(all_ops), "failed": len(failed),
        "failed_checks": dict(Counter(f"{r.name}:{c}" for r in failed for c in r.failed_checks)),
        "problems": {f"{r.name}:{c}": p for r in failed for c, p in r.checks.items() if p},
        "output_sha256": {r.name: r.digests for r in rounds[0]},
        "operations": {k: {"median_s": op_medians[k], "runs": v} for k, v in per_op.items()},
        "figures": {r.name: r.figures for r in rounds[0] if r.figures},
        "peak_rss_mb": {r.name: max(x.rss_kb for x in all_ops if x.name == r.name) / 1024
                        for r in rounds[0]},
        "setup_s": setup_s,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    (RESULTS / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        (RESULTS / f"{name}.spans.json").write_text(json.dumps(spans) + "\n")

    for key, value in sorted(op_medians.items()):
        print(f"{args.workload} {key} {value:.4f} s (median of {len(per_op[key])})")
    for key, m in metrics.items():
        print(f"{args.workload} {key} {m['value']:.6g} {m['unit']}")
    for key, n in record["failed_checks"].items():
        print(f"{args.workload} failed check {key}: {n} of {len(rounds)} rounds")
    print(json.dumps({"correct": correct, "attempted": len(all_ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
