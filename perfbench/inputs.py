#!/usr/bin/env python3
"""Generate one workload's input table from a seed and write it to disk.

Run as its own process, so that the benchmark's ``setup_s`` covers process
start, imports, generation and writing:

    python3 perfbench/inputs.py --workload large-table --seed 1 --out DIR

Writes ``DIR/table.csv`` (the table the program reads: a ``label`` column,
then the numeric columns, an empty field for a missing cell) and
``DIR/truth.npy`` (the complete table before cells were deleted, which the
output checks score the imputations against).  The same seed gives
byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from somimpute.synthetic import correlated_clusters

# (rows, cols, largest number of cells deleted per row); rows lose a uniform
# 0..max cells each, so the table is holed but no row is ever all-missing
TABLES = {
    "large-table": (20_000, 20, 8),
    "deletion-study": (24, 11, 0),
    "ensemble": (2_000, 20, 6),
}


def holed_table(n: int, p: int, max_holes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(complete values, observed mask): ``correlated_clusters(n, p, seed)``
    with each row losing a uniform 0..max_holes cells, drawn from
    ``default_rng([seed, 1])``."""
    data, _ = correlated_clusters(n, p, seed=seed)
    truth = np.array(data.values)
    rng = np.random.default_rng([seed, 1])
    holes = rng.integers(0, max_holes + 1, size=n)
    order = rng.random((n, p)).argsort(axis=1)
    mask = np.ones((n, p), dtype=bool)
    mask[np.arange(n)[:, None], order] = np.arange(p)[None, :] >= holes[:, None]
    return truth, mask


def make_table(workload: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    return holed_table(*TABLES[workload], seed)


def table_csv(truth: np.ndarray, mask: np.ndarray) -> str:
    """CSV text of the holed table; ``repr`` round-trips every float64."""
    n, p = truth.shape
    lines = ["label," + ",".join(f"v{k:02d}" for k in range(p))]
    for i in range(n):
        cells = [repr(float(v)) if m else "" for v, m in zip(truth[i], mask[i])]
        lines.append(f"row{i:05d}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TABLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    truth, mask = make_table(args.workload, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "table.csv").write_text(table_csv(truth, mask))
    np.save(out / "truth.npy", truth)
    return 0


if __name__ == "__main__":
    sys.exit(main())
