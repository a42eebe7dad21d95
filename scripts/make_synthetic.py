#!/usr/bin/env python3
"""Generate synthetic CSV datasets for driving the CLI.

Kinds:
  correlated  one latent factor with cluster structure, strongly correlated
              columns (the deletion-study testbed)
  blobs       three well-separated Gaussian clusters with a cluster modality
              column (the supplementary-classification testbed)
  gaussian    iid standard normal cells (uncorrelated control)

Optionally punches d holes per row with a seeded mask, so the same file can
exercise training with missing values.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from somimpute import mask_random
from somimpute.model_io import write_csv
from somimpute.synthetic import correlated_clusters, gaussian_blobs, iid_gaussian


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("kind", choices=["correlated", "blobs", "gaussian"])
    ap.add_argument("--out", required=True, help="output CSV path")
    ap.add_argument("--rows", type=int, default=24)
    ap.add_argument("--cols", type=int, default=11)
    ap.add_argument("--clusters", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--deletions-per-row", type=int, default=0,
                    help="mask this many cells per row (seeded)")
    args = ap.parse_args()

    if args.kind == "correlated":
        data, labels = correlated_clusters(args.rows, args.cols, args.clusters, args.seed)
    elif args.kind == "blobs":
        rng = np.random.default_rng(args.seed)
        centers = rng.uniform(-1.0, 1.0, size=(args.clusters, args.cols)) * 10.0
        per = max(1, args.rows // args.clusters)
        data, labels = gaussian_blobs(centers, per, noise=1.0, seed=args.seed)
        data = replace(data, categorical=tuple(f"cluster{g}" for g in labels),
                       categorical_name="cluster")
    else:
        data = iid_gaussian(args.rows, args.cols, args.seed)

    if args.deletions_per_row:
        data, ledger = mask_random(data, args.deletions_per_row, seed=args.seed + 1)
        print(f"masked {len(ledger)} cells")

    write_csv(data, args.out)
    print(f"wrote {data.n_rows}x{data.n_cols} dataset to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
