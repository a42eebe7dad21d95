"""The scripts under ``scripts/``, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from somimpute import mask_random
from somimpute.model_io import read_csv
from somimpute.synthetic import correlated_clusters, iid_gaussian

MAKE_SYNTHETIC = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic.py"


@pytest.mark.parametrize("kind", ["correlated", "blobs", "gaussian"])
def test_make_synthetic_writes_a_table_with_one_hole_per_row(kind, tmp_path):
    out = tmp_path / f"{kind}.csv"
    run = subprocess.run(
        [sys.executable, str(MAKE_SYNTHETIC), kind, "--out", str(out), "--rows", "12",
         "--cols", "4", "--seed", "3", "--deletions-per-row", "1"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["masked 12 cells", f"wrote 12x4 dataset to {out}"]
    data = read_csv(out, categorical_col="cluster" if kind == "blobs" else None)
    assert (data.n_rows, data.n_cols) == (12, 4)
    assert ((~data.mask).sum(axis=1) == 1).all()
    if kind == "blobs":
        assert set(data.categorical) == {"cluster0", "cluster1", "cluster2"}
        return
    if kind == "correlated":
        full, _ = correlated_clusters(12, 4, 3, 3)
    else:
        full = iid_gaussian(12, 4, 3)
    expected, _ = mask_random(full, 1, seed=4)
    assert np.array_equal(data.mask, expected.mask)
    assert np.array_equal(data.values[data.mask], expected.values[expected.mask])
