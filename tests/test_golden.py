"""Every output of a fixed set of CLI runs, checked byte for byte against
committed sha256 digests.

The runs start in a temporary directory with relative paths, so that the
paths each ``manifest.txt`` records, and so its digest, do not depend on
where the test runs.  The digests were taken under the numpy version
recorded beside them; a numpy release that moves a draw or a summation
shows up here as a named file.  A change that alters an output on purpose
updates the digests with ``python tests/test_golden.py`` (run from the
repository root, ``src`` on ``PYTHONPATH``) and lists old and new in
CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from somimpute.cli import main
from somimpute.model_io import sha256_file

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"

_MAP = ["--grid-rows", "2", "--grid-cols", "2", "--iters", "300", "--radius0", "1"]

# (output directory, argv) in the order they run; later runs read model.txt
RUNS = [
    ("train", ["train", "--input", "table.csv", "--output-dir", "train",
               "--categorical-col", "level", *_MAP, "--seed", "7", "--superclasses", "3"]),
    ("classify", ["classify", "--input", "table.csv", "--output-dir", "classify",
                  "--categorical-col", "level", "--model", "train/model.txt"]),
    ("impute_model", ["impute", "--input", "table.csv", "--output-dir", "impute_model",
                      "--categorical-col", "level", "--model", "train/model.txt",
                      "--fallback", "column-mean"]),
    ("impute_maps", ["impute", "--input", "table.csv", "--output-dir", "impute_maps",
                     "--categorical-col", "level", "--n-maps", "3", *_MAP, "--seed", "11"]),
    # the all-missing row's four cells take their columns' observed means
    ("impute_maps_mean", ["impute", "--input", "table.csv", "--output-dir", "impute_maps_mean",
                          "--categorical-col", "level", "--n-maps", "2", *_MAP, "--seed", "13",
                          "--fallback", "column-mean"]),
    ("evaluate", ["evaluate", "--input", "complete.csv", "--output-dir", "evaluate",
                  *_MAP, "--d-min", "1", "--d-max", "2", "--repeats", "2", "--n-maps", "2",
                  "--seed", "5"]),
    ("render", ["render", "--input", "table.csv", "--output-dir", "render",
                "--categorical-col", "level", "--model", "train/model.txt",
                "--superclasses", "2"]),
    ("replay", ["replay", "--manifest", "impute_maps/manifest.txt", "--output-dir", "replay"]),
    ("train_complete", ["train", "--input", "table.csv", "--output-dir", "train_complete",
                        "--categorical-col", "level",
                        *_MAP, "--seed", "3", "--mode", "complete-only"]),
    # on this 10 x 4 table d = 3 leaves a column with fewer than two observed
    # values, and at most seeds d = 2 leaves no complete row to train on
    ("evaluate_mcar", ["evaluate", "--input", "complete.csv", "--output-dir", "evaluate_mcar",
                       *_MAP, "--deletion-mode", "global-mcar", "--mode", "complete-only",
                       "--n-maps", "2", "--d-min", "1", "--d-max", "2", "--repeats", "2",
                       "--seed", "5"]),
    # the manifest impute --model writes records every training flag at its
    # default, so it replays
    ("replay_model", ["replay", "--manifest", "impute_model/manifest.txt",
                      "--output-dir", "replay_model"]),
]


def run_all(workdir: Path, monkeypatch) -> dict[str, str]:
    """Run every entry of :data:`RUNS` in ``workdir``; the sha256 of each
    output file, keyed by its path relative to ``workdir``."""
    for name in ("table.csv", "complete.csv"):
        shutil.copyfile(GOLDEN / name, workdir / name)
    monkeypatch.chdir(workdir)
    for _, argv in RUNS:
        assert main(argv) == 0, argv
    return {
        f"{out}/{path.name}": sha256_file(path)
        for out, _ in RUNS for path in sorted((workdir / out).iterdir())
    }


def test_every_output_matches_its_golden_digest(tmp_path, monkeypatch):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = run_all(tmp_path, monkeypatch)
    differ = [
        f"{name}: {got.get(name, 'not written')} != {want}"
        for name, want in golden["files"].items() if got.get(name) != want
    ] + [f"{name}: not in the golden digests" for name in got if name not in golden["files"]]
    assert not differ, (
        f"outputs under {tmp_path} differ from the golden digests (taken under numpy "
        f"{golden['numpy']}, running {np.__version__}):\n" + "\n".join(differ)
    )


if __name__ == "__main__":
    import tempfile

    import pytest

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        files = run_all(Path(tmp), mp)
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "files": files}, indent=1) + "\n",
                       encoding="utf-8")
    print(f"{len(files)} digests written to {DIGESTS}", file=sys.stderr)
