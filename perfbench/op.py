#!/usr/bin/env python3
"""One benchmark operation that cannot be started as a plain CLI run.

    python3 perfbench/op.py --spans FILE cli ARGS...
        the CLI run ``python -m somimpute.cli ARGS...`` with every call into
        a layer traced, spans written to FILE;
    python3 perfbench/op.py [--spans FILE] forgy --input CSV --classes K --seed S --out DIR
        the library call ``forgy_train`` on the CSV's table, standardized
        over its observed cells; writes ``centroids.npy``, ``units.npy``,
        ``history.npy`` and ``meta.txt`` (rounds, converged) to DIR and
        prints the call's duration in seconds.

somimpute must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, count_cells, install

# forgy_train stops at its fixpoint long before this many rounds
FORGY_MAX_ROUNDS = 1000


def run_forgy(args, tracer: Tracer | None) -> int:
    from somimpute import data, model_io, trainer

    if tracer is not None:
        tracer.wrap(model_io, "read_csv", "model_io.read_csv", count_cells)
        tracer.wrap(data, "fit_standardizer", "data.standardize")
        tracer.wrap(data, "standardize", "data.standardize")
        tracer.wrap(trainer, "forgy_train", "trainer.forgy", lambda args, res: res.n_iters)
    table = model_io.read_csv(args.input)
    std = data.standardize(table, data.fit_standardizer(table))
    start = time.perf_counter()
    result = trainer.forgy_train(std, args.classes, max_iters=FORGY_MAX_ROUNDS, seed=args.seed)
    call_s = time.perf_counter() - start
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "centroids.npy", result.centroids.codes)
    np.save(out / "units.npy", result.assignment.units)
    np.save(out / "history.npy", np.array(result.distortion))
    (out / "meta.txt").write_text(f"{result.n_iters} {result.converged}\n")
    print(repr(call_s))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", default=None, help="write the operation's spans here")
    sub = ap.add_subparsers(dest="kind", required=True)
    p = sub.add_parser("cli")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p = sub.add_parser("forgy")
    p.add_argument("--input", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    tracer = None if args.spans is None else Tracer(Path(args.spans).stem)
    try:
        if args.kind == "forgy":
            return run_forgy(args, tracer)
        if tracer is None:
            ap.error("a cli operation runs here only when traced; untraced, run "
                     "python -m somimpute.cli")
        from somimpute import cli

        install(tracer)
        with tracer.span("cli.main"):
            return cli.main(args.cli_args)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
