"""Spans around the calls into each layer of somimpute, recorded from outside.

The program's source is not touched: :func:`install` replaces the names that
``somimpute.cli``, ``somimpute.evaluation``, ``somimpute.imputation`` and
``somimpute.trainer`` use to reach the other layers with wrappers that time
each call, inside the one process that runs the operation.  Every span
records a name, a start, an end, its parent span and the operation it
belongs to; some also record a count of the work done (cells read, training
iterations, rows classified, cells filled).  Spans stay in memory and are
written out once, when the operation ends.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Spans of one operation, in the order they started."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
               "trace": self.trace_id, "name": name, "start": time.perf_counter(),
               "end": None, "count": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace ``module.attr`` by a traced call; ``count(args, result)``
        gives the span's work count."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec["count"] = count(args, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans))


def count_cells(args, res):
    return res.n_rows * res.n_cols


def count_iters(args, res):
    return args[2].total_iters


def count_rows(args, res):
    return args[1].n_rows


def count_fills(args, res):
    return len(res.fills)


def count_one(args, res):
    return 1


def install(tracer: Tracer) -> None:
    """Wrap every call the CLI makes into another layer."""
    from somimpute import cli, evaluation, imputation, trainer

    layers = {
        "model_io.read_csv": [(cli, "read_csv", count_cells)],
        "model_io.write_csv": [(cli, "write_csv", None)],
        "model_io.write_provenance": [(cli, "write_provenance_csv", None)],
        "model_io.write_assignments": [(cli, "write_assignment_csv", None)],
        "model_io.sha256": [(cli, "sha256_file", None)],
        "model_io.model_file": [(cli, "load_model", None), (cli, "save_model", None)],
        "model_io.write_report": [(cli, "write_eval_csv", None),
                                  (cli, "write_superclass_csv", None),
                                  (cli, "write_dendrogram_csv", None)],
        "data.standardize": [(m, f, None) for m in (cli, evaluation)
                             for f in ("fit_standardizer", "standardize")]
                            + [(cli, "destandardize", None)],
        "trainer.train": [(m, "train", count_iters) for m in (cli, evaluation, imputation)],
        "trainer.classify": [(m, "classify_supplementary", count_rows) for m in (cli, trainer)],
        "imputation.impute": [(m, "impute", count_fills) for m in (cli, evaluation, imputation)],
        "imputation.impute_multi": [(m, "impute_multi", None) for m in (cli, evaluation)],
        "imputation.impute_ensemble": [(imputation, "impute_ensemble", None)],
        "superclass.ward": [(cli, "hierarchical_codes", None)],
        "superclass.rows": [(cli, "superclass_of_rows", None)],
        "evaluation.deletion_curve": [(cli, "deletion_curve", None)],
        "evaluation.mask_random": [(evaluation, "mask_random", count_one)],
        "evaluation.rmse": [(evaluation, "rmse_deleted", None)],
        "evaluation.baseline": [(evaluation, "mean_impute_baseline", None)],
        "render.curve_svg": [(cli, "render_curve_svg", None)],
    }
    for name, sites in layers.items():
        for module, attr, count in sites:
            tracer.wrap(module, attr, name, count)


def totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: summed duration, summed self time, summed count and
    number of calls."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict[str, float]] = {}
    for s, inner in zip(spans, child_time):
        t = out.setdefault(s["name"], {"total": 0.0, "self": 0.0, "count": 0, "calls": 0})
        dur = s["end"] - s["start"]
        t["total"] += dur
        t["self"] += dur - inner
        t["count"] += s["count"] or 0
        t["calls"] += 1
    return out
