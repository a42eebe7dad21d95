"""CSV ingestion, model persistence, report export, manifests.

All numeric output uses 17 significant digits, which round-trips float64
exactly; every writer is deterministic byte for byte so runs can be replayed
and compared.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .data import DataMatrix, StandardizationParams
from .evaluation import EvalReport
from .imputation import ImputationReport
from .metric import UNCLASSIFIABLE, Assignment, CodeBook
from .superclass import SuperClassing
from .topology import GridTopology
from .trainer import TrainingMode, TrainingSchedule

DEFAULT_MISSING_MARKERS = ("", "NA")


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _records(path: Path):
    """Yield each non-blank CSV record with the physical line it starts on;
    a UTF-8 byte order mark is dropped."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        line = 1
        for row in reader:
            if row:
                yield line, row
            line = reader.line_num + 1


def _first_bad_cell(path, header, numeric_idx, markers) -> ValueError:
    """The error for the first bad record or cell in row-major order."""
    records = _records(path)
    next(records)
    for line, row in records:
        if len(row) != len(header):
            return ValueError(
                f"{path}: line {line} has {len(row)} fields, header has {len(header)}"
            )
        for j in numeric_idx:
            cell = row[j].strip()
            if cell in markers:
                continue
            try:
                v = float(cell)
            except ValueError:
                return ValueError(
                    f"{path}: line {line}, column {header[j]!r}: cannot parse {cell!r}"
                )
            if not math.isfinite(v):
                return ValueError(
                    f"{path}: line {line}, column {header[j]!r}: value {cell!r} is not finite"
                )
    raise AssertionError("no bad cell found")


def _checked_markers(markers) -> tuple[str, ...]:
    """``markers`` as a tuple.  Cells are compared after stripping, so a
    marker with surrounding whitespace would never match: it is refused."""
    markers = tuple(markers)
    for m in markers:
        if m != m.strip():
            raise ValueError(f"missing marker {m!r} has surrounding whitespace")
    return markers


def read_csv(
    path,
    missing_markers=DEFAULT_MISSING_MARKERS,
    label_col: str | None = None,
    categorical_col: str | None = None,
) -> DataMatrix:
    """Load a rectangular CSV with a header row into a DataMatrix.

    The label column defaults to the first one; cells equal to a missing
    marker after stripping surrounding whitespace (so a marker that has any
    is refused) are masked, everything else must parse as a finite decimal.
    Blank lines are skipped (messages keep physical line numbers) and a
    UTF-8 byte order mark is ignored.  Numeric column names must be unique.
    """
    markers = set(_checked_markers(missing_markers))
    path = Path(path)
    rows = [row for _, row in _records(path)]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one data row")
    header = [h.strip() for h in rows.pop(0)]
    if label_col is None:
        label_idx = 0
    else:
        if label_col not in header:
            raise ValueError(f"{path}: label column {label_col!r} not in header")
        label_idx = header.index(label_col)
    cat_idx = None
    if categorical_col is not None:
        if categorical_col not in header:
            raise ValueError(f"{path}: categorical column {categorical_col!r} not in header")
        cat_idx = header.index(categorical_col)
        if cat_idx == label_idx:
            raise ValueError(f"{path}: categorical column cannot be the label column")
    numeric_idx = [j for j in range(len(header)) if j != label_idx and j != cat_idx]
    if not numeric_idx:
        raise ValueError(f"{path}: no numeric columns")
    names = [header[j] for j in numeric_idx]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"{path}: duplicate column name {name!r}")

    if any(len(row) != len(header) for row in rows):
        raise _first_bad_cell(path, header, numeric_idx, markers)
    values = np.full((len(rows), len(numeric_idx)), np.nan)
    mask = np.empty(values.shape, dtype=bool)
    for out_k, j in enumerate(numeric_idx):
        cells = list(map(str.strip, map(itemgetter(j), rows)))
        observed = ~np.fromiter(map(markers.__contains__, cells), dtype=bool, count=len(cells))
        mask[:, out_k] = observed
        try:
            col = np.fromiter(map(float, compress(cells, observed.tolist())), dtype=float)
        except ValueError:
            raise _first_bad_cell(path, header, numeric_idx, markers) from None
        if not np.isfinite(col).all():
            raise _first_bad_cell(path, header, numeric_idx, markers)
        values[mask[:, out_k], out_k] = col
    labels = tuple(row[label_idx].strip() for row in rows)
    cats = None
    if cat_idx is not None:
        cats = tuple(None if c in markers else c for c in (row[cat_idx].strip() for row in rows))
    return DataMatrix(values, mask, labels, tuple(names), cats, categorical_col)


def _write_rows(path, header, rows) -> None:
    """Write ``header`` then ``rows`` as CSV with ``\\n`` line endings."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _refuse_changed_text(header, labels, categories, markers) -> None:
    """Raise for the first header name, row label or category that
    :func:`read_csv` would read back changed: it strips surrounding
    whitespace from all three and reads a category equal to one of
    ``markers`` as missing."""
    for j, name in enumerate(header):
        if name != name.strip():
            raise ValueError(f"header, column {j}: {name!r} has surrounding whitespace")
    for i, label in enumerate(labels):
        if label != label.strip():
            raise ValueError(f"row {i}, column {header[0]!r}: {label!r} has surrounding whitespace")
    for i, cat in enumerate(categories or ()):
        if cat is None:
            continue
        if cat != cat.strip():
            raise ValueError(f"row {i}, column {header[1]!r}: {cat!r} has surrounding whitespace")
        if cat in markers:
            raise ValueError(f"row {i}, column {header[1]!r}: category {cat!r} is a missing marker")


def write_csv(data: DataMatrix, path, markers=DEFAULT_MISSING_MARKERS) -> None:
    """Write a DataMatrix back out; masked cells and missing categories
    become ``markers[0]``.

    Text that :func:`read_csv` with ``markers`` would read back changed (a
    header name, row label or category with surrounding whitespace, or a
    category equal to one of ``markers``) is a ``ValueError`` naming its
    row and column, raised before the file is opened.
    """
    header = ["label"]
    columns: list = [data.row_labels]
    if data.categorical is not None:
        header.append(data.categorical_name or "category")
        columns.append([markers[0] if c is None else c for c in data.categorical])
    header.extend(data.col_names)
    _refuse_changed_text(header, data.row_labels, data.categorical, set(markers))
    for k in range(data.n_cols):
        columns.append([
            fmt17(v) if m else markers[0]
            for v, m in zip(data.values[:, k].tolist(), data.mask[:, k].tolist())
        ])
    _write_rows(path, header, zip(*columns))


@dataclass(frozen=True)
class SomModel:
    """The persisted training artifact: codes plus everything needed to
    classify or impute new data in the same space."""

    codebook: CodeBook
    standardizer: StandardizationParams
    schedule: TrainingSchedule
    mode: TrainingMode

    def __post_init__(self) -> None:
        if self.standardizer.n_cols != self.codebook.n_features:
            raise ValueError(
                f"standardizer has {self.standardizer.n_cols} columns, "
                f"codebook has {self.codebook.n_features}"
            )


def save_model(model: SomModel, path) -> None:
    """Flat text format: one header line (rows, cols, p, column names), one
    line of 17-significant-digit components per unit, then keyed provenance
    lines (standardization, schedule, mode)."""
    cb = model.codebook
    topo = cb.topology
    for name in cb.col_names:
        # load_model splits the file with str.splitlines, the header on tabs
        if "\t" in name or name.splitlines() not in ([], [name]):
            raise ValueError(f"column name {name!r} contains a tab or a line break")
    lines = ["\t".join([str(topo.rows), str(topo.cols), str(cb.n_features), *cb.col_names])]
    for u in range(cb.n_units):
        lines.append("\t".join(fmt17(v) for v in cb.codes[u]))
    lines.append("mean\t" + "\t".join(fmt17(v) for v in model.standardizer.means))
    lines.append("std\t" + "\t".join(fmt17(v) for v in model.standardizer.stds))
    lines.append("\t".join(["schedule"] + [
        f"{key}={(fmt17 if parse is float else str)(getattr(model.schedule, key))}"
        for key, parse in _SCHEDULE_FIELDS.items()
    ]))
    lines.append(f"mode\t{model.mode.value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_SCHEDULE_FIELDS = {"total_iters": int, "alpha0": float, "alpha_final": float,
                    "radius0": int, "zero_radius_fraction": float, "rng_seed": int}


def load_model(path) -> SomModel:
    """Read a file written by :func:`save_model`.

    Every failure to parse or validate the file is a ValueError that names
    the path and the line (or lines) at fault.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    where = "line 1"
    try:
        if not lines:
            raise ValueError("empty model file")
        head = lines[0].split("\t")
        if len(head) < 4:
            raise ValueError("malformed header line")
        rows, cols, p = (int(v) for v in head[:3])
        col_names = tuple(head[3:])
        if len(col_names) != p:
            raise ValueError(f"header promises {p} column names, found {len(col_names)}")
        topo = GridTopology(rows, cols)
        n_units = topo.n_units
        codes = np.empty((n_units, p))
        for u in range(n_units):
            where = f"line {2 + u}"
            if 1 + u >= len(lines):
                raise ValueError(f"expected {n_units} unit lines")
            parts = lines[1 + u].split("\t")
            if len(parts) != p:
                raise ValueError(f"unit line {u} has {len(parts)} components, expected {p}")
            codes[u] = [float(v) for v in parts]
        where = f"lines 2-{1 + n_units}"
        codebook = CodeBook(codes, topo, col_names)

        numbered: dict[str, tuple[int, list[str]]] = {}
        for number, line in enumerate(lines[1 + n_units :], start=2 + n_units):
            if line:
                key, *rest = line.split("\t")
                numbered[key] = (number, rest)
        where = "end of file"
        for required in ("mean", "std", "schedule", "mode"):
            if required not in numbered:
                raise ValueError(f"missing {required!r} line")

        number, items = numbered["schedule"]
        where = f"line {number}"
        given = {}
        for item in items:
            key, eq, value = item.partition("=")
            if not eq:
                raise ValueError(f"schedule item {item!r} is not key=value")
            given[key] = value
        for key in _SCHEDULE_FIELDS:
            if key not in given:
                raise ValueError(f"schedule has no {key}=")
        schedule = TrainingSchedule(
            **{key: parse(given[key]) for key, parse in _SCHEDULE_FIELDS.items()}
        )

        number, rest = numbered["mode"]
        where = f"line {number}"
        mode = TrainingMode("\t".join(rest))

        (mean_at, means), (std_at, stds) = numbered["mean"], numbered["std"]
        where = f"line {mean_at}"
        means = np.array([float(v) for v in means])
        where = f"line {std_at}"
        stds = np.array([float(v) for v in stds])
        # the standardizer's own checks and its length against the codebook's
        where = f"lines {mean_at}, {std_at}"
        return SomModel(codebook, StandardizationParams(means, stds), schedule, mode)
    except ValueError as exc:
        raise ValueError(f"{path}: {where}: {exc}") from None


def write_assignment_csv(
    path,
    row_labels,
    assignment: Assignment,
    topology: GridTopology,
    superclass_labels=None,
    supplementary=None,
) -> None:
    units = assignment.units
    ok = (units != UNCLASSIFIABLE).tolist()

    def classified_only(cells):
        return [c if o else "" for c, o in zip(cells, ok)]

    header = ["label", "unit", "grid_row", "grid_col", "sq_distance", "status"]
    columns = [
        list(row_labels),
        classified_only(map(str, units.tolist())),
        classified_only(map(str, (units // topology.cols).tolist())),
        classified_only(map(str, (units % topology.cols).tolist())),
        classified_only(map(fmt17, assignment.sq_distances.tolist())),
        ["ok" if o else "unclassifiable" for o in ok],
    ]
    if superclass_labels is not None:
        header.append("superclass")
        labels = np.asarray(superclass_labels).tolist()
        columns.append(["" if s < 0 else str(int(s)) for s in labels])
    if supplementary is not None:
        header.append("supplementary")
        columns.append(["yes" if s else "no" for s in np.asarray(supplementary).tolist()])
    _write_rows(path, header, zip(*columns))


def write_provenance_csv(path, report: ImputationReport, row_labels, col_names) -> None:
    """Sidecar of the filled matrix: one line per originally-missing cell.

    Units and seeds are listed for cells a map filled and left empty for
    cells a fallback filled.
    """
    f = report.fills
    rows, source = f.rows.tolist(), f.source.tolist()
    from_map = [s == "codebook" for s in source]
    seeds = ";".join(str(s) for s in f.seeds)
    # each row's winners joined once, for all of its cells
    units = [";".join(map(str, w)) for w in f.winners.tolist()]
    filled = zip(
        [row_labels[i] for i in rows],
        [col_names[k] for k in f.cols.tolist()],
        map(fmt17, report.filled.values[f.rows, f.cols].tolist()),
        [units[i] if m else "" for i, m in zip(rows, from_map)],
        [seeds if m else "" for m in from_map],
        source,
    )
    unresolved = ([row_labels[i], col_names[k], "", "", "", "unresolved"]
                  for i, k in report.unresolved)
    _write_rows(path, ["label", "column", "estimate", "units", "seeds", "source"],
                chain(filled, unresolved))


def write_eval_csv(path, report: EvalReport) -> None:
    _write_rows(path, ["d", "n_cells", "rmse_som", "rmse_mean", "n_unresolved"], (
        [
            str(d),
            str(report.n_cells[d]),
            fmt17(report.rmse_som[d]),
            fmt17(report.rmse_mean_baseline[d]),
            str(report.n_unresolved[d]),
        ]
        for d in report.d_values
    ))


def write_dendrogram_csv(path, sc: SuperClassing) -> None:
    _write_rows(path, ["step", "left", "right", "height"], (
        [str(step), str(left), str(right), fmt17(height)]
        for step, (left, right, height) in enumerate(sc.dendrogram)
    ))


def write_superclass_csv(path, sc: SuperClassing) -> None:
    _write_rows(path, ["unit", "superclass"],
                ([str(u), str(int(sc.labels[u]))] for u in range(sc.n_units)))


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path, entries: dict) -> None:
    """key=value text, keys sorted, values json-encoded."""
    lines = [f"{key}={json.dumps(entries[key])}" for key in sorted(entries)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        key, _, raw = line.partition("=")
        out[key] = json.loads(raw)
    return out
