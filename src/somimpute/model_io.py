"""CSV ingestion, model persistence, report export, manifests.

All numeric output uses 17 significant digits, which round-trips float64
exactly; every writer is deterministic byte for byte so runs can be replayed
and compared.  The table writers format each CSV line from one ``%``
template applied to one tuple of the line's values; ``csv.writer`` only
quotes the text fields (row labels, column names, categories and the missing
marker), each once.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, fields
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

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


# rows per block: the reader parses, and the table writers format, one block
# of records at a time, so that at most one block of CSV text is alive
_BLOCK_ROWS = 1024


def _utf8_lines(path, lines):
    """``lines``, read from ``path`` with ``errors="surrogateescape"``; the
    first holding a byte that is not UTF-8 is a ``ValueError`` naming it."""
    for number, line in enumerate(lines, 1):
        if not line.isascii():
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
        yield line


def _records(fh):
    """Yield each non-blank CSV record of the open file ``fh`` with the
    physical line it starts on; a line that is not UTF-8 or a record the csv
    module cannot parse is a ``ValueError`` naming the file and the line."""
    reader = csv.reader(_utf8_lines(fh.name, fh))
    line = 1
    try:
        for row in reader:
            if row:
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{fh.name}: line {reader.line_num}: {exc}") from None


def _first_bad_cell(path, records, header, numeric_idx, markers) -> ValueError:
    """The error for the first bad record or cell in row-major order, from
    one block of ``(line, row)`` data records already read (a pipe cannot be
    re-read).  Every earlier block has passed, so it is the file's first."""
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
    Records are parsed ``_BLOCK_ROWS`` at a time, so that beyond the table
    itself only one block of text is held.
    """
    markers = set(_checked_markers(missing_markers))
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        records = _records(fh)
        first = next(records, None)
        block = list(islice(records, _BLOCK_ROWS))
        if not block:
            raise ValueError(f"{path}: need a header row and at least one data row")
        header = [h.strip() for h in first[1]]
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

        values, mask, labels, cats = [], [], [], []
        while block:
            rows = [row for _, row in block]
            if any(len(row) != len(header) for row in rows):
                raise _first_bad_cell(path, block, header, numeric_idx, markers)
            block_values = np.full((len(rows), len(numeric_idx)), np.nan)
            block_mask = np.empty(block_values.shape, dtype=bool)
            for out_k, j in enumerate(numeric_idx):
                cells = list(map(str.strip, map(itemgetter(j), rows)))
                observed = ~np.fromiter(map(markers.__contains__, cells), dtype=bool,
                                        count=len(cells))
                block_mask[:, out_k] = observed
                try:
                    col = np.fromiter(map(float, compress(cells, observed.tolist())),
                                      dtype=float)
                except ValueError:
                    raise _first_bad_cell(path, block, header, numeric_idx, markers) from None
                if not np.isfinite(col).all():
                    raise _first_bad_cell(path, block, header, numeric_idx, markers)
                block_values[observed, out_k] = col
            values.append(block_values)
            mask.append(block_mask)
            labels.extend(row[label_idx].strip() for row in rows)
            if cat_idx is not None:
                cats.extend(None if c in markers else c
                            for c in (row[cat_idx].strip() for row in rows))
            block = list(islice(records, _BLOCK_ROWS))
    return DataMatrix._of(np.concatenate(values), np.concatenate(mask), tuple(labels),
                          tuple(names), None if cat_idx is None else tuple(cats), categorical_col)


# a formatted one-field record ``field,\r\n`` less its empty second field and
# its ending
_field_of_record = itemgetter(slice(None, -3))


def _quoted(fields) -> list[str]:
    """Each of the text ``fields`` as csv.writer writes it within a line.

    csv.writer quotes a field only for the characters of its line ending,
    but a CSV reader also ends a line at a lone ``\\r``; so each field is
    written in a record ending in ``\\r\\n``, which quotes a field holding
    either.  The record gets a second, empty field, because a record of one
    empty field is written as ``""``.
    """
    records = []
    csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n").writerows(
        zip(fields, repeat("")))
    return list(map(_field_of_record, records))


def _write_rows(path, header, lines) -> None:
    """Write the text fields of ``header`` quoted, then ``lines`` (each a
    formatted CSV line without its ending), with ``\\n`` line endings, one
    block of ``_BLOCK_ROWS`` lines at a time."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_quoted(header)) + "\n")
        lines = iter(lines)
        while block := list(islice(lines, _BLOCK_ROWS)):
            fh.write("\n".join(block) + "\n")


def _blocks(n_rows: int, lines_of):
    """The lines ``lines_of(block)`` gives for each slice ``block`` of at
    most ``_BLOCK_ROWS`` of ``range(n_rows)``, in order, so that a table
    writer formats one block of lines at a time."""
    return chain.from_iterable(
        lines_of(slice(lo, lo + _BLOCK_ROWS)) for lo in range(0, n_rows, _BLOCK_ROWS))


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
    if data.categorical is not None:
        header.append(data.categorical_name or "category")
    header.extend(data.col_names)
    _refuse_changed_text(header, data.row_labels, data.categorical, set(markers))

    # each line is one template, built from the row's mask, applied to the
    # row's quoted text and observed values
    cell = {True: "%.17g", False: _quoted(markers[:1])[0].replace("%", "%%")}

    def lines_of(block):
        fields = [_quoted(data.row_labels[block])]
        if data.categorical is not None:
            fields.append(_quoted([markers[0] if c is None else c
                                   for c in data.categorical[block]]))
        text = "%s," * len(fields)
        return [
            (text + ",".join([cell[o] for o in m])) % (*t, *compress(v, m))
            for t, v, m in zip(zip(*fields), data.values[block].tolist(),
                               data.mask[block].tolist())
        ]

    _write_rows(path, header, _blocks(data.n_rows, lines_of))


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


def check_model_col_names(col_names) -> None:
    """Raise for the first column name a model file cannot hold: one with a
    tab or a line break (:func:`load_model` splits the file with
    ``str.splitlines``, its header on tabs)."""
    for name in col_names:
        if "\t" in name or name.splitlines() not in ([], [name]):
            raise ValueError(f"column name {name!r} contains a tab or a line break")


def save_model(model: SomModel, path) -> None:
    """Flat text format: one header line (rows, cols, p, column names), one
    line of 17-significant-digit components per unit, then keyed provenance
    lines (standardization, schedule, mode)."""
    cb = model.codebook
    topo = cb.topology
    check_model_col_names(cb.col_names)
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


# every schedule field, so that none can be left out of the file and reset on load
_SCHEDULE_FIELDS = {f.name: type(f.default) for f in fields(TrainingSchedule)}


def load_model(path) -> SomModel:
    """Read a file written by :func:`save_model`.

    Every failure to parse or validate the file is a ValueError that names
    the path and the line (or lines) at fault.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    lines = list(_utf8_lines(path, text.splitlines()))
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
    header = ["label", "unit", "grid_row", "grid_col", "sq_distance", "status"]
    if superclass_labels is not None:
        header.append("superclass")
        superclass_labels = np.asarray(superclass_labels)
    if supplementary is not None:
        header.append("supplementary")
        supplementary = np.asarray(supplementary)

    # an unclassifiable row's "%.0s" fields take its unit and distance and
    # write nothing
    status = {True: "%s,%d,%d,%d,%.17g,ok", False: "%s,%.0s,%.0s,%.0s,%.0s,unclassifiable"}

    def lines_of(block):
        units = assignment.units[block]
        columns = [_quoted(row_labels[block]), units.tolist(),
                   (units // topology.cols).tolist(), (units % topology.cols).tolist(),
                   assignment.sq_distances[block].tolist()]
        templates = [status[u != UNCLASSIFIABLE] for u in columns[1]]
        if superclass_labels is not None:
            columns.append(superclass_labels[block].tolist())
            templates = [t + (",%.0s" if s < 0 else ",%d") for t, s in zip(templates, columns[-1])]
        if supplementary is not None:
            columns.append(["yes" if s else "no" for s in supplementary[block].tolist()])
            templates = [t + ",%s" for t in templates]
        return [t % row for t, row in zip(templates, zip(*columns))]

    _write_rows(path, header, _blocks(assignment.n_rows, lines_of))


def write_provenance_csv(path, report: ImputationReport) -> None:
    """Sidecar of the filled matrix: one line per originally-missing cell.

    Cells are named from ``report.filled``; units and seeds are listed for
    cells a map filled and left empty for cells a fallback filled.
    """
    f = report.fills
    row_labels = report.filled.row_labels
    names = _quoted(report.filled.col_names)
    # a fallback's "%.0s" field takes the row's units and writes nothing
    source = {"codebook": "%s,%s,%.17g,%s," + ";".join(map(str, f.seeds)) + ",codebook",
              "column-mean": "%s,%s,%.17g,%.0s,,column-mean"}

    def lines_of(block):
        rows, cols = f.rows[block], f.cols[block]
        # each row's label quoted and its winners joined once, for all of
        # its cells in the block
        held = np.unique(rows)
        joined = (";".join(map(str, w)) for w in f.winners[held].tolist())
        text = dict(zip(held.tolist(), zip(_quoted([row_labels[i] for i in held.tolist()]),
                                           joined)))
        return [
            source[s] % (text[i][0], names[k], v, text[i][1])
            for i, k, v, s in zip(rows.tolist(), cols.tolist(),
                                  report.filled.values[rows, cols].tolist(),
                                  f.source_of(block).tolist())
        ]

    unresolved = report.unresolved

    def unresolved_of(block):
        cells = unresolved[block]
        return [
            "%s,%s,,,,unresolved" % (label, names[k])
            for label, (_, k) in zip(_quoted([row_labels[i] for i, _ in cells]), cells)
        ]

    _write_rows(path, ["label", "column", "estimate", "units", "seeds", "source"],
                chain(_blocks(len(f), lines_of), _blocks(len(unresolved), unresolved_of)))


def write_eval_csv(path, report: EvalReport) -> None:
    _write_rows(path, ["d", "n_cells", "rmse_som", "rmse_mean", "n_unresolved"], (
        "%s,%s,%.17g,%.17g,%s" % (d, report.n_cells[d], report.rmse_som[d],
                                  report.rmse_mean_baseline[d], report.n_unresolved[d])
        for d in report.d_values
    ))


def write_dendrogram_csv(path, sc: SuperClassing) -> None:
    _write_rows(path, ["step", "left", "right", "height"], (
        "%s,%s,%s,%.17g" % (step, left, right, height)
        for step, (left, right, height) in enumerate(sc.dendrogram)
    ))


def write_superclass_csv(path, sc: SuperClassing) -> None:
    _write_rows(path, ["unit", "superclass"],
                ("%d,%d" % (u, sc.labels[u]) for u in range(sc.n_units)))


def sha256_file(path) -> str:
    """Hex sha256 of the file's bytes, read in chunks of 64 KiB."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, entries: dict) -> None:
    """key=value text, keys sorted, values json-encoded."""
    lines = [f"{key}={json.dumps(entries[key])}" for key in sorted(entries)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> dict:
    """The entries :func:`write_manifest` wrote; a line that is not UTF-8
    ``key=<json>`` is an error naming the file and the line."""
    out = {}
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    for number, line in enumerate(_utf8_lines(path, text.splitlines()), 1):
        if not line:
            continue
        key, eq, raw = line.partition("=")
        if not eq:
            raise ValueError(f"{path}: line {number}: not key=value: {key!r}")
        try:
            out[key] = json.loads(raw)
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {key}: {exc}") from None
    return out
