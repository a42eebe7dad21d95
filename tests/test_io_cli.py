import csv
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from somimpute import (
    Assignment,
    CodeBook,
    DataMatrix,
    Fills,
    GridTopology,
    ImputationReport,
    StandardizationParams,
    TrainingMode,
    TrainingSchedule,
    classify_supplementary,
    cli,
    fit_standardizer,
    impute,
    model_io,
    standardize,
)
from somimpute import data as data_module
from somimpute import trainer as trainer_module
from somimpute.cli import _destandardized_report, main
from somimpute.model_io import (
    SomModel,
    load_model,
    read_csv,
    read_manifest,
    save_model,
    write_assignment_csv,
    write_csv,
    write_manifest,
    write_provenance_csv,
)
from somimpute.render import render_map_svg, render_map_text
from somimpute.synthetic import correlated_clusters
from conftest import random_incomplete
from helpers import (reference_write_assignment_csv, reference_write_csv,
                     reference_write_provenance_csv)


class TestReadCsv:
    def test_markers_and_parsing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x,y\nr1,3.5,NA\nr2,, -1.25 \n")
        data = read_csv(path)
        assert data.row_labels == ("r1", "r2")
        assert data.col_names == ("x", "y")
        assert data.mask.tolist() == [[True, False], [False, True]]
        assert data.values[0, 0] == 3.5
        assert data.values[1, 1] == -1.25

    def test_custom_marker(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x\nr1,?\nr2,1\n")
        data = read_csv(path, missing_markers=("?",))
        assert data.mask.tolist() == [[False], [True]]

    @pytest.mark.parametrize("marker", [" ?", "? ", "\t?", "NA\n", " "],
                             ids=["leading-space", "trailing-space", "tab", "newline", "blank"])
    def test_marker_with_surrounding_whitespace_rejected(self, tmp_path, marker):
        # cells are compared after stripping, so such a marker never matches
        path = tmp_path / "d.csv"
        path.write_text(f"id,x,y\nr1,1,{marker}\nr2,2,3\n")
        with pytest.raises(ValueError, match=f"missing marker {re.escape(repr(marker))}"):
            read_csv(path, missing_markers=("", marker))

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x,y\nr1,1,2\nr2,3\n")
        with pytest.raises(ValueError, match="line 3"):
            read_csv(path)

    def test_unparseable_cell_reports_position(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x\nr1,abc\n")
        with pytest.raises(ValueError, match="line 2.*'x'"):
            read_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x\nr1,inf\n")
        with pytest.raises(ValueError, match="not finite"):
            read_csv(path)

    def test_all_missing_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x,y\nr1,1,NA\nr2,2,\n")
        with pytest.raises(ValueError, match="'y'"):
            read_csv(path)

    def test_categorical_and_named_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("level,name,x\nhigh,r1,1\n,r2,2\n")
        data = read_csv(path, label_col="name", categorical_col="level")
        assert data.row_labels == ("r1", "r2")
        assert data.categorical == ("high", None)
        assert data.col_names == ("x",)

    def test_unknown_columns_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x\nr1,1\n")
        with pytest.raises(ValueError, match="label column"):
            read_csv(path, label_col="nope")
        with pytest.raises(ValueError, match="categorical column"):
            read_csv(path, categorical_col="nope")

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x\nr1,1\n\nr2,2\n\n")
        data = read_csv(path)
        assert data.row_labels == ("r1", "r2")
        assert data.values[:, 0].tolist() == [1.0, 2.0]

    def test_messages_keep_physical_line_numbers(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x\n\nr1,1\n\nr2,abc\n")
        with pytest.raises(ValueError, match="line 5, column 'x'"):
            read_csv(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes("name,x\nr1,1\nr2,2\n".encode("utf-8-sig"))
        data = read_csv(path, label_col="name")
        assert data.row_labels == ("r1", "r2")
        assert data.col_names == ("x",)

    def test_duplicate_numeric_column_names_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x,y,x\nr1,1,2,3\n")
        with pytest.raises(ValueError, match="duplicate column name 'x'"):
            read_csv(path)

    def test_first_bad_cell_in_row_major_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x,y\nr1,1,abc\nr2,zzz,inf\n")
        with pytest.raises(ValueError, match="line 2, column 'y': cannot parse 'abc'"):
            read_csv(path)
        path.write_text("id,x,y\nr1,1,inf\nr2,zzz,2\n")
        with pytest.raises(ValueError, match="line 2, column 'y'.*not finite"):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["1_000", "1_0", "1e1_0", "\u0661\u0662", "\uff11\uff12"],
                             ids=["digit-separator", "separator-typo", "exponent-separator",
                                  "arabic-indic", "fullwidth"])
    def test_a_number_is_ascii_without_digit_separators(self, tmp_path, cell):
        # float() reads PEP 515 separators and any Unicode digit; a cell may hold neither
        path = tmp_path / "d.csv"
        path.write_text(f"id,x\nr1,{cell}\nr2,2\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_csv(path)
        assert str(info.value) == f"{path}: line 2, column 'x': cannot parse {cell!r}"

    def test_bad_cell_before_ragged_row_reported_first(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x\nr1,abc\nr2,1,2\n")
        with pytest.raises(ValueError, match="line 2, column 'x'"):
            read_csv(path)
        path.write_text("id,x\nr1,1,2\nr2,abc\n")
        with pytest.raises(ValueError, match="line 2 has 3 fields"):
            read_csv(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
    @pytest.mark.parametrize("text, message", [
        ("id,x\nr1,1\nr2,abc\n", "line 3, column 'x': cannot parse 'abc'"),
        ("id,x\nr1,1\nr2,1,2\n", "line 3 has 3 fields, header has 2"),
        ("id,x\nr1,1\nr\udcff2,1\n",
         "line 3: 'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"),
    ], ids=["unparseable", "ragged", "undecodable"])
    def test_bad_cell_in_a_pipe_is_located(self, text, message):
        # a pipe can be read only once: the error must come from that one read
        r, w = os.pipe()
        os.write(w, text.encode("utf-8", "surrogateescape"))
        os.close(w)
        try:
            with pytest.raises(ValueError, match=re.escape(message)):
                read_csv(f"/dev/fd/{r}")
        finally:
            os.close(r)

    def test_oversized_field_names_the_file_and_line(self, tmp_path, capsys):
        # csv.reader refuses a field longer than its limit (131 072 characters)
        path = tmp_path / "d.csv"
        path.write_text("id,x\nr1,1\n\nr2," + "1" * 200_000 + "\nr3,2\n")
        message = f"{path}: line 4: field larger than field limit"
        with pytest.raises(ValueError, match=re.escape(message)):
            read_csv(path)
        rc = main(["impute", "--input", str(path), "--output-dir", str(tmp_path / "o"),
                   "--grid-rows", "1", "--grid-cols", "2", "--iters", "10"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()


class TestReadCsvInBlocks:
    """Blocks of 3 records: every message equals the one a single block gives."""

    @pytest.fixture(autouse=True)
    def _blocks_of_three(self, monkeypatch):
        monkeypatch.setattr(model_io, "_BLOCK_ROWS", 3)

    @staticmethod
    def _error(path) -> str:
        with pytest.raises(ValueError) as info:
            read_csv(path)
        return str(info.value)

    @staticmethod
    def _table(tmp_path, cells: dict[int, str], n=9) -> Path:
        """Header ``id,x,y`` and ``n`` rows ``r<i>,<i>,1``, the ``x`` field of
        row ``i`` replaced by ``cells[i]``; row ``i`` is on line ``i + 2``."""
        path = tmp_path / "d.csv"
        path.write_text("id,x,y\n" + "".join(
            f"r{i},{cells.get(i, i)},1\n" for i in range(n)))
        return path

    @pytest.mark.parametrize("row", [0, 4, 8], ids=["first", "middle", "last"])
    def test_bad_cell_in_any_block(self, tmp_path, row):
        path = self._table(tmp_path, {row: "abc"})
        assert self._error(path) == f"{path}: line {row + 2}, column 'x': cannot parse 'abc'"

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662"],
                             ids=["digit-separator", "arabic-indic"])
    def test_non_ascii_or_separated_number_in_a_middle_block(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text("id,x,y\n" + "".join(
            f"r{i},{cell if i == 4 else i},1\n" for i in range(9)), encoding="utf-8")
        assert self._error(path) == f"{path}: line 6, column 'x': cannot parse {cell!r}"

    def test_non_finite_cell_in_a_middle_block(self, tmp_path):
        path = self._table(tmp_path, {4: "inf"})
        assert self._error(path) == f"{path}: line 6, column 'x': value 'inf' is not finite"

    @pytest.mark.parametrize("row", [3, 5], ids=["first-of-block", "last-of-block"])
    def test_ragged_row_at_a_block_edge(self, tmp_path, row):
        path = self._table(tmp_path, {row: "1,2"})
        assert self._error(path) == f"{path}: line {row + 2} has 4 fields, header has 3"

    def test_bad_cell_in_an_earlier_block_than_a_ragged_row(self, tmp_path):
        path = self._table(tmp_path, {1: "abc", 4: "1,2"})
        assert self._error(path) == f"{path}: line 3, column 'x': cannot parse 'abc'"
        path = self._table(tmp_path, {1: "1,2", 4: "abc"})
        assert self._error(path) == f"{path}: line 3 has 4 fields, header has 3"

    def test_undecodable_byte_in_a_later_block(self, tmp_path):
        # a row holding "é" decodes; one holding a stray 0xff byte does not
        path = tmp_path / "d.csv"
        path.write_bytes(b"id,x,y\n" + b"".join(
            b"r%d,%d,1\n" % (i, i) for i in range(5)) + b"caf\xc3\xa9,5,1\nr\xff6,6,1\n")
        assert self._error(path) == (f"{path}: line 8: 'utf-8' codec can't decode byte 0xff "
                                     "in position 1: invalid start byte")

    def test_blank_lines_across_a_block_edge_keep_physical_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x\nr0,0\nr1,1\nr2,2\n\n\nr3,3\nr4,4\n")
        data = read_csv(path)
        assert data.row_labels == ("r0", "r1", "r2", "r3", "r4")
        assert data.values[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        path.write_text("id,x\nr0,0\nr1,1\nr2,2\n\n\nr3,3\nr4,abc\n")
        assert self._error(path) == f"{path}: line 8, column 'x': cannot parse 'abc'"

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes("name,x\nr0,0\nr1,1\nr2,2\nr3,3\n".encode("utf-8-sig"))
        data = read_csv(path, label_col="name")
        assert data.row_labels == ("r0", "r1", "r2", "r3")
        assert data.col_names == ("x",)
        path.write_bytes("name,x\nr0,0\nr1,1\nr2,2\nr3,abc\n".encode("utf-8-sig"))
        assert self._error(path) == f"{path}: line 5, column 'x': cannot parse 'abc'"

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x,y\n\n")
        assert self._error(path) == f"{path}: need a header row and at least one data row"

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
    def test_bad_cell_in_a_pipe(self):
        r, w = os.pipe()
        os.write(w, b"id,x\nr0,0\nr1,1\nr2,2\nr3,3\nr4,abc\n")
        os.close(w)
        try:
            assert self._error(f"/dev/fd/{r}") == (
                f"/dev/fd/{r}: line 6, column 'x': cannot parse 'abc'")
        finally:
            os.close(r)


@st.composite
def _holed_tables(draw, categorical=False):
    n = draw(st.integers(1, 6))
    p = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(draw(st.lists(finite, min_size=n * p, max_size=n * p))).reshape(n, p)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p)))
    mask = mask.reshape(n, p)
    mask[0, ~mask.any(axis=0)] = True  # every column keeps an observed value
    cats = None
    if categorical:
        # text write_csv accepts under the default markers: no surrounding
        # whitespace and no marker
        text = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
        cats = tuple(draw(st.lists(
            st.none() | text.filter(lambda c: c == c.strip() and c != "NA"),
            min_size=n, max_size=n)))
    return DataMatrix(values, mask, tuple(f"r{i}" for i in range(n)),
                      tuple(f"c{k}" for k in range(p)), cats, "level" if categorical else None)


@settings(max_examples=80, deadline=None)
@given(_holed_tables(), st.sampled_from(["", "NA", "?", "null", "-", "missing"]))
def test_csv_write_read_roundtrip_is_bit_exact(data, marker):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(data, path, (marker,))
        back = read_csv(path, missing_markers=(marker,))
    assert back.row_labels == data.row_labels
    assert back.col_names == data.col_names
    assert np.array_equal(back.mask, data.mask)
    assert back.values[back.mask].tobytes() == data.values[data.mask].tobytes()


@st.composite
def _table_outputs(draw):
    """A table with a categorical column, plus an assignment of its rows
    and an imputation report over its holes, for the table writers."""
    data = draw(_holed_tables(categorical=True))
    n = data.n_rows
    topo = GridTopology(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    units = np.array(draw(st.lists(st.integers(-1, topo.n_units - 1), min_size=n, max_size=n)))
    dists = np.array(draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n)))
    dists[units < 0] = np.nan
    assignment = Assignment(units, dists, topo.n_units)
    superclasses = np.where(units < 0, -1, units % 2)
    supplementary = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    # some holes filled, the rest unresolved; rows without winners are
    # column-mean fills
    rows, cols = np.nonzero(~data.mask)
    keep = np.array(draw(st.lists(st.booleans(), min_size=rows.size, max_size=rows.size)),
                    dtype=bool)
    n_maps = draw(st.integers(1, 3))
    winners = np.array(draw(st.lists(st.integers(-1, topo.n_units - 1),
                                     min_size=n * n_maps, max_size=n * n_maps)))
    fills = Fills(rows[keep], cols[keep], winners.reshape(n, n_maps),
                  draw(st.sampled_from([(), tuple(range(7, 7 + n_maps))])))
    values, mask = data.values.copy(), data.mask.copy()
    values[fills.rows, fills.cols] = draw(st.floats(-1e9, 1e9))
    mask[fills.rows, fills.cols] = True
    report = ImputationReport(data.with_cells(values, mask), fills)
    return data, assignment, topo, superclasses, supplementary, report


def _read_or_error(path):
    """What :func:`read_csv` makes of ``path``: the table's parts, or its error."""
    try:
        d = read_csv(path, categorical_col="level")
    except ValueError as exc:
        return str(exc)
    return d.values.tobytes(), d.mask.tobytes(), d.row_labels, d.col_names, d.categorical


@settings(max_examples=60, deadline=None)
@given(_table_outputs())
def test_block_size_changes_no_byte(outputs):
    data, assignment, topo, superclasses, supplementary, report = outputs
    seen = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        tmp = Path(tmp)
        for block_rows in (1, 3, model_io._BLOCK_ROWS):
            mp.setattr(model_io, "_BLOCK_ROWS", block_rows)
            write_csv(data, tmp / "t.csv")
            write_assignment_csv(tmp / "a.csv", data.row_labels, assignment, topo)
            write_assignment_csv(tmp / "a_sc.csv", data.row_labels, assignment, topo,
                                 superclass_labels=superclasses, supplementary=supplementary)
            write_provenance_csv(tmp / "p.csv", report)
            files = {name: (tmp / name).read_bytes()
                     for name in ("t.csv", "a.csv", "a_sc.csv", "p.csv")}
            seen.append((files, _read_or_error(tmp / "t.csv")))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0][0]["p.csv"].count(b",unresolved\n") == len(report.unresolved)


# text the writers must quote or pass through as it is: a separator, a quote,
# line breaks, printf's "%", empty text and non-ASCII text
_clean_text = st.text(st.sampled_from(list(',"\r\n%aé€ ')), max_size=4).filter(
    lambda t: t == t.strip())


@st.composite
def _awkward_outputs(draw):
    """:func:`_table_outputs` with awkward labels, names and categories, and
    one or two missing markers, the first not always a default one.  Now and
    then the first label or column name is padded, which write_csv refuses."""
    data, assignment, topo, superclasses, supplementary, report = draw(_table_outputs())
    n, p = data.n_rows, data.n_cols
    labels = draw(st.lists(_clean_text, min_size=n, max_size=n))
    names = draw(st.lists(_clean_text, min_size=p, max_size=p))
    padded = draw(st.sampled_from([None, None, None, labels, names]))
    if padded is not None:
        padded[0] = f" {padded[0]}"
    data = replace(
        data, row_labels=tuple(labels), col_names=tuple(names),
        categorical=tuple(draw(st.lists(st.none() | _clean_text.filter(bool),
                                        min_size=n, max_size=n))),
        categorical_name=draw(_clean_text),
    )
    report = replace(report, filled=replace(report.filled, row_labels=data.row_labels,
                                            col_names=data.col_names))
    markers = tuple(draw(st.lists(
        st.sampled_from(["", "NA", "?", "%", "%s", "%%d", "a,b", 'q"', "m\rm", "né"]),
        min_size=1, max_size=2)))
    return data, markers, assignment, topo, superclasses, supplementary, report


def _written(tmp, write_table, write_assignments, write_provenance, outputs):
    """The bytes each writer writes for ``outputs``, or the error it raises."""
    data, markers, assignment, topo, superclasses, supplementary, report = outputs
    calls = {
        "t.csv": lambda path: write_table(data, path, markers),
        "a.csv": lambda path: write_assignments(path, data.row_labels, assignment, topo),
        "a_sc.csv": lambda path: write_assignments(
            path, data.row_labels, assignment, topo,
            superclass_labels=superclasses, supplementary=supplementary),
        "p.csv": lambda path: write_provenance(path, report),
    }
    out = {}
    for name, call in calls.items():
        path = tmp / name
        try:
            call(path)
            out[name] = path.read_bytes()
        except Exception as exc:
            out[name] = f"{type(exc).__name__}: {exc}"
        path.unlink(missing_ok=True)
    return out


@settings(max_examples=100, deadline=None)
@given(_awkward_outputs())
def test_table_writers_write_the_reference_writers_bytes(outputs):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        tmp = Path(tmp)
        want = _written(tmp, reference_write_csv, reference_write_assignment_csv,
                        reference_write_provenance_csv, outputs)
        for block_rows in (1, 3, model_io._BLOCK_ROWS):
            mp.setattr(model_io, "_BLOCK_ROWS", block_rows)
            got = _written(tmp, write_csv, write_assignment_csv, write_provenance_csv, outputs)
            assert got == want, block_rows


def test_csv_io_holds_about_one_block_of_text(tmp_path, monkeypatch):
    # peak traced bytes less what the call keeps, per row of a 20 000 x 20
    # table; holding every row's text at once costs about 1 300 B (write)
    # and 1 800 B (read) per row
    monkeypatch.setattr(model_io, "_BLOCK_ROWS", 256)
    n = 20_000
    rng = np.random.default_rng(4)
    data = DataMatrix(rng.normal(size=(n, 20)), rng.random((n, 20)) > 0.2,
                      tuple(f"r{i}" for i in range(n)), tuple(f"c{k}" for k in range(20)))
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        write_csv(data, path)
        kept, peak = tracemalloc.get_traced_memory()
        write_per_row = (peak - kept) / n
        tracemalloc.reset_peak()
        back = read_csv(path)
        kept, peak = tracemalloc.get_traced_memory()
        read_per_row = (peak - kept) / n
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.mask, data.mask)
    assert read_per_row < 900, read_per_row
    assert write_per_row < 600, write_per_row


def test_impute_path_holds_each_table_about_once(tmp_path):
    # peak traced bytes less what the run keeps, per cell of a 20 000 x 20
    # table taken from CSV through standardize and impute back to its own
    # units; one more float copy of the table costs 8 B per cell, and
    # building one at every stage cost 26.4 B where handing each over costs
    # 10.4 B
    n, p = 20_000, 20
    rng = np.random.default_rng(5)
    data = DataMatrix(rng.normal(size=(n, p)), rng.random((n, p)) > 0.2,
                      tuple(f"r{i}" for i in range(n)), tuple(f"c{k}" for k in range(p)))
    codebook = CodeBook(rng.normal(size=(16, p)), GridTopology(4, 4), data.col_names)
    path = tmp_path / "t.csv"
    write_csv(data, path)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        table = read_csv(path)
        params = fit_standardizer(table)
        std = standardize(table, params)
        report = impute(codebook, std)
        del std
        out = _destandardized_report(report, table, params)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.filled.values[data.mask], data.values[data.mask])
    per_cell = (peak - kept) / (n * p)
    assert per_cell < 16, per_cell


def test_output_step_allocates_one_table():
    # the filled table back in the input's units costs one table's values
    # and mask, one mask-sized scratch for the finiteness check, and the
    # estimates' temporaries (24 B per filled cell); destandardizing the
    # whole table and merging the observed cells back cost two tables more
    n, p = 20_000, 20
    rng = np.random.default_rng(6)
    table = DataMatrix(rng.normal(size=(n, p)), rng.random((n, p)) > 0.2,
                       tuple(f"r{i}" for i in range(n)), tuple(f"c{k}" for k in range(p)))
    params = fit_standardizer(table)
    codebook = CodeBook(rng.normal(size=(16, p)), GridTopology(4, 4), table.col_names)
    report = impute(codebook, standardize(table, params))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = _destandardized_report(report, table, params)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.filled.values[table.mask].tobytes() == table.values[table.mask].tobytes()
    allowed = table.values.nbytes + 2 * table.mask.nbytes + 24 * len(report.fills)
    assert peak <= allowed, (peak, allowed)


def test_impute_writes_its_outputs_holding_one_table(tmp_path, monkeypatch):
    # traced memory whenever impute --model writes a block of output lines,
    # on a 20 000 x 20 table and a 10 x 10 model: it streams the table, so
    # one block of rows is alive, not the table (0.5 of one table's values
    # and mask, most of it modules imported on the way); holding the output
    # table, its labels and the fills cost about 1.9, and the standardized
    # report and the raw input beside them about 4
    n, p = 20_000, 20
    rng = np.random.default_rng(7)
    data = DataMatrix(rng.normal(size=(n, p)), rng.random((n, p)) > 0.2,
                      tuple(f"r{i}" for i in range(n)), tuple(f"c{k}" for k in range(p)))
    path = tmp_path / "t.csv"
    write_csv(data, path)
    codebook = CodeBook(rng.normal(size=(100, p)), GridTopology(10, 10), data.col_names)
    save_model(SomModel(codebook, fit_standardizer(data), TrainingSchedule(),
                        TrainingMode.INCLUDE_INCOMPLETE), tmp_path / "model.txt")
    at_write = []
    append = cli._append_rows

    def traced_append(*args, **kwargs):
        at_write.append(tracemalloc.get_traced_memory()[0])
        return append(*args, **kwargs)

    monkeypatch.setattr(cli, "_append_rows", traced_append)
    tracemalloc.start()
    try:
        rc = main(["impute", "--input", str(path), "--model", str(tmp_path / "model.txt"),
                   "--output-dir", str(tmp_path / "out")])
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert len(at_write) == 2 * -(-n // model_io._BLOCK_ROWS)
    table = data.values.nbytes + data.mask.nbytes
    assert max(at_write) < table, max(at_write) / table


def test_block_size_changes_no_byte_of_the_model_commands(tmp_path, monkeypatch):
    # blocks of 1 and 3 rows against one block: two all-missing rows meet at
    # the boundary of the first two blocks of 3, and blocks hold complete
    # rows, holed rows and missing categories
    _write_training_csv(tmp_path / "train.csv")
    assert main(_train_args(tmp_path / "train.csv", tmp_path / "run")) == 0
    rows = ["1,2,3,4", "1,NA,3,4", "NA,NA,NA,NA", "NA,NA,NA,NA", "5,NA,NA,1", "2,2,2,2",
            "NA,0.5,1,1", "NA,NA,NA,NA", "3,1,NA,0", "0,0,0,0"]
    (tmp_path / "t.csv").write_text("id,level,x,y,z,w\n" + "".join(
        f"r{i},{['lo', 'hi', 'NA'][i % 3]},{cells}\n" for i, cells in enumerate(rows)))
    monkeypatch.chdir(tmp_path)
    model = ["--model", "run/model.txt"]
    maps = ["--n-maps", "2", "--grid-rows", "2", "--grid-cols", "2", "--iters", "200"]
    runs = {
        "classify": ["classify", *model],
        "impute": ["impute", *model],
        "impute_mean": ["impute", *model, "--fallback", "column-mean"],
        "impute_maps": ["impute", *maps],
        "impute_maps_mean": ["impute", *maps, "--fallback", "column-mean"],
    }
    seen = []
    for block_rows in (1, 3, model_io._BLOCK_ROWS):
        # the reader and writers, the standardizer's sums and the training steps
        for module in (data_module, model_io, trainer_module):
            monkeypatch.setattr(module, "_BLOCK_ROWS", block_rows)
        outputs = {}
        for out, argv in runs.items():
            assert main([*argv, "--input", "t.csv", "--categorical-col", "level",
                         "--output-dir", out]) == 0
            outputs.update({f"{out}/{p.name}": p.read_bytes() for p in Path(out).iterdir()})
            shutil.rmtree(out)
        seen.append(outputs)
    assert seen[0] == seen[1] == seen[2]
    assert sorted(seen[0]) == [
        "classify/assignments.csv", "classify/manifest.txt", "impute/imputed.csv",
        "impute/manifest.txt", "impute/provenance.csv", "impute_maps/imputed.csv",
        "impute_maps/manifest.txt", "impute_maps/provenance.csv",
        "impute_maps_mean/imputed.csv", "impute_maps_mean/manifest.txt",
        "impute_maps_mean/provenance.csv", "impute_mean/imputed.csv",
        "impute_mean/manifest.txt", "impute_mean/provenance.csv"]
    for out in ("impute", "impute_maps"):
        assert seen[0][f"{out}/provenance.csv"].count(b",unresolved\n") == 12
    for out in ("impute_mean", "impute_maps_mean"):
        assert seen[0][f"{out}/provenance.csv"].count(b",column-mean\n") == 12
    assert seen[0]["classify/assignments.csv"].count(b",unclassifiable\n") == 3


@pytest.mark.parametrize("command, name", [("impute", "provenance.csv"),
                                           ("impute", "imputed.csv"),
                                           ("classify", "assignments.csv"),
                                           ("impute-maps", "provenance.csv"),
                                           ("impute-maps", "imputed.csv")])
def test_an_output_that_cannot_be_replaced_refuses_the_run_before_any_rename(
        tmp_path, capsys, command, name):
    # a directory where an output goes cannot be replaced by that output:
    # the run exits 2 naming it, before any other output is renamed into
    # place, so that no output of the run is left beside it
    _write_training_csv(tmp_path / "data.csv")
    assert main(_train_args(tmp_path / "data.csv", tmp_path / "run")) == 0
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    capsys.readouterr()
    source = {"impute-maps": ["impute", "--n-maps", "2", "--grid-rows", "2", "--grid-cols", "2",
                              "--iters", "100"]}.get(
        command, [command, "--model", str(tmp_path / "run" / "model.txt")])
    rc = main([*source, "--input", str(tmp_path / "data.csv"), "--categorical-col", "level",
               "--output-dir", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {out / name} is a directory, which the output {name} cannot replace\n")
    assert [p.name for p in out.iterdir()] == [name]
    assert not any((out / name).iterdir())


def _model_command_peak(tmp_path, n, argv) -> int:
    """Traced peak of a model command on an ``n`` x 4 table."""
    rng = np.random.default_rng(n)
    data = DataMatrix(rng.normal(size=(n, 4)), rng.random((n, 4)) > 0.2,
                      tuple(f"r{i}" for i in range(n)), ("a", "b", "c", "d"))
    write_csv(data, tmp_path / "t.csv")
    tracemalloc.start()
    try:
        assert main([*argv, "--input", str(tmp_path / "t.csv"),
                     "--output-dir", str(tmp_path / "out")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["classify", "impute"])
def test_model_commands_hold_one_block_whatever_the_row_count(tmp_path, command):
    # holding the table costs about 190 B per row of 4 columns (values, mask,
    # label and their copies), 6.6 MB more for 40 000 rows than for 5 000; a
    # streamed run may differ by about one block of rows at that cost
    rng = np.random.default_rng(9)
    codebook = CodeBook(rng.normal(size=(16, 4)), GridTopology(4, 4), ("a", "b", "c", "d"))
    save_model(SomModel(codebook, StandardizationParams(np.zeros(4), np.ones(4)),
                        TrainingSchedule(), TrainingMode.INCLUDE_INCOMPLETE),
               tmp_path / "model.txt")
    argv = [command, "--model", str(tmp_path / "model.txt")]
    _model_command_peak(tmp_path, 100, argv)  # imports and caches filled once
    small = _model_command_peak(tmp_path, 5_000, argv)
    large = _model_command_peak(tmp_path, 40_000, argv)
    assert large - small < 190 * model_io._BLOCK_ROWS, (small, large)


def _training_table(path, n, seed) -> int:
    """Write an ``n`` x 20 table with about 20% of cells missing to ``path``,
    and return the bytes ``train`` holds of it read: values, mask and
    labels."""
    p = 20
    rng = np.random.default_rng(seed)
    write_csv(DataMatrix(rng.normal(size=(n, p)), rng.random((n, p)) > 0.2,
                         tuple(f"r{i}" for i in range(n)), tuple(f"c{k}" for k in range(p))),
              path)
    table = read_csv(path)
    return (table.values.nbytes + table.mask.nbytes + sys.getsizeof(table.row_labels)
            + sum(map(sys.getsizeof, table.row_labels)))


def test_train_is_handed_its_table_held_once(tmp_path, monkeypatch):
    # traced memory at the entry of train in cmd_train, against the table's
    # values, mask and labels: standardizing into a second table left both
    # the raw and the standardized table alive there (1.8 times as much)
    held = _training_table(tmp_path / "t.csv", 5_000, 10)
    at_train = []
    fit = cli.train

    def traced_train(*args, **kwargs):
        at_train.append(tracemalloc.get_traced_memory()[0])
        return fit(*args, **kwargs)

    monkeypatch.setattr(cli, "train", traced_train)
    tracemalloc.start()
    try:
        rc = main(["train", "--input", str(tmp_path / "t.csv"), "--output-dir",
                   str(tmp_path / "out"), "--grid-rows", "2", "--grid-cols", "2", "--iters", "10"])
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert at_train[0] < 1.3 * held, at_train[0] / held


def _training_peak(tmp_path, n, argv) -> tuple[int, int]:
    """Traced peak of the training command ``argv`` on an ``n`` x 20 table,
    on a 4x4 map for 3 000 iterations, and the bytes it holds of the
    table."""
    held = _training_table(tmp_path / "t.csv", n, n)
    tracemalloc.start()
    try:
        assert main([*argv, "--input", str(tmp_path / "t.csv"), "--output-dir",
                     str(tmp_path / "out"), "--grid-rows", "4", "--grid-cols", "4",
                     "--iters", "3000"]) == 0
        return tracemalloc.get_traced_memory()[1], held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", [
    ["train"],
    ["impute", "--n-maps", "2"],
    ["impute", "--n-maps", "2", "--fallback", "column-mean"],
], ids=["train", "impute_maps", "impute_maps_mean"])
def test_train_holds_its_table_and_one_block_whatever_the_row_count(tmp_path, argv):
    # beside the table it trains on, train holds a few numbers per row (the
    # pool, each row's winner and distance) and one block of rows or of
    # steps at a time; fitting the standardizer on copies of the whole table
    # or listing every row's completeness grew the peak 1.65 times as fast
    # as the table from 5 000 to 40 000 rows.  impute --n-maps holds its
    # table once while its maps train, then fills the input again one block
    # at a time (1.03 times as fast as the table); holding the raw table, a
    # standardized copy and the filled report together grew its peak 3.05
    # times as fast, the lockstep kernel's transposed copy of the table 1.76
    # times, and the fallback's means taken from the whole table at once
    # 1.55 times
    _training_peak(tmp_path, 100, argv)  # imports and caches filled once
    small, small_table = _training_peak(tmp_path, 5_000, argv)
    large, large_table = _training_peak(tmp_path, 40_000, argv)
    growth = (large - small) / (large_table - small_table)
    assert growth < 1.1, (small, large, growth)


def test_csv_roundtrip_preserves_values_and_mask(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(8, 3)) * 10.0 ** rng.integers(-12, 12, size=(8, 3))
    values[1, 2] = 1e-300
    values[2, 0] = -9.87654321098765432e250
    data = DataMatrix(
        values, rng.random((8, 3)) < 0.8, tuple(f"r{i}" for i in range(8)),
        ("a", "b", "c"),
    )
    path = tmp_path / "round.csv"
    write_csv(data, path)
    back = read_csv(path)
    assert back.row_labels == data.row_labels
    assert back.col_names == data.col_names
    assert np.array_equal(back.mask, data.mask)
    assert np.array_equal(back.values[back.mask], data.values[data.mask])


def test_csv_roundtrip_with_categorical(tmp_path):
    values = np.array([[1.0], [2.0]])
    data = DataMatrix(values, np.ones((2, 1), bool), ("r1", "r2"), ("x",),
                      ("lo", None), "level")
    path = tmp_path / "cat.csv"
    write_csv(data, path)
    back = read_csv(path, categorical_col="level")
    assert back.categorical == ("lo", None)
    assert back.categorical_name == "level"


def test_write_csv_refuses_text_read_csv_would_change(tmp_path):
    # read_csv strips labels and names, and reads a default missing marker
    # as missing; write_csv refuses such text instead of writing a file that
    # reads back changed
    values = np.array([[1.0], [2.0]])
    mask = np.ones((2, 1), bool)
    path = tmp_path / "t.csv"
    spaced = DataMatrix(values, mask, (" a", "b "), ("x",), ("lo", "hi"), "level")
    with pytest.raises(ValueError, match=r"^row 0, column 'label': ' a' has surrounding"):
        write_csv(spaced, path)
    marker = DataMatrix(values, mask, ("a", "b"), ("x",), ("NA", "lo"), "level")
    with pytest.raises(ValueError, match=r"^row 0, column 'level': category 'NA' is a missing"):
        write_csv(marker, path)
    empty = DataMatrix(values, mask, ("a", "b"), ("x",), ("lo", ""), "level")
    with pytest.raises(ValueError, match=r"^row 1, column 'level': category '' is a missing"):
        write_csv(empty, path)
    name = DataMatrix(values, mask, ("a", "b"), ("x ",))
    with pytest.raises(ValueError, match=r"^header, column 1: 'x ' has surrounding"):
        write_csv(name, path)
    assert not path.exists()
    # the same table with clean text round-trips
    clean = DataMatrix(values, mask, ("a", "b"), ("x",), ("lo", None), "level")
    write_csv(clean, path)
    back = read_csv(path, categorical_col="level")
    assert (back.row_labels, back.col_names, back.categorical) == (("a", "b"), ("x",), ("lo", None))
    # a category is checked against the markers the file is read back with
    write_csv(marker, path, ("?",))
    back = read_csv(path, missing_markers=("?",), categorical_col="level")
    assert back.categorical == ("NA", "lo")


@pytest.mark.parametrize("category", [" lo", "lo\t"], ids=["leading", "trailing"])
def test_write_csv_refuses_a_padded_category(tmp_path, category):
    data = DataMatrix(np.array([[1.0], [2.0]]), np.ones((2, 1), bool), ("a", "b"), ("x",),
                      ("hi", category), "level")
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError) as info:
        write_csv(data, path)
    assert str(info.value) == f"row 1, column 'level': {category!r} has surrounding whitespace"
    assert not path.exists()


def test_write_csv_refuses_a_category_equal_to_its_own_marker(tmp_path):
    # masked cells are written as markers[0] and read back under the same
    # markers, so a category equal to one of them would come back missing
    values = np.array([[1.0], [np.nan]])
    data = DataMatrix(values, ~np.isnan(values), ("a", "b"), ("x",), ("?", "lo"), "level")
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"^row 0, column 'level': category '\?' is a missing"):
        write_csv(data, path, ("?",))
    assert not path.exists()


def test_a_carriage_return_in_text_is_written_so_that_it_reads_back(tmp_path):
    # csv.writer quotes a field for the characters of its "\n" line ending
    # only, but a CSV reader also ends a line at a lone "\r"
    values = np.array([[1.0], [np.nan]])
    data = DataMatrix(values, ~np.isnan(values), ("a\rb", "c"), ("x\ry",),
                      ("l\ro", "hi"), "le\rvel")
    path = tmp_path / "t.csv"
    write_csv(data, path, ("m\rm",))
    back = read_csv(path, missing_markers=("m\rm",), categorical_col="le\rvel")
    assert (back.row_labels, back.col_names, back.categorical, back.categorical_name) == (
        data.row_labels, data.col_names, data.categorical, data.categorical_name)
    assert np.array_equal(back.mask, data.mask)
    assert path.read_bytes() == b'label,"le\rvel","x\ry"\n"a\rb","l\ro",1\nc,hi,"m\rm"\n'

    assignment = Assignment(np.array([0, -1]), np.array([0.5, np.nan]), 1)
    write_assignment_csv(tmp_path / "a.csv", data.row_labels, assignment, GridTopology(1, 1))
    report = ImputationReport(replace(data, row_labels=("a", "c\rd")).with_cells(
        np.array([[1.0], [2.0]]), np.ones((2, 1), bool)), Fills([1], [0], [[0], [0]]))
    write_provenance_csv(tmp_path / "p.csv", report)
    for name, cells in (("a.csv", ["a\rb", "0", "0", "0", "0.5", "ok"]),
                        ("p.csv", ["c\rd", "x\ry", "2", "0", "", "codebook"])):
        with (tmp_path / name).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == cells, name
        assert len({len(row) for row in rows}) == 1, name

    # text without one keeps its bytes
    clean = DataMatrix(values, ~np.isnan(values), ("ab", "c"), ("x\ny",))
    write_csv(clean, path)
    assert path.read_bytes() == b'label,"x\ny"\nab,1\nc,\n'


@settings(max_examples=80, deadline=None)
@given(st.lists(st.text(max_size=6), min_size=1, max_size=4))
def test_model_roundtrip_with_arbitrary_column_names(names):
    # load_model splits the file with str.splitlines and the header on tabs,
    # so save_model refuses exactly the names holding a tab or a line break;
    # every other name comes back unchanged
    p = len(names)
    cb = CodeBook(np.arange(2.0 * p).reshape(2, p), GridTopology(1, 2), names)
    model = SomModel(cb, StandardizationParams(np.zeros(p), np.ones(p)),
                     TrainingSchedule(total_iters=10, radius0=1), TrainingMode.INCLUDE_INCOMPLETE)
    refused = [n for n in names if "\t" in n or n.splitlines() not in ([], [n])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.txt"
        if refused:
            with pytest.raises(ValueError, match="contains a tab or a line break"):
                save_model(model, path)
            return
        save_model(model, path)
        back = load_model(path)
    assert back.codebook.col_names == tuple(names)
    assert back.codebook.codes.tobytes() == cb.codes.tobytes()


def test_model_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    topo = GridTopology(2, 3)
    cb = CodeBook(rng.normal(size=(6, 4)), topo, ("a", "b", "c", "d"))
    model = SomModel(
        cb,
        StandardizationParams(rng.normal(size=4), np.abs(rng.normal(size=4)) + 0.1),
        TrainingSchedule(total_iters=777, alpha0=0.4, alpha_final=0.02, radius0=2,
                         zero_radius_fraction=0.35, rng_seed=99),
        TrainingMode.COMPLETE_ONLY,
    )
    path = tmp_path / "model.txt"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.codebook.codes, cb.codes)
    assert back.codebook.col_names == cb.col_names
    assert back.codebook.topology == topo
    assert np.array_equal(back.standardizer.means, model.standardizer.means)
    assert np.array_equal(back.standardizer.stds, model.standardizer.stds)
    assert back.schedule == model.schedule
    assert back.mode is TrainingMode.COMPLETE_ONLY
    # bit-identical classification after the round trip
    data = random_incomplete(3, n=12, p=4)
    a = classify_supplementary(cb, data)
    b = classify_supplementary(back.codebook, data)
    assert np.array_equal(a.units, b.units)
    assert np.array_equal(a.sq_distances, b.sq_distances, equal_nan=True)


def test_model_rejects_standardizer_of_wrong_length(tmp_path):
    cb = CodeBook(np.zeros((2, 3)), GridTopology(1, 2), ("a", "b", "c"))
    short = StandardizationParams(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="2 columns.*3"):
        SomModel(cb, short, TrainingSchedule(), TrainingMode.INCLUDE_INCOMPLETE)
    # a file whose mean and std lines lack a column is refused on load, by name
    good = SomModel(cb, StandardizationParams(np.zeros(3), np.ones(3)),
                    TrainingSchedule(), TrainingMode.INCLUDE_INCOMPLETE)
    path = tmp_path / "model.txt"
    save_model(good, path)
    lines = path.read_text().splitlines()
    lines = [ln.rsplit("\t", 1)[0] if ln.startswith(("mean\t", "std\t")) else ln
             for ln in lines]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="model.txt.*2 columns"):
        load_model(path)


def _edited_model(tmp_path, edit):
    """A saved 1x2 model over columns a, b, c, with ``edit`` applied to its
    list of lines; returns the path."""
    cb = CodeBook(np.arange(6.0).reshape(2, 3), GridTopology(1, 2), ("a", "b", "c"))
    model = SomModel(cb, StandardizationParams(np.zeros(3), np.ones(3)),
                     TrainingSchedule(), TrainingMode.INCLUDE_INCOMPLETE)
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = path.read_text().splitlines()
    path.write_text("".join(f"{line}\n" for line in edit(lines)))
    return path


def _replace(number, old, new):
    """Edit that replaces ``old`` by ``new`` in line ``number`` (1-based)."""
    def edit(lines):
        assert old in lines[number - 1]
        lines[number - 1] = lines[number - 1].replace(old, new, 1)
        return lines
    return edit


@pytest.mark.parametrize("edit, where", [
    (lambda lines: [], "line 1: empty model file"),
    (_replace(1, "1\t2\t3\ta\tb\tc", "1\t2\t3"), "line 1: malformed header line"),
    (_replace(1, "\tc", ""), "line 1: header promises 3 column names, found 2"),
    (_replace(2, "0\t1\t2", "0\t1"), "line 2: unit line 0 has 2 components, expected 3"),
    (_replace(1, "1\t2\t3", "1\tx\t3"), "line 1: invalid literal"),
    (_replace(1, "1\t2\t3", "1\t2\t3.5"), "line 1: invalid literal"),
    (_replace(1, "1\t2\t3", "0\t2\t3"), "line 1: grid must have positive"),
    (_replace(3, "3", "zz"), "line 3: could not convert"),
    (_replace(3, "3", "inf"), "lines 2-3: every code component must be finite"),
    (lambda lines: lines[:2], "line 3: expected 2 unit lines"),
    (_replace(4, "mean\t0", "mean\tzz"), "line 4: could not convert"),
    (_replace(5, "std\t1", "std\t-1"), "lines 4, 5: every std must be strictly positive"),
    (_replace(6, "alpha0=", "alpha_zero="), "line 6: schedule has no alpha0="),
    (_replace(6, "alpha0=0.5", "alpha0=1.5"), "line 6: alpha0 must lie in"),
    (_replace(6, "radius0=2", "radius0=two"), "line 6: invalid literal"),
    (_replace(6, "radius0=2", "radius0"), "line 6: schedule item 'radius0' is not key=value"),
    (_replace(7, "include-incomplete", "sideways"), "line 7: 'sideways' is not a valid"),
    (lambda lines: lines[:6], "end of file: missing 'mode' line"),
], ids=["empty", "header-short", "names-short", "unit-short", "grid-text", "grid-float", "grid-zero", "code-text", "code-inf", "units-truncated",
        "mean-text", "std-negative", "schedule-key-missing", "schedule-out-of-range",
        "radius-text", "schedule-item-bare", "mode-unknown", "mode-line-missing"])
def test_malformed_model_file_names_path_and_line(tmp_path, edit, where):
    path = _edited_model(tmp_path, edit)
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: {where}"), str(info.value)


def test_cli_reports_malformed_model_with_path_and_line(tmp_path, capsys):
    path = _edited_model(tmp_path, _replace(6, "alpha0=", "alpha_zero="))
    supp = tmp_path / "supp.csv"
    supp.write_text("id,a,b,c\nr1,1,2,3\n")
    rc = main(["classify", "--input", str(supp), "--output-dir", str(tmp_path / "out"),
               "--model", str(path)])
    assert rc == 2
    assert f"error: {path}: line 6: schedule has no alpha0=" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "classify"])
def test_undecodable_input_or_model_names_its_file_and_line(tmp_path, capsys, command):
    # train reads a CSV whose line 3 holds a 0xff byte; classify reads a
    # model file whose first byte is 0xff
    csv_path = tmp_path / "data.csv"
    _write_training_csv(csv_path)
    assert main(_train_args(csv_path, tmp_path / "run")) == 0
    capsys.readouterr()
    model = tmp_path / "run" / "model.txt"
    out = tmp_path / "out"
    if command == "train":
        lines = csv_path.read_bytes().split(b"\n")
        lines[2] = b"r\xff" + lines[2]
        csv_path.write_bytes(b"\n".join(lines))
        bad, line, position = csv_path, 3, 1
        rc = main(_train_args(csv_path, out))
    else:
        model.write_bytes(b"\xff" + model.read_bytes())
        bad, line, position = model, 1, 0
        rc = main(["classify", "--input", str(csv_path), "--output-dir", str(out),
                   "--model", str(model), "--categorical-col", "level"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: line {line}: 'utf-8' codec can't decode byte 0xff in position "
        f"{position}: invalid start byte\n")
    assert not out.exists()


def test_manifest_roundtrip(tmp_path):
    entries = {"seed": 42, "alpha0": 0.5, "input": "x.csv", "markers": ["", "NA"],
               "model": None}
    path = tmp_path / "manifest.txt"
    write_manifest(path, entries)
    assert read_manifest(path) == entries


_manifest_values = st.one_of(
    st.text(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.lists(st.text(), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True),
                       _manifest_values, max_size=8),
       st.text(alphabet="=\n\r\x1c\x85\u2028", min_size=1))
def test_manifest_roundtrip_property(entries, awkward):
    # values of every kind the CLI records, with "=" and line breaks in text
    entries = {**entries, "input": awkward}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.txt"
        write_manifest(path, entries)
        assert read_manifest(path) == entries


def test_cli_import_loads_no_http_or_xml_modules():
    # xml.sax.saxutils pulls in urllib.request, http.client, email and ssl;
    # urllib.parse alone comes with pathlib, which numpy imports
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, somimpute.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert "somimpute.render" in loaded
    heavy = [m for m in loaded if m == "urllib.request"
             or m.partition(".")[0] in ("xml", "http", "email", "ssl")]
    assert heavy == []


def test_cli_writes_utf8_whatever_the_locale(tmp_path):
    # read_csv reads UTF-8, so every text output is written as UTF-8 too,
    # even where the locale's encoding is ASCII and UTF-8 mode is off
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("id,x,y\ncaf\u00e9,1.0,\nr1,2.5,3.0\nr2,0.5,1.5\nr3,3.0,4.0\n",
                        encoding="utf-8")
    grid = ["--grid-rows", "1", "--grid-cols", "2", "--iters", "100"]
    runs = {"train": grid, "impute": ["--n-maps", "2", *grid],
            "render": ["--model", str(tmp_path / "train" / "model.txt")]}
    for cmd, extra in runs.items():
        run = subprocess.run([sys.executable, "-m", "somimpute.cli", cmd, "--input", str(csv_path),
                              "--output-dir", str(tmp_path / cmd), *extra],
                             env=env, capture_output=True)
        assert run.returncode == 0, (cmd, run.stderr)
    assert read_csv(tmp_path / "impute" / "imputed.csv").row_labels[0] == "caf\u00e9"
    for name in ("train/assignments.csv", "impute/provenance.csv", "render/map.txt",
                 "render/map.svg"):
        assert "caf\u00e9" in (tmp_path / name).read_text(encoding="utf-8"), name


def test_non_ascii_missing_marker_matches_whatever_the_locale(tmp_path):
    # under an ASCII locale with UTF-8 mode off, argv arrives surrogate-escaped
    # while read_csv decodes the file as UTF-8; the marker must still match,
    # and the manifest, and so its replay, must hold the decoded marker
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    csv_path = tmp_path / "t.csv"
    csv_path.write_text("id,x,y\nr0,1.0,\u00e9\nr1,2.5,3.0\nr2,\u00e9,1.5\nr3,3.0,4.0\n",
                        encoding="utf-8")

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "somimpute.cli", *argv],
                              env=env, capture_output=True)

    imp = ["impute", "--input", str(csv_path), "--n-maps", "2", "--grid-rows", "1",
           "--grid-cols", "2", "--iters", "100", "--seed", "1"]
    run = cli(*imp, "--output-dir", str(tmp_path / "out"), "--missing-marker", b"\xc3\xa9")
    assert run.returncode == 0, run.stderr
    assert read_manifest(tmp_path / "out" / "manifest.txt")["missing_markers"] == ["\u00e9"]
    assert read_csv(tmp_path / "out" / "imputed.csv").mask.all()
    run = cli("replay", "--manifest", str(tmp_path / "out" / "manifest.txt"),
              "--output-dir", str(tmp_path / "redo"))
    assert run.returncode == 0, run.stderr
    assert ((tmp_path / "out" / "imputed.csv").read_bytes()
            == (tmp_path / "redo" / "imputed.csv").read_bytes())
    run = cli(*imp, "--output-dir", str(tmp_path / "bad"), "--missing-marker", b"\xff")
    assert run.returncode == 2
    assert b"is not valid UTF-8" in run.stderr
    assert not (tmp_path / "bad").exists()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
@pytest.mark.parametrize("flag", ["--input", "--model"])
def test_piped_input_or_model_is_refused_before_any_output(tmp_path, flag):
    # the manifest records a digest of every input and replay reads it again,
    # so an input that is not a regular file (here a pipe) is refused
    csv_path = tmp_path / "data.csv"
    _write_training_csv(csv_path)
    assert main(_train_args(csv_path, tmp_path / "run")) == 0
    model_path = tmp_path / "run" / "model.txt"
    piped = (csv_path if flag == "--input" else model_path).read_bytes()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    r, w = os.pipe()
    os.write(w, piped)
    os.close(w)
    paths = {"--input": str(csv_path), "--model": str(model_path), flag: f"/dev/fd/{r}"}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "somimpute.cli", "classify", "--output-dir",
             str(tmp_path / "out"), "--categorical-col", "level",
             "--input", paths["--input"], "--model", paths["--model"]],
            env=env, capture_output=True, pass_fds=(r,),
        )
    finally:
        os.close(r)
    assert run.returncode == 2, run.stderr
    assert f"error: {flag} '/dev/fd/{r}' is not a regular file".encode() in run.stderr
    assert b"replay reads it again" in run.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--input", "{tmp}"], "--input '{tmp}' is not a regular file: the manifest records its "
                           "digest, and replay reads it again"),
    (["--input", "{tmp}/data.csv", "--missing-marker", "\udcff"],
     "missing marker '\\udcff' is not valid UTF-8"),
], ids=["input-is-a-directory", "marker-not-utf8"])
def test_train_refuses_its_flags_before_any_output(tmp_path, capsys, flags, message):
    # a marker arrives surrogate-escaped when argv holds a byte the locale cannot decode
    _write_training_csv(tmp_path / "data.csv")
    out = tmp_path / "out"
    rc = main(["train", *(f.format(tmp=tmp_path) for f in flags), "--output-dir", str(out),
               "--grid-rows", "1", "--grid-cols", "2"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not out.exists()


def test_render_map_text_golden():
    cb = CodeBook(np.array([[0.0], [1.0]]), GridTopology(1, 2), ("x",))
    asg = Assignment(np.array([0, 0, -1]), np.array([0.0, 0.1, np.nan]), 2)
    text = render_map_text(cb, asg, ("alpha", "beta", "ghost"),
                           supplementary=[False, True, False])
    expected = (
        "+-------+-----+\n"
        "| alpha |     |\n"
        "| beta* |     |\n"
        "+-------+-----+\n"
    )
    assert text == expected


def test_render_map_text_escapes_line_breaks_in_labels():
    cb = CodeBook(np.array([[0.0], [1.0]]), GridTopology(1, 2), ("x",))
    asg = Assignment(np.array([0, 1, 1]), np.zeros(3), 2)
    text = render_map_text(cb, asg, ("e\nf", "g\rh", "i\r\nj"),
                           supplementary=[False, True, False])
    expected = (
        "+------+--------+\n"
        "| e\\nf | g\\rh*  |\n"
        "|      | i\\r\\nj |\n"
        "+------+--------+\n"
    )
    assert text == expected


def test_render_map_svg_markers():
    cb = CodeBook(np.array([[0.0], [1.0], [2.0], [3.0]]), GridTopology(2, 2),
                  ("x",))
    asg = Assignment(np.array([0, 1, 1]), np.zeros(3), 4)
    from somimpute import hierarchical_codes
    sc = hierarchical_codes(cb, 2)
    svg = render_map_svg(cb, asg, ("a", "b", "c"), [False, True, False], sc,
                         {0: {"m1": 1.0}, 1: {}, 2: {}, 3: {}})
    assert svg.count("<rect") >= 5  # 4 cells + at least one modality bar
    assert 'class="supp"' in svg
    assert "b*" in svg


def test_render_map_svg_escapes_labels():
    cb = CodeBook(np.array([[0.0], [1.0]]), GridTopology(1, 2), ("x",))
    asg = Assignment(np.array([0, 1]), np.zeros(2), 2)
    svg = render_map_svg(cb, asg, ("a&b", "<c>"), [False, True])
    assert ">a&amp;b</text>" in svg
    assert ">&lt;c&gt;*</text>" in svg


def _write_training_csv(path, n=18, seed=0, all_missing_row=True):
    rng = np.random.default_rng(seed)
    lines = ["id,level,x,y,z,w"]
    for i in range(n):
        vals = rng.normal(size=4) + (0.0 if i % 2 else 4.0)
        cells = [f"{v:.6f}" for v in vals]
        if i % 5 == 3:
            cells[rng.integers(4)] = "NA"
        level = ["lo", "hi"][i % 2]
        lines.append(f"r{i:02d},{level}," + ",".join(cells))
    if all_missing_row:
        lines.append(f"r{n:02d},lo,NA,NA,NA,NA")
    path.write_text("\n".join(lines) + "\n")


def _train_args(data_csv, outdir, extra=()):
    return [
        "train",
        "--input", str(data_csv),
        "--output-dir", str(outdir),
        "--grid-rows", "2",
        "--grid-cols", "2",
        "--iters", "300",
        "--radius0", "1",
        "--seed", "7",
        "--categorical-col", "level",
        *extra,
    ]


class TestCli:
    def test_train_writes_model_assignments_manifest(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        out = tmp_path / "run"
        assert main(_train_args(csv_path, out, ("--superclasses", "2"))) == 0
        for name in ("model.txt", "assignments.csv", "manifest.txt",
                     "superclasses.csv", "dendrogram.csv"):
            assert (out / name).exists(), name
        err = capsys.readouterr().err
        assert "all-missing" in err
        rows = (out / "assignments.csv").read_text().splitlines()
        assert rows[0] == "label,unit,grid_row,grid_col,sq_distance,status,superclass,supplementary"
        assert rows[-1].startswith("r18,,,,,unclassifiable")

    def test_train_warns_of_all_missing_rows(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)  # its last row, r18, is all missing
        csv_path.write_text(csv_path.read_text() + "r19,hi,NA,NA,NA,NA\n")
        assert main(_train_args(csv_path, tmp_path / "run")) == 0
        assert ("warning: 2 all-missing row(s) skipped during training and flagged "
                "unclassifiable\n") in capsys.readouterr().err

    def test_classify_against_saved_model(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        run = tmp_path / "run"
        assert main(_train_args(csv_path, run)) == 0
        supp = tmp_path / "supp.csv"
        supp.write_text("id,level,x,y,z,w\nnew1,lo,4.0,3.9,4.0,4.1\nnew2,hi,NA,NA,NA,NA\n")
        out = tmp_path / "cls"
        rc = main([
            "classify", "--input", str(supp), "--output-dir", str(out),
            "--model", str(run / "model.txt"), "--categorical-col", "level",
        ])
        assert rc == 0
        rows = (out / "assignments.csv").read_text().splitlines()
        assert len(rows) == 3
        assert rows[2].endswith("unclassifiable")

    def test_impute_with_model_and_fallback(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        run = tmp_path / "run"
        assert main(_train_args(csv_path, run)) == 0
        out = tmp_path / "imp"
        rc = main([
            "impute", "--input", str(csv_path), "--output-dir", str(out),
            "--model", str(run / "model.txt"), "--categorical-col", "level",
        ])
        assert rc == 0
        prov = (out / "provenance.csv").read_text().splitlines()
        assert prov[0] == "label,column,estimate,units,seeds,source"
        assert any(line.endswith("unresolved") for line in prov[1:])
        imputed = read_csv(out / "imputed.csv", categorical_col="level")
        assert not imputed.mask[-1].any()  # all-missing row stays unresolved

        out2 = tmp_path / "imp_fb"
        rc = main([
            "impute", "--input", str(csv_path), "--output-dir", str(out2),
            "--model", str(run / "model.txt"), "--categorical-col", "level",
            "--fallback", "column-mean",
        ])
        assert rc == 0
        filled = read_csv(out2 / "imputed.csv", categorical_col="level")
        assert filled.mask.all()
        original = read_csv(csv_path, categorical_col="level")
        col_means = np.nanmean(original.values, axis=0)
        assert filled.values[-1] == pytest.approx(col_means, rel=1e-12)

    def test_impute_keeps_observed_cells_bit_identical(self, tmp_path):
        # full-precision values: a standardize/destandardize round trip
        # moves some of them in their last bits
        rng = np.random.default_rng(12)
        values = rng.normal(size=(60, 4)) * [1.0, 30.0, 0.01, 7.0] + [0.0, 100.0, -3.0, 1e3]
        mask = rng.random((60, 4)) < 0.75
        mask[:, 0] |= ~mask.any(axis=1)
        source = DataMatrix(values, mask, tuple(f"r{i}" for i in range(60)),
                            ("x", "y", "z", "w"))
        csv_path = tmp_path / "data.csv"
        write_csv(source, csv_path)
        run = tmp_path / "run"
        assert main(["train", "--input", str(csv_path), "--output-dir", str(run),
                     "--grid-rows", "2", "--grid-cols", "2", "--iters", "300",
                     "--seed", "1"]) == 0
        model_run = ["--model", str(run / "model.txt")]
        maps_run = ["--n-maps", "2", "--grid-rows", "2", "--grid-cols", "2",
                    "--iters", "300", "--seed", "1"]
        for name, extra in (("model", model_run), ("maps", maps_run)):
            out = tmp_path / name
            assert main(["impute", "--input", str(csv_path), "--output-dir", str(out),
                         *extra]) == 0
            imputed = read_csv(out / "imputed.csv")
            assert imputed.mask.all()
            assert imputed.values[mask].tobytes() == source.values[mask].tobytes(), name

    def test_model_commands_reject_reordered_columns(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        run = tmp_path / "run"
        assert main(_train_args(csv_path, run)) == 0
        lines = csv_path.read_text().splitlines()
        swapped = tmp_path / "swapped.csv"
        swapped.write_text("\n".join(
            ",".join(f[:2] + [f[3], f[2]] + f[4:]) for f in (l.split(",") for l in lines)
        ) + "\n")
        for cmd in ("classify", "impute", "render"):
            rc = main([cmd, "--input", str(swapped), "--output-dir", str(tmp_path / cmd),
                       "--model", str(run / "model.txt"), "--categorical-col", "level"])
            assert rc == 2, cmd
            err = capsys.readouterr().err
            assert "numeric column 1 is 'y', the model has 'x' there" in err, cmd

    def test_impute_multi_without_model(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path, all_missing_row=False)
        out = tmp_path / "multi"
        rc = main([
            "impute", "--input", str(csv_path), "--output-dir", str(out),
            "--n-maps", "3", "--grid-rows", "2", "--grid-cols", "2",
            "--iters", "200", "--radius0", "1", "--seed", "3",
            "--categorical-col", "level",
        ])
        assert rc == 0
        prov = (out / "provenance.csv").read_text().splitlines()
        fills = [l for l in prov[1:] if not l.endswith("unresolved")]
        assert fills and all(";" in l.split(",")[3] for l in fills)  # 3 units listed

    def test_impute_with_custom_marker_keeps_an_na_category(self, tmp_path):
        # under --missing-marker ?, "NA" is a category like any other, and
        # imputed.csv writes it as read
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path, all_missing_row=False)
        text = csv_path.read_text().replace(",NA,", ",?,").replace(",hi,", ",NA,")
        csv_path.write_text(text.replace(",NA\n", ",?\n"))
        out = tmp_path / "imp"
        rc = main([
            "impute", "--input", str(csv_path), "--output-dir", str(out),
            "--n-maps", "2", "--grid-rows", "2", "--grid-cols", "2",
            "--iters", "200", "--radius0", "1", "--seed", "3",
            "--categorical-col", "level", "--missing-marker", "?",
        ])
        assert rc == 0
        back = read_csv(out / "imputed.csv", missing_markers=("?",), categorical_col="level")
        assert back.categorical.count("NA") == 9

    def test_impute_with_custom_marker_writes_it_for_unresolved_cells(self, tmp_path):
        # an unresolved cell and a missing category are written as the first
        # given marker, so imputed.csv reads back under the same markers
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        text = csv_path.read_text().replace("NA", "?").replace("r01,hi,", "r01,?,")
        csv_path.write_text(text)
        out = tmp_path / "imp"
        rc = main([
            "impute", "--input", str(csv_path), "--output-dir", str(out),
            "--n-maps", "2", "--grid-rows", "2", "--grid-cols", "2",
            "--iters", "200", "--radius0", "1", "--seed", "3",
            "--categorical-col", "level", "--missing-marker", "?",
        ])
        assert rc == 0
        assert "r18,lo,?,?,?,?" in (out / "imputed.csv").read_text().splitlines()
        back = read_csv(out / "imputed.csv", missing_markers=("?",), categorical_col="level")
        assert np.flatnonzero(~back.mask.all(axis=1)).tolist() == [18]
        assert not back.mask[18].any()
        assert back.categorical[1] is None
        assert back.categorical.count(None) == 1

    def test_padded_missing_marker_rejected_before_any_output(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        csv_path.write_text(csv_path.read_text().replace("NA", " ?"))
        out = tmp_path / "imp"
        rc = main([
            "impute", "--input", str(csv_path), "--output-dir", str(out),
            "--grid-rows", "2", "--grid-cols", "2", "--iters", "50",
            "--categorical-col", "level", "--missing-marker", " ?",
        ])
        assert rc == 2
        assert "missing marker ' ?' has surrounding whitespace" in capsys.readouterr().err
        assert not out.exists()

    def test_column_name_model_file_cannot_hold_rejected_before_training(
            self, tmp_path, capsys, monkeypatch):
        # model.txt is split into lines and its header on tabs, so such a
        # name is refused before any map is trained or output written
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the column names were checked")

        monkeypatch.setattr(cli, "train", no_training)
        csv_path = tmp_path / "data.csv"
        csv_path.write_text('id,"x\ry",z\nr0,1.0,2.0\nr1,2.5,3.0\nr2,0.5,1.5\nr3,3.0,4.0\n',
                            newline="")
        out = tmp_path / "run"
        rc = main(["train", "--input", str(csv_path), "--output-dir", str(out),
                   "--grid-rows", "1", "--grid-cols", "2", "--iters", "50"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: column name 'x\\ry' contains a tab or a line break\n")
        assert not out.exists()

    def test_model_with_n_maps_rejected(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        run = tmp_path / "run"
        assert main(_train_args(csv_path, run)) == 0
        rc = main([
            "impute", "--input", str(csv_path), "--output-dir", str(tmp_path / "x"),
            "--model", str(run / "model.txt"), "--n-maps", "2",
        ])
        assert rc == 2

    def test_evaluate_writes_report_and_curve(self, tmp_path):
        csv_path = tmp_path / "complete.csv"
        rng = np.random.default_rng(5)
        data = DataMatrix.from_nan(rng.normal(size=(10, 5)) + np.arange(5))
        write_csv(data, csv_path)
        out = tmp_path / "eval"
        rc = main([
            "evaluate", "--input", str(csv_path), "--output-dir", str(out),
            "--grid-rows", "2", "--grid-cols", "2", "--iters", "150",
            "--radius0", "1", "--d-min", "1", "--d-max", "2", "--repeats", "1",
            "--seed", "11",
        ])
        assert rc == 0
        lines = (out / "eval.csv").read_text().splitlines()
        assert lines[0] == "d,n_cells,rmse_som,rmse_mean,n_unresolved"
        assert len(lines) == 3
        assert (out / "curve.svg").read_text().startswith("<svg")

    def test_evaluate_rejects_incomplete_input(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        rc = main([
            "evaluate", "--input", str(csv_path), "--output-dir", str(tmp_path / "e"),
            "--grid-rows", "2", "--grid-cols", "2", "--d-max", "2",
            "--categorical-col", "level",
        ])
        assert rc == 2

    def test_evaluate_rejects_zero_deletions_before_reading_input(self, tmp_path, capsys):
        rc = main([
            "evaluate", "--input", str(tmp_path / "absent.csv"),
            "--output-dir", str(tmp_path / "e"), "--grid-rows", "2", "--grid-cols", "2",
            "--d-min", "0", "--d-max", "2",
        ])
        assert rc == 2
        assert "invalid deletion range [0, 2]" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--repeats", "--n-maps"])
    def test_evaluate_rejects_zero_counts_before_reading_input(self, tmp_path, capsys, flag):
        rc = main([
            "evaluate", "--input", str(tmp_path / "absent.csv"),
            "--output-dir", str(tmp_path / "e"), "--grid-rows", "2", "--grid-cols", "2",
            "--d-max", "2", flag, "0",
        ])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= 1, got 0\n"
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("source", [["--model", "m.txt"],
                                        ["--grid-rows", "1", "--grid-cols", "2"]],
                             ids=["model", "maps"])
    def test_impute_rejects_zero_maps_before_reading_input(self, tmp_path, capsys, source):
        rc = main([
            "impute", "--input", str(tmp_path / "absent.csv"),
            "--output-dir", str(tmp_path / "i"), "--n-maps", "0", *source,
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: --n-maps must be >= 1, got 0\n"
        assert not (tmp_path / "i").exists()

    def test_render_rejects_superclasses_beyond_the_map_before_reading_input(
            self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        assert main(_train_args(csv_path, tmp_path / "run")) == 0
        capsys.readouterr()
        runs = {"render": ["--model", str(tmp_path / "run" / "model.txt")],
                "train": ["--grid-rows", "2", "--grid-cols", "2"]}
        for command, source in runs.items():
            out = tmp_path / command
            rc = main([command, "--input", str(tmp_path / "absent.csv"),
                       "--output-dir", str(out), *source, "--superclasses", "5"])
            assert rc == 2, command
            assert capsys.readouterr().err == "error: --superclasses must lie in [1, 4]\n"
            assert not out.exists(), command

    @pytest.mark.parametrize("grid", [[], ["--grid-rows", "2"], ["--grid-cols", "2"]],
                             ids=["no-grid", "rows-only", "cols-only"])
    def test_impute_without_a_model_needs_the_grid(self, tmp_path, capsys, grid):
        out = tmp_path / "i"
        rc = main(["impute", "--input", str(tmp_path / "absent.csv"),
                   "--output-dir", str(out), *grid])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: impute without --model needs --grid-rows and --grid-cols\n")
        assert not out.exists()

    @pytest.mark.parametrize("text, flags, message", [
        ("id,x\nr1,1\nr2,2\n", ["--categorical-col", "id"],
         "categorical column cannot be the label column"),
        ("id,level\nr1,lo\nr2,hi\n", ["--categorical-col", "level"], "no numeric columns"),
        ("id,x,y\nr1,1,2\nr2,NA,abc\n", [], "line 3, column 'y': cannot parse 'abc'"),
    ], ids=["categorical-is-label", "no-numeric-column", "bad-cell-after-a-marker"])
    def test_train_refuses_an_input_read_csv_refuses(self, tmp_path, capsys, text, flags,
                                                      message):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(text)
        out = tmp_path / "t"
        rc = main(["train", "--input", str(csv_path), "--output-dir", str(out),
                   "--grid-rows", "1", "--grid-cols", "2", *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {csv_path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["1_000", "\u0661\u0662"],
                             ids=["digit-separator", "arabic-indic"])
    def test_train_refuses_a_number_only_float_would_read(self, tmp_path, capsys, cell):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(f"id,x,y\nr1,{cell},2\nr2,3,4\nr3,5,6\n", encoding="utf-8")
        out = tmp_path / "t"
        rc = main(["train", "--input", str(csv_path), "--output-dir", str(out),
                   "--grid-rows", "1", "--grid-cols", "2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {csv_path}: line 2, column 'x': cannot parse {cell!r}\n")
        assert not out.exists()

    @staticmethod
    def _impute_with_model_is_refused(tmp_path, capsys, flags):
        # the model fixes how its map was trained; a training flag away from
        # its default would be ignored, yet recorded in the manifest
        out = tmp_path / "i"
        rc = main(["impute", "--input", str(tmp_path / "absent.csv"), "--output-dir", str(out),
                   "--model", str(tmp_path / "m.txt"), *flags])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {flags[0]} sets how the maps impute trains; it cannot be combined with "
            "--model\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["impute", "--model", "model.txt", "--seed", "9"],
        ["impute", "--model", "model.txt", "--n-maps", "2"],
        ["impute", "--n-maps", "2"],
        ["train", "--grid-rows", "1", "--grid-cols", "2", "--superclasses", "3"],
        ["evaluate", "--grid-rows", "1", "--grid-cols", "2", "--d-max", "0"],
        ["render", "--model", "model.txt", "--superclasses", "9"],
    ], ids=["impute-seed", "impute-n-maps", "impute-no-grid", "train-superclasses",
            "evaluate-range", "render-superclasses"])
    def test_a_refused_command_line_digests_no_input(self, tmp_path, monkeypatch, argv):
        # each command checks its own arguments before it reads (digests) an
        # input, yet digests every input before it makes any output
        _write_training_csv(tmp_path / "data.csv")
        assert main(_train_args(tmp_path / "data.csv", tmp_path / "run")) == 0
        (tmp_path / "run" / "model.txt").rename(tmp_path / "model.txt")
        digested = []
        digest = cli.sha256_file
        monkeypatch.setattr(cli, "sha256_file", lambda path: digested.append(path) or digest(path))
        monkeypatch.chdir(tmp_path)
        assert main(["classify", "--input", "data.csv", "--model", "model.txt",
                     "--output-dir", "ok", "--categorical-col", "level"]) == 0
        assert digested == ["data.csv", "model.txt"]
        digested.clear()
        assert main([*argv, "--input", "data.csv", "--output-dir", "out"]) == 2
        assert digested == []
        assert not Path("out").exists()

    @pytest.mark.parametrize("flags", [["--grid-rows", "9"], ["--grid-cols", "9"],
                                       ["--grid-rows", "9", "--grid-cols", "9"]],
                             ids=["rows", "cols", "both"])
    def test_impute_with_a_model_refuses_grid_flags_before_reading_input(
            self, tmp_path, capsys, flags):
        self._impute_with_model_is_refused(tmp_path, capsys, flags)

    @pytest.mark.parametrize("flags", [
        ["--radius0", "1"], ["--iters", "5"], ["--alpha0", "0.9"], ["--alpha-final", "0.2"],
        ["--zero-radius-fraction", "1"], ["--seed", "9"], ["--mode", "complete-only"],
    ], ids=lambda flags: flags[0][2:])
    def test_impute_with_a_model_refuses_training_flags_before_reading_input(
            self, tmp_path, capsys, flags):
        self._impute_with_model_is_refused(tmp_path, capsys, flags)

    def test_a_bug_in_a_command_propagates_out_of_main(self, tmp_path, monkeypatch):
        # only ValueError and OSError are refusals of the user's input; any
        # other exception is a bug and must not become an "error:" line
        def broken(args):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "cmd_train", broken)
        with pytest.raises(KeyError, match="bug"):
            main(["train", "--input", str(tmp_path / "absent.csv"),
                  "--output-dir", str(tmp_path / "t"), "--grid-rows", "1", "--grid-cols", "2"])

    def test_evaluate_complete_only_per_row_fails_before_any_arm(self, tmp_path, capsys):
        csv_path = tmp_path / "complete.csv"
        write_csv(DataMatrix.from_nan(np.random.default_rng(5).normal(size=(10, 4))), csv_path)
        rc = main([
            "evaluate", "--input", str(csv_path), "--output-dir", str(tmp_path / "e"),
            "--grid-rows", "2", "--grid-cols", "2", "--d-max", "2",
            "--mode", "complete-only",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "mode=complete-only needs global_mcar" in err
        assert "deletion arm" not in err

    def test_evaluate_arm_with_no_scorable_cell_exits_2_naming_it(self, tmp_path, capsys):
        # global-MCAR deletes whole rows of this 4 x 2 table, and every
        # deleted cell falls in them
        csv_path = tmp_path / "clusters.csv"
        write_csv(correlated_clusters(4, 2, seed=0)[0], csv_path)
        out = tmp_path / "e"
        rc = main([
            "evaluate", "--input", str(csv_path), "--output-dir", str(out),
            "--grid-rows", "1", "--grid-cols", "2", "--iters", "50", "--radius0", "1",
            "--seed", "6", "--d-max", "1", "--deletion-mode", "global-mcar",
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: deletion arm d=1, repeat=0: every deleted cell is unresolved; "
            "RMSE undefined\n")
        assert not out.exists()

    def test_render_marks_supplementary_in_mode_b(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        run = tmp_path / "run"
        assert main(_train_args(csv_path, run, ("--mode", "complete-only"))) == 0
        out = tmp_path / "render"
        rc = main([
            "render", "--input", str(csv_path), "--output-dir", str(out),
            "--model", str(run / "model.txt"), "--categorical-col", "level",
            "--superclasses", "2",
        ])
        assert rc == 0
        text = (out / "map.txt").read_text()
        assert "*" in text  # incomplete rows rendered as supplementary
        svg = (out / "map.svg").read_text()
        assert 'class="supp"' in svg
        assert svg.startswith("<svg")

    @pytest.mark.parametrize("mode", [m.value for m in TrainingMode])
    def test_train_and_render_flag_the_same_supplementary_rows(self, tmp_path, mode):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        run = tmp_path / "run"
        assert main(_train_args(csv_path, run, ("--mode", mode))) == 0
        with (run / "assignments.csv").open(newline="") as fh:
            trained = {r["label"] for r in csv.DictReader(fh) if r["supplementary"] == "yes"}
        out = tmp_path / "render"
        assert main(["render", "--input", str(csv_path), "--output-dir", str(out),
                     "--model", str(run / "model.txt"), "--categorical-col", "level"]) == 0
        rendered = {cell.strip()[:-1] for line in (out / "map.txt").read_text().splitlines()
                    for cell in line.split("|") if cell.strip().endswith("*")}
        assert rendered == trained
        if mode == "complete-only":
            assert trained == {"r03", "r08", "r13"}  # the incomplete, classifiable rows
        else:
            assert trained == set()

    def test_missing_input_file_is_a_clean_error(self, tmp_path):
        rc = main([
            "classify", "--input", str(tmp_path / "nope.csv"),
            "--output-dir", str(tmp_path / "o"), "--model", str(tmp_path / "m.txt"),
        ])
        assert rc == 2


def _csv_cells(path) -> dict[tuple[str, str], str]:
    """Every numeric field of a written table, keyed by (label, column)."""
    with open(path, newline="") as fh:
        header, *body = csv.reader(fh)
    return {(row[0], name): field for row in body for name, field in zip(header[1:], row[1:])}


@st.composite
def _imputable_tables(draw):
    """Holed tables the CLI can standardize: every column has two distinct
    observed values (rows 0 and 1), and the last row may be all missing."""
    n = draw(st.integers(3, 8))
    p = draw(st.integers(1, 4))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    values = np.array(draw(st.lists(finite, min_size=n * p, max_size=n * p))).reshape(n, p)
    values[1] = values[0] + 1.0
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p)))
    mask = mask.reshape(n, p)
    if draw(st.booleans()):
        mask[-1] = False
    mask[:2] = True
    return DataMatrix(values, mask, tuple(f"r{i}" for i in range(n)),
                      tuple(f"c{k}" for k in range(p)))


@settings(max_examples=25, deadline=None)
@given(_imputable_tables(), st.integers(0, 50))
def test_cli_impute_outputs_agree_with_input_and_each_other(data, seed):
    # through somimpute.cli.main: impute --model and impute --n-maps 2, each
    # with and without the column-mean fallback
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv_path = tmp / "in.csv"
        write_csv(data, csv_path)
        given_cells = _csv_cells(csv_path)
        grid = ["--grid-rows", "1", "--grid-cols", "2", "--iters", "40", "--seed", str(seed)]
        assert main(["train", "--input", str(csv_path), "--output-dir", str(tmp / "run"),
                     *grid]) == 0
        sources = {"model": ["--model", str(tmp / "run" / "model.txt")],
                   "maps": ["--n-maps", "2", *grid]}
        for name, extra in sources.items():
            for fallback in ("none", "column-mean"):
                out = tmp / f"{name}-{fallback}"
                assert main(["impute", "--input", str(csv_path), "--output-dir", str(out),
                             "--fallback", fallback, *extra]) == 0
                imputed = _csv_cells(out / "imputed.csv")
                imputed_floats = read_csv(out / "imputed.csv")
                assert (imputed_floats.values[data.mask].tobytes()
                        == data.values[data.mask].tobytes())
                with open(out / "provenance.csv", newline="") as fh:
                    prov = list(csv.DictReader(fh))
                missing = {cell for cell, field in given_cells.items() if field == ""}
                assert {(r["label"], r["column"]) for r in prov} == missing
                for r in prov:
                    if r["source"] != "unresolved":
                        assert r["estimate"] == imputed[r["label"], r["column"]]
                unresolved = {(r["label"], r["column"]) for r in prov
                              if r["source"] == "unresolved"}
                assert unresolved == {cell for cell, field in imputed.items() if field == ""}
                if fallback == "column-mean":
                    assert not unresolved


def _stripped_text(min_size):
    """Text that write_csv writes and read_csv reads back unchanged."""
    return st.text(st.characters(blacklist_categories=("Cs",)), min_size=min_size,
                   max_size=4).filter(lambda t: t == t.strip())


@st.composite
def _command_runs(draw):
    """A small table, one of the five run commands and its flags, without
    ``--input`` or ``--output-dir``: ``(data, argv, training, refused)``.
    ``training`` is ``None``, or the ``train`` command line whose model
    ``argv`` reads where it says ``MODEL``; ``refused`` says that ``argv``
    is an ``impute --model`` run with a training flag away from its default."""
    command = draw(st.sampled_from(["train", "classify", "impute", "evaluate", "render"]))
    n = draw(st.integers(2, 8))
    p = draw(st.integers(1, 4))
    values = np.array(draw(st.lists(st.integers(-8, 8), min_size=n * p, max_size=n * p)))
    values = values.reshape(n, p) / 4.0
    mask = np.ones((n, p), bool)
    if command != "evaluate":  # evaluate needs a complete table
        holes = draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p))
        mask = ~np.array(holes).reshape(n, p)
        if draw(st.booleans()):
            mask[-1] = False
    if draw(st.booleans()):  # two rows that every column can be scaled by
        mask[:2] = True
        values[1] = values[0] + 0.25
    mask[0, ~mask.any(axis=0)] = True
    io = []
    cats = None
    if draw(st.booleans()):
        cats = tuple(draw(st.lists(st.none() | _stripped_text(1).filter(lambda c: c != "NA"),
                                   min_size=n, max_size=n)))
        io = ["--categorical-col", "level"]
    labels = tuple(draw(st.lists(_stripped_text(0), min_size=n, max_size=n)))
    data = DataMatrix(values, mask, labels, tuple(f"c{k}" for k in range(p)), cats,
                      None if cats is None else "level")
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    training = [
        *io, "--grid-rows", str(rows), "--grid-cols", str(cols),
        "--iters", str(draw(st.integers(1, 60))), "--seed", str(draw(st.integers(0, 3))),
        "--alpha0", str(draw(st.sampled_from([0.5, 0.9]))),
        "--zero-radius-fraction", str(draw(st.sampled_from([0.0, 0.4, 1.0]))),
        "--mode", draw(st.sampled_from([m.value for m in TrainingMode])),
        *draw(st.sampled_from([[], ["--radius0", "0"], ["--radius0", "1"]])),
    ]
    superclasses = draw(st.sampled_from([[], ["--superclasses", "1"],
                                         ["--superclasses", str(rows * cols + 1)]]))
    fallback = ["--fallback", draw(st.sampled_from(["none", "column-mean"]))]
    if command == "train":
        return data, ["train", *training, *superclasses], None, False
    if command == "evaluate":
        return data, ["evaluate", *training,
                      "--d-max", str(draw(st.integers(1, max(1, p - 1)))),
                      "--repeats", str(draw(st.integers(1, 2))),
                      "--n-maps", str(draw(st.integers(1, 2))),
                      "--deletion-mode",
                      draw(st.sampled_from(["per-row", "global-mcar"]))], None, False
    if command == "impute" and draw(st.booleans()):
        return data, ["impute", *training, "--n-maps", str(draw(st.integers(1, 3))),
                      *fallback], None, False
    extra = {"classify": [], "impute": fallback, "render": superclasses}[command]
    refused = command == "impute" and draw(st.integers(0, 3)) == 0
    if refused:
        extra = [*extra, *draw(st.sampled_from([
            ["--grid-rows", "2"], ["--grid-cols", "3"], ["--radius0", "0"], ["--iters", "5"],
            ["--alpha0", "0.9"], ["--alpha-final", "0.2"], ["--zero-radius-fraction", "1.0"],
            ["--seed", "9"], ["--mode", "complete-only"]]))]
    return data, [command, *io, "--model", "MODEL", *extra], ["train", *training], refused


def _outputs(outdir: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(outdir.iterdir()) if f.name != "manifest.txt"}


@settings(max_examples=100, deadline=None)
@given(_command_runs())
def test_every_command_exits_cleanly_repeats_and_replays_its_bytes(run):
    # exit 0, or 2 with no output directory; observed cells pass through
    # impute; the same flags write the same bytes, and so does replay; an
    # impute --model run with a training flag away from its default exits 2
    data, argv, training, refused = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csv_path = tmp / "in.csv"
        write_csv(data, csv_path)

        def run_into(out, argv):
            rc = main([*argv, "--input", str(csv_path), "--output-dir", str(out)])
            assert rc in (0, 2)
            assert rc == 0 or not out.exists()
            return rc

        if training is not None:
            if run_into(tmp / "model", training):
                return
            argv = [str(tmp / "model" / "model.txt") if a == "MODEL" else a for a in argv]
        if refused:
            assert run_into(tmp / "a", argv) == 2
            return
        if run_into(tmp / "a", argv):
            return
        first = _outputs(tmp / "a")
        assert first
        if "imputed.csv" in first:
            imputed = read_csv(tmp / "a" / "imputed.csv", categorical_col=data.categorical_name)
            assert imputed.values[data.mask].tobytes() == data.values[data.mask].tobytes()
        assert run_into(tmp / "b", argv) == 0
        assert _outputs(tmp / "b") == first
        assert main(["replay", "--manifest", str(tmp / "a" / "manifest.txt"),
                     "--output-dir", str(tmp / "c")]) == 0
        assert _outputs(tmp / "c") == first


class TestReplay:
    def _csvs(self, outdir):
        return sorted(p.name for p in outdir.glob("*.csv"))

    def _assert_replay_identical(self, tmp_path, outdir, tag):
        redo = tmp_path / f"redo_{tag}"
        rc = main([
            "replay", "--manifest", str(outdir / "manifest.txt"),
            "--output-dir", str(redo),
        ])
        assert rc == 0
        names = self._csvs(outdir)
        assert names == self._csvs(redo) and names
        for name in names:
            assert (outdir / name).read_bytes() == (redo / name).read_bytes(), name

    def test_all_subcommands_replay_byte_identically(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        run = tmp_path / "run"
        assert main(_train_args(csv_path, run, ("--superclasses", "2"))) == 0
        self._assert_replay_identical(tmp_path, run, "train")

        cls = tmp_path / "cls"
        assert main([
            "classify", "--input", str(csv_path), "--output-dir", str(cls),
            "--model", str(run / "model.txt"), "--categorical-col", "level",
        ]) == 0
        self._assert_replay_identical(tmp_path, cls, "classify")

        imp = tmp_path / "imp"
        assert main([
            "impute", "--input", str(csv_path), "--output-dir", str(imp),
            "--model", str(run / "model.txt"), "--categorical-col", "level",
            "--fallback", "column-mean",
        ]) == 0
        self._assert_replay_identical(tmp_path, imp, "impute")

        comp = tmp_path / "complete.csv"
        data = DataMatrix.from_nan(np.random.default_rng(8).normal(size=(10, 4)))
        write_csv(data, comp)
        ev = tmp_path / "ev"
        assert main([
            "evaluate", "--input", str(comp), "--output-dir", str(ev),
            "--grid-rows", "2", "--grid-cols", "2", "--iters", "120",
            "--radius0", "1", "--d-min", "1", "--d-max", "2", "--seed", "2",
        ]) == 0
        self._assert_replay_identical(tmp_path, ev, "evaluate")

    def test_replay_from_another_working_directory(self, tmp_path, monkeypatch):
        # relative paths as typed at a prompt; the manifest is replayed from
        # a subdirectory, and that replay's manifest from the parent again
        monkeypatch.chdir(tmp_path)
        _write_training_csv(Path("t.csv"))
        assert main(_train_args("t.csv", "out")) == 0
        assert main(["classify", "--input", "t.csv", "--output-dir", "cls",
                     "--model", "out/model.txt", "--categorical-col", "level"]) == 0
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        for run in ("out", "cls"):
            assert main(["replay", "--manifest", f"../{run}/manifest.txt",
                         "--output-dir", f"redo_{run}"]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(["replay", "--manifest", "sub/redo_cls/manifest.txt",
                     "--output-dir", "redo_again"]) == 0
        for run, redo in (("out", "sub/redo_out"), ("cls", "sub/redo_cls"),
                          ("cls", "redo_again")):
            names = self._csvs(tmp_path / run)
            assert names == self._csvs(tmp_path / redo) and names
            for name in names:
                assert ((tmp_path / run / name).read_bytes()
                        == (tmp_path / redo / name).read_bytes()), (redo, name)

    def test_replay_names_a_climbing_output_dir(self, tmp_path, monkeypatch, capsys):
        # output_dir "../out" does not say which directory the run started
        # in, so a relative input cannot be placed from anywhere else
        (tmp_path / "sub").mkdir()
        _write_training_csv(tmp_path / "t.csv")
        monkeypatch.chdir(tmp_path / "sub")
        assert main(_train_args("../t.csv", "../out")) == 0
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["replay", "--manifest", "out/manifest.txt", "--output-dir", "redo"]) == 2
        err = capsys.readouterr().err
        assert "replay input '../t.csv' is missing" in err
        assert "original run's directory cannot be recovered" in err
        assert "replay from the directory that run started in" in err
        assert not (tmp_path / "redo").exists()

    def test_manifest_digests_an_input_the_run_overwrites(self, tmp_path, monkeypatch,
                                                            capsys):
        # impute --output-dir . writes imputed.csv over its own input: the
        # manifest records the file that was read, so replay refuses
        monkeypatch.chdir(tmp_path)
        given = b"id,x,y\nr0,1.0,2.0\nr1,2.5,\nr2,0.5,1.5\nr3,3.0,4.0\n"
        Path("imputed.csv").write_bytes(given)
        assert main(["impute", "--input", "imputed.csv", "--output-dir", ".",
                     "--grid-rows", "1", "--grid-cols", "2", "--iters", "50"]) == 0
        assert Path("imputed.csv").read_bytes() != given
        manifest = read_manifest("manifest.txt")
        assert manifest["input_sha256"] == hashlib.sha256(given).hexdigest()
        capsys.readouterr()
        assert main(["replay", "--manifest", "manifest.txt", "--output-dir", "redo"]) == 2
        assert ("replay input 'imputed.csv' changed since the original run"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("line, fault", [
        (b"bogus line", "not key=value: 'bogus line'"),
        (b"seed=seven", "seed: Expecting value"),
        (b'input="\xff.csv"', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["no-equals", "not-json", "not-utf8"])
    def test_malformed_manifest_line_names_file_and_line(self, tmp_path, capsys, line, fault):
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes(b'subcommand="train"\n\n' + line + b"\n")
        with pytest.raises(ValueError) as err:
            read_manifest(manifest)
        assert str(err.value).startswith(f"{manifest}: line 3: {fault}")
        assert main(["replay", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "redo")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {manifest}: line 3: {fault}")
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("key", ["input", "model", "output_dir"])
    def test_manifest_path_that_is_not_text_is_an_error(self, tmp_path, capsys, key):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        run = tmp_path / "run"
        assert main(_train_args(csv_path, run)) == 0
        assert main(["classify", "--input", str(csv_path), "--output-dir", str(run),
                     "--model", str(run / "model.txt"), "--categorical-col", "level"]) == 0
        entries = read_manifest(run / "manifest.txt")
        entries[key] = 5
        write_manifest(run / "manifest.txt", entries)
        capsys.readouterr()
        assert main(["replay", "--manifest", str(run / "manifest.txt"),
                     "--output-dir", str(tmp_path / "redo")]) == 2
        assert capsys.readouterr().err == (
            f"error: {run / 'manifest.txt'}: {key} must be a string, got 5\n")
        assert not (tmp_path / "redo").exists()

    @pytest.mark.parametrize("value", ["null", '["train"]'])
    def test_manifest_whose_subcommand_is_not_text_is_refused(self, tmp_path, capsys, value):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"subcommand={value}\n", encoding="utf-8")
        assert main(["replay", "--manifest", str(manifest),
                     "--output-dir", str(tmp_path / "redo")]) == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: not a run manifest (no subcommand)\n")

    def test_replay_detects_changed_input(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        _write_training_csv(csv_path)
        run = tmp_path / "run"
        assert main(_train_args(csv_path, run)) == 0
        csv_path.write_text(csv_path.read_text() + "r99,lo,1,1,1,1\n")
        rc = main([
            "replay", "--manifest", str(run / "manifest.txt"),
            "--output-dir", str(tmp_path / "redo"),
        ])
        assert rc == 2
