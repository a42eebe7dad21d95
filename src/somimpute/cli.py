"""Command-line surface: train, classify, impute, evaluate, render, replay.

Every run validates its numeric parameters before touching the input, and
writes a ``manifest.txt`` (key=value, json-encoded values) recording the
subcommand, all parameters, seeds and input digests; ``replay`` re-executes
a manifest into a fresh output directory and reproduces the CSV outputs byte
for byte.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import fields, replace
from itertools import islice
from pathlib import Path

from . import __version__
from .data import (DataMatrix, _fit_observed, _observed_means, _row_blocks, _standardized,
                   standardize)
from .evaluation import deletion_curve, modality_proportions
from .imputation import (
    ImputationReport,
    _map_seeds,
    _with_column_means,
    _with_fills,
    impute_ensemble,
)
from .model_io import (
    DEFAULT_MISSING_MARKERS,
    SomModel,
    _append_rows,
    _assignment_text,
    _provenance_text,
    _read_blocks,
    _read_table,
    _table_text,
    check_model_col_names,
    load_model,
    read_csv,
    read_manifest,
    save_model,
    sha256_file,
    write_assignment_csv,
    write_dendrogram_csv,
    write_eval_csv,
    write_manifest,
    write_superclass_csv,
)
from .render import render_curve_svg, render_map_svg, render_map_text
from .superclass import hierarchical_codes, superclass_of_rows
from .topology import GridTopology
from .trainer import (TrainingMode, TrainingSchedule, classify_supplementary, pool_mask, train,
                      train_maps)

# unused here; perfbench/tracing.py wraps them
from .data import destandardize, fit_standardizer
from .imputation import impute, impute_multi
from .model_io import write_csv, write_provenance_csv


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="input CSV (header row, label column first)")
    p.add_argument("--output-dir", required=True, help="directory for outputs and manifest")
    p.add_argument(
        "--missing-marker",
        action="append",
        dest="missing_markers",
        default=None,
        help="cell content treated as missing (repeatable; default: empty field and NA)",
    )
    p.add_argument("--label-col", default=None, help="name of the label column (default: first)")
    p.add_argument("--categorical-col", default=None, help="name of a categorical column")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-rows", type=int, required=True)
    p.add_argument("--grid-cols", type=int, required=True)


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    s = TrainingSchedule  # a dataclass field's default is its class attribute
    p.add_argument("--iters", type=int, default=s.total_iters, help="training iterations")
    p.add_argument("--alpha0", type=float, default=s.alpha0, help="initial learning rate")
    p.add_argument("--alpha-final", type=float, default=s.alpha_final, help="final learning rate")
    p.add_argument(
        "--radius0", type=int, default=None,
        help="initial neighborhood radius (default: max(rows, cols) // 2)",
    )
    p.add_argument("--zero-radius-fraction", type=float, default=s.zero_radius_fraction,
                   help="final fraction of iterations at radius 0")
    p.add_argument("--seed", type=int, default=s.rng_seed)
    p.add_argument("--mode", choices=[m.value for m in TrainingMode],
                   default=TrainingMode.INCLUDE_INCOMPLETE.value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="somimpute",
        description="Self-organizing maps for datasets with missing values.",
    )
    parser.add_argument("--version", action="version", version=f"somimpute {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("train", help="fit a map and classify every row")
    _add_io_flags(p)
    _add_grid_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--superclasses", type=int, default=None,
                   help="also cut the code vectors into k super-classes")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="assign rows of a CSV against a saved model")
    _add_io_flags(p)
    p.add_argument("--model", required=True, help="model file written by train")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("impute", help="fill missing cells from the winning code vectors")
    _add_io_flags(p)
    p.add_argument("--model", default=None, help="model file (single-map imputation)")
    p.add_argument("--n-maps", type=int, default=1,
                   help="train this many maps and average their estimates (no --model)")
    p.add_argument("--grid-rows", type=int, default=None)
    p.add_argument("--grid-cols", type=int, default=None)
    _add_schedule_flags(p)
    p.add_argument("--fallback", choices=["none", "column-mean"], default="none",
                   help="fill unresolved (all-missing-row) cells with column means")
    p.set_defaults(func=cmd_impute)

    p = sub.add_parser("evaluate", help="random-deletion error study on a complete CSV")
    _add_io_flags(p)
    _add_grid_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--d-min", type=int, default=1, help="smallest deletions-per-row")
    p.add_argument("--d-max", type=int, required=True, help="largest deletions-per-row")
    p.add_argument("--n-maps", type=int, default=1)
    p.add_argument("--repeats", type=int, default=1, help="independent arms averaged per d")
    p.add_argument("--deletion-mode", choices=["per-row", "global-mcar"], default="per-row",
                   help="per-row is the reference protocol; global-mcar spreads the "
                        "same cell budget over the whole table")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("render", help="draw the map (SVG and text) for a dataset")
    _add_io_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--superclasses", type=int, default=None)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("replay", help="re-run a manifest into a new output directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_replay)
    return parser


def _effective_markers(args) -> None:
    """Decode ``args.missing_markers`` in place (the defaults when none is
    given); :func:`~somimpute.model_io.read_csv` checks them."""
    if args.missing_markers is None:
        args.missing_markers = list(DEFAULT_MISSING_MARKERS)
    # argv is decoded by the locale (undecodable bytes surrogate-escaped), the CSV as UTF-8
    decoded = []
    for m in args.missing_markers:
        try:
            decoded.append(m.encode("utf-8", "surrogateescape").decode("utf-8"))
        except UnicodeError:
            raise ValueError(f"missing marker {m!r} is not valid UTF-8") from None
    args.missing_markers = decoded


def _outdir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextmanager
def _staged(output_dir, *names):
    """One text file open for writing per name in ``names``, in a new
    temporary directory inside ``output_dir`` (or inside its nearest
    existing parent, while it does not exist yet).  When the block ends
    without an error, ``output_dir`` is made and each file is renamed into
    it; otherwise the temporary directory is removed with everything in it,
    so a failed run leaves no output behind.  A directory where a file goes
    cannot be replaced by it, so one is refused, by name, before the first
    rename."""
    out = Path(output_dir)
    home = next(p for p in (out, *out.parents) if p.is_dir())
    with tempfile.TemporaryDirectory(prefix=".somimpute-", dir=home) as tmp:
        paths = [Path(tmp) / name for name in names]
        with ExitStack() as files:
            yield [files.enter_context(p.open("w", newline="", encoding="utf-8")) for p in paths]
        for name in names:
            # os.replace replaces a symbolic link, to a directory too, but not a directory
            if (out / name).is_dir() and not (out / name).is_symlink():
                raise ValueError(f"{out / name} is a directory, which the output {name} "
                                 "cannot replace")
        out.mkdir(parents=True, exist_ok=True)
        for path in paths:
            os.replace(path, out / path.name)


# the flags that name files a run reads; each run digests them into args
# before it reads them, and the manifest records the digests
_INPUT_FLAGS = ("input", "model")


def _digest_inputs(args) -> None:
    """Digest each file a run reads into ``args``.  A command calls this once
    its own arguments have passed, so that a refused command line reads no
    file, and before any output exists, since an output may overwrite an
    input."""
    for name in _INPUT_FLAGS:
        path = getattr(args, name, None)
        if path is None or not os.path.exists(path):
            continue  # the run's own read names a missing file
        if not os.path.isfile(path):
            raise ValueError(f"--{name} {path!r} is not a regular file: the manifest "
                             "records its digest, and replay reads it again")
        setattr(args, f"{name}_sha256", sha256_file(path))


def _training_args(args) -> tuple[GridTopology, TrainingSchedule, TrainingMode]:
    topo = GridTopology(args.grid_rows, args.grid_cols)
    if args.radius0 is None:
        args.radius0 = max(topo.rows, topo.cols) // 2
    # each schedule field is set by the flag of its name, but for these two
    dests = {"total_iters": "iters", "rng_seed": "seed"}
    schedule = TrainingSchedule(**{f.name: getattr(args, dests.get(f.name, f.name))
                                   for f in fields(TrainingSchedule)})
    return topo, schedule, TrainingMode(args.mode)


def _check_model_columns(args, got, codebook) -> None:
    """Refuse an input whose numeric columns ``got`` are not ``codebook``'s,
    by name and in order; the error names the first position that differs."""
    expected = codebook.col_names
    if got != expected:
        k = next(
            (k for k, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        seen = repr(got[k]) if k < len(got) else "missing"
        want = repr(expected[k]) if k < len(expected) else "no column"
        raise ValueError(
            f"{args.input}: numeric column {k + 1} is {seen}, the model has {want} there"
        )


def _read_standardized(args, model: SomModel | None = None):
    """``(std, params)``: the input CSV standardized with the model's
    parameters, once its columns are checked to be the model's, or with
    parameters fitted on the table when there is no model.  The table is
    standardized in place before it becomes a matrix, so it is held once."""
    values, mask, *rest = _read_table(args.input, args.missing_markers, args.label_col,
                                         args.categorical_col)
    names = rest[1]
    if model is None:
        params = _fit_observed(values, mask, names)
    else:
        _check_model_columns(args, names, model.codebook)
        params = model.standardizer
    _standardized(values, params, out=values)
    return DataMatrix._of(values, mask, *rest), params


def _model_blocks(args, codebook):
    """The input CSV's row blocks, in its own units, each checked to have
    ``codebook``'s columns."""
    for block in _read_blocks(args.input, args.missing_markers, args.label_col,
                              args.categorical_col):
        _check_model_columns(args, block.col_names, codebook)
        yield block


def cmd_train(args) -> None:
    topo, schedule, mode = _training_args(args)
    if args.superclasses is not None and not 1 <= args.superclasses <= topo.n_units:
        raise ValueError(f"--superclasses must lie in [1, {topo.n_units}]")
    _digest_inputs(args)
    std, params = _read_standardized(args)
    check_model_col_names(std.col_names)  # before the map is trained
    result = train(std, topo, schedule, mode)
    outdir = _outdir(args)
    save_model(SomModel(result.codebook, params, schedule, mode), outdir / "model.txt")
    supplementary = ~pool_mask(std, mode) & (result.assignment.units >= 0)
    row_sc = None
    if args.superclasses is not None:
        sc = hierarchical_codes(result.codebook, args.superclasses)
        write_superclass_csv(outdir / "superclasses.csv", sc)
        write_dendrogram_csv(outdir / "dendrogram.csv", sc)
        row_sc = superclass_of_rows(result.assignment, sc)
    write_assignment_csv(
        outdir / "assignments.csv", std.row_labels, result.assignment, topo,
        superclass_labels=row_sc, supplementary=supplementary,
    )
    n_all_missing = int((~std.mask.any(axis=1)).sum())
    if n_all_missing:
        print(
            f"warning: {n_all_missing} all-missing row(s) skipped during "
            "training and flagged unclassifiable",
            file=sys.stderr,
        )


def cmd_classify(args) -> None:
    """Classify the input one row block at a time, so that the run holds one
    block of rows, not the table."""
    _digest_inputs(args)
    model = load_model(args.model)
    with _staged(args.output_dir, "assignments.csv") as (out,):
        for block in _model_blocks(args, model.codebook):
            assignment = classify_supplementary(model.codebook,
                                                standardize(block, model.standardizer))
            _append_rows(out, *_assignment_text(block.row_labels, assignment,
                                                model.codebook.topology))


def _destandardized_report(report: ImputationReport, data, params) -> ImputationReport:
    """The report in the units of ``data``: each filled cell's estimate,
    destandardized, written into a copy of ``data``, whose observed cells
    are never touched."""
    f = report.fills
    est = report.filled.values[f.rows, f.cols] * params.stds[f.cols] + params.means[f.cols]
    return replace(report, filled=_with_fills(data, f.rows, f.cols, est))


def cmd_impute(args) -> None:
    """Fill the input from a saved model (``--model``), or from ``--n-maps``
    maps trained on the input, held once while they train; either way the
    cells are then filled and written one row block at a time."""
    if args.n_maps < 1:
        raise ValueError(f"--n-maps must be >= 1, got {args.n_maps}")
    means = None
    if args.model is not None:
        if args.n_maps != 1:
            raise ValueError("--n-maps > 1 trains its own maps; it cannot be combined with --model")
        # a training flag away from its default would be ignored, yet recorded in the manifest
        trains = argparse.ArgumentParser(add_help=False)
        _add_schedule_flags(trains)
        for dest, default in {"grid_rows": None, "grid_cols": None,
                              **vars(trains.parse_args([]))}.items():
            if getattr(args, dest) != default:
                raise ValueError(f"--{dest.replace('_', '-')} sets how the maps impute trains; "
                                 "it cannot be combined with --model")
        _digest_inputs(args)
        model = load_model(args.model)
        codebooks, params, seeds = [model.codebook], model.standardizer, None
        if args.fallback == "column-mean":
            # the whole table's means, before the first block is filled: one more read
            stds = (standardize(b, params) for b in _model_blocks(args, model.codebook))
            means = _observed_means((s.values, s.mask) for s in stds)
    else:
        if args.grid_rows is None or args.grid_cols is None:
            raise ValueError("impute without --model needs --grid-rows and --grid-cols")
        topo, schedule, mode = _training_args(args)
        _digest_inputs(args)
        std, params = _read_standardized(args)
        seeds = _map_seeds(schedule.rng_seed, args.n_maps)
        codebooks = train_maps([std] * args.n_maps, topo, schedule, seeds, mode)
        if args.fallback == "column-mean":
            means = _observed_means(_row_blocks(std.values, std.mask))
        # the standardized table would not give the observed cells back
        # verbatim, so the blocks are read again
        del std
    _impute_blocks(args, codebooks, params, seeds, means)


def _impute_blocks(args, codebooks, params, seeds, means) -> None:
    """Fill the input one row block at a time, so that the run holds one
    block of rows, not the table: each block is standardized with
    ``params`` and filled by :func:`impute_ensemble` of ``codebooks`` and
    ``seeds``, its unresolved cells then take their columns' entries of
    ``means`` (unless None), and it is written back in its own units.

    Each block's report is the whole table's report restricted to the
    block's rows.  ``provenance.csv`` lists the cells the maps filled before
    those the fallback filled or left unresolved (the cells of the
    all-missing rows), so those lines wait in a side file until the end.
    """
    with _staged(args.output_dir, "imputed.csv", "provenance.csv") as (imputed, provenance), \
            tempfile.TemporaryFile("w+", newline="", encoding="utf-8",
                                   dir=Path(provenance.name).parent) as later:
        for block in _model_blocks(args, codebooks[0]):
            report = impute_ensemble(codebooks, standardize(block, params), seeds)
            from_map = len(report.fills)
            if means is not None:
                report = _with_column_means(report, means)
            report = _destandardized_report(report, block, params)
            # missing cells as the first marker, so that the file reads back under --missing-marker
            _append_rows(imputed, *_table_text(report.filled, args.missing_markers))
            header, lines = _provenance_text(report)
            _append_rows(provenance, header, islice(lines, from_map))
            later.writelines(line + "\n" for line in lines)
        later.seek(0)
        shutil.copyfileobj(later, provenance)


def cmd_evaluate(args) -> None:
    topo, schedule, mode = _training_args(args)
    if args.d_min < 1 or args.d_max < args.d_min:
        raise ValueError(f"invalid deletion range [{args.d_min}, {args.d_max}]")
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    if args.n_maps < 1:
        raise ValueError(f"--n-maps must be >= 1, got {args.n_maps}")
    _digest_inputs(args)
    data = read_csv(args.input, args.missing_markers, args.label_col, args.categorical_col)
    report = deletion_curve(
        data, range(args.d_min, args.d_max + 1), topo, schedule,
        n_maps=args.n_maps, n_repeats=args.repeats, mode=mode,
        global_mcar=args.deletion_mode == "global-mcar",
    )
    outdir = _outdir(args)
    write_eval_csv(outdir / "eval.csv", report)
    (outdir / "curve.svg").write_text(render_curve_svg(report), encoding="utf-8")


def cmd_render(args) -> None:
    model = load_model(args.model)
    n_units = model.codebook.topology.n_units
    if args.superclasses is not None and not 1 <= args.superclasses <= n_units:
        raise ValueError(f"--superclasses must lie in [1, {n_units}]")
    _digest_inputs(args)
    std, _ = _read_standardized(args, model)
    assignment = classify_supplementary(model.codebook, std)
    supplementary = ~pool_mask(std, model.mode) & (assignment.units >= 0)
    sc = None
    if args.superclasses is not None:
        sc = hierarchical_codes(model.codebook, args.superclasses)
    modality = None
    if std.categorical is not None:
        modality = modality_proportions(assignment, std)
    outdir = _outdir(args)
    (outdir / "map.txt").write_text(
        render_map_text(model.codebook, assignment, std.row_labels, supplementary, sc),
        encoding="utf-8",
    )
    (outdir / "map.svg").write_text(
        render_map_svg(
            model.codebook, assignment, std.row_labels, supplementary, sc, modality
        ),
        encoding="utf-8",
    )


_REPLAY_SKIP = {"subcommand", "tool_version", "output_dir"}

# argparse dests whose flag spelling differs from the default dash translation
_REPLAY_FLAGS = {"missing_markers": "--missing-marker"}


def cmd_replay(args) -> int:
    manifest = read_manifest(args.manifest)
    if not isinstance(manifest.get("subcommand"), str):
        raise ValueError(f"{args.manifest}: not a run manifest (no subcommand)")
    for key in ("input", "model", "output_dir"):
        if manifest.get(key) is not None and not isinstance(manifest[key], str):
            raise ValueError(f"{args.manifest}: {key} must be a string, got {manifest[key]!r}")
    # relative inputs start from the original run's directory: the manifest's
    # directory less the relative output_dir it was written into, else "."
    out = Path(manifest.get("output_dir") or ".").parts
    here = Path(os.path.abspath(args.manifest)).parent.parts
    keep = len(here) - len(out)
    run_dir = os.path.relpath(Path(*here[:keep])) if here[keep:] == out else "."
    for key, digest in sorted(manifest.items()):
        if not key.endswith("_sha256"):
            continue
        name = key[: -len("_sha256")]
        src = manifest.get(name)
        if src is not None and run_dir != ".":
            src = manifest[name] = os.path.join(run_dir, src)
        if src is None or not Path(src).exists():
            hint = ""
            if ".." in out and src is not None and not os.path.isabs(src):
                hint = (f"; the manifest's output_dir {manifest['output_dir']!r} climbs with "
                        "'..', so the original run's directory cannot be recovered from it: "
                        "replay from the directory that run started in")
            raise ValueError(f"replay input {src!r} is missing{hint}")
        if sha256_file(src) != digest:
            raise ValueError(f"replay input {src!r} changed since the original run")
    argv: list[str] = [manifest["subcommand"]]
    for key in sorted(manifest):
        if key in _REPLAY_SKIP or key.endswith("_sha256"):
            continue
        value = manifest[key]
        if value is None:
            continue
        flag = _REPLAY_FLAGS.get(key, "--" + key.replace("_", "-"))
        if isinstance(value, list):
            for item in value:
                argv.extend([flag, str(item)])
        else:
            argv.extend([flag, str(value)])
    argv.extend(["--output-dir", args.output_dir])
    return main(argv)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func is cmd_replay:
            return cmd_replay(args)  # the replayed run writes its own manifest
        _effective_markers(args)  # before the input is read or an output is made
        args.func(args)
        entries = {k: v for k, v in vars(args).items() if k != "func"}
        entries["tool_version"] = __version__
        write_manifest(Path(args.output_dir) / "manifest.txt", entries)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
