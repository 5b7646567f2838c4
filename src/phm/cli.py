"""Command-line front end: score one pair, batch a manifest, evaluate predictions.

Exit codes: 0 success, 1 parse/I-O failure, 2 precondition violation,
3 numerical failure. Failures emit a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import fields

from . import cloud
from .cloud import load_ply
from .errors import ParseError, PhmError
from .metric import REFERENCE_FIELDS, MetricConfig, phm_score, prepare_reference

CONFIG_ENV_VAR = "PHM_CONFIG"
_REPORT_COLUMNS = ("d_h", "d_l_o", "d_l_i", "d_l", "omega", "score")
_CONFIG_TYPES = {f.name: type(getattr(MetricConfig(), f.name)) for f in fields(MetricConfig)}


def _load_config(path: str | None) -> MetricConfig:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return MetricConfig()
    return MetricConfig.from_file(path)


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def _emit_error(exc: Exception) -> None:
    name = type(exc).__name__
    sys.stderr.write(json.dumps({"error": name, "message": str(exc)}) + "\n")


def cmd_score(args) -> int:
    cfg = _load_config(args.config)
    report = phm_score(load_ply(args.ref), load_ply(args.dist), cfg)
    if report.status != "ok":
        _emit_error(PhmError(f"pipeline produced no score: {report.status}"))
        return 3
    if args.plain:
        sys.stdout.write(_fmt(report.score) + "\n")
    else:
        sys.stdout.write(report.to_json() + "\n")
    return 0


def _convert_override(name: str, raw: str, kind: type):
    try:
        return kind(raw)
    except ValueError:
        raise ParseError(f"bad value {raw!r} for config key {name!r}") from None


def _read_manifest(path: str):
    """Rows of (pair_id, ref, dist, overrides); extra columns must be config keys."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # -sig: Excel's BOM
            reader = csv.DictReader(fh)
            cols, table = reader.fieldnames or [], list(reader)
    except (UnicodeDecodeError, csv.Error) as e:
        raise ParseError(f"manifest is not a readable UTF-8 CSV: {e}") from None
    missing = [c for c in ("pair_id", "ref_path", "dist_path") if c not in cols]
    if missing:
        raise ParseError(f"manifest lacks columns {missing}")
    extras = [c for c in cols if c not in ("pair_id", "ref_path", "dist_path")]
    bad = [c for c in extras if c not in _CONFIG_TYPES]
    if bad:
        raise ParseError(f"manifest has unknown config columns {bad}")
    rows = []
    seen = set()
    for i, row in enumerate(table):
        if None in row:  # DictReader's key for cells beyond the header
            raise ParseError(f"manifest row {i} ({row['pair_id']!r}) has more cells than the "
                             f"header, extra {row[None]!r}; quote a path that holds a comma")
        pid = (row["pair_id"] or "").strip()
        ref, dist = (row["ref_path"] or "").strip(), (row["dist_path"] or "").strip()
        if not pid or not ref or not dist:
            raise ParseError(f"manifest row {i} has an empty required field")
        if pid in seen:
            raise ParseError(f"duplicate pair_id {pid!r}")
        seen.add(pid)
        # Raw strings: a bad value fails its own row, not the batch.
        overrides = {c: raw for c in extras if (raw := (row.get(c) or "").strip())}
        rows.append((pid, ref, dist, overrides))
    return rows


def _row_config(base_cfg: MetricConfig, overrides: dict) -> MetricConfig:
    if not overrides:
        return base_cfg
    typed = {k: _convert_override(k, raw, _CONFIG_TYPES[k]) for k, raw in overrides.items()}
    return MetricConfig.from_dict({**base_cfg.to_dict(), **typed})


def _reference_key(ref_path: str, cfg: MetricConfig) -> tuple:
    return (ref_path, *(getattr(cfg, name) for name in REFERENCE_FIELDS))


def _error_cell(pair_id, e: Exception) -> str:
    if isinstance(e, FileNotFoundError):
        return f"missing file: {e.filename}"
    if isinstance(e, MemoryError):  # input too large for this machine, not a defect
        return f"MemoryError: {str(e) or 'out of memory'}"
    if not isinstance(e, (PhmError, OSError)):  # a defect, not bad input: keep the traceback visible
        sys.stderr.write(f"pair {pair_id!r} failed:\n{''.join(traceback.format_exception(e))}")
    return f"{type(e).__name__}: {e}"


def _batch_row(pair_id, dist, cfg, reference):
    """(pair_id, report or None, error cell); never raises, so one row cannot stop a batch.

    ``reference`` is the prepared reference, or what its preparation raised. That
    fails the row after its distorted cloud loads, as it would for a pair scored alone.
    """
    try:
        dist_cloud = load_ply(dist)
        if isinstance(reference, Exception):
            return pair_id, None, _error_cell(pair_id, reference)
        report = phm_score(reference, dist_cloud, cfg)
        if report.status != "ok":
            return pair_id, None, report.status
        return pair_id, report, ""
    except Exception as e:
        return pair_id, None, _error_cell(pair_id, e)


def _score_reference(ref_path: str, rows) -> list:
    """Load and prepare one reference key's reference once, then score its rows in order.

    A reference that fails to load fails every row before its distorted file is read.
    """
    try:
        ref = load_ply(ref_path)
    except Exception as e:
        return [(i, (pid, None, _error_cell(pid, e))) for pid, _, _, i in rows]
    try:
        reference = prepare_reference(ref, rows[0][2])
    except Exception as e:
        reference = e
    return [(i, _batch_row(pid, dist, cfg, reference)) for pid, dist, cfg, i in rows]


def cmd_batch(args) -> int:
    if args.jobs < 1:
        raise ParseError(f"--jobs must be >= 1, got {args.jobs}")
    base_cfg = _load_config(args.config)
    rows = _read_manifest(args.manifest)
    results = [None] * len(rows)
    groups: dict[tuple, list] = {}  # reference key -> its rows, in manifest order
    for i, (pid, ref, dist, overrides) in enumerate(rows):
        try:
            cfg = _row_config(base_cfg, overrides)
        except Exception as e:
            results[i] = (pid, None, _error_cell(pid, e))
            continue
        groups.setdefault(_reference_key(ref, cfg), []).append((pid, dist, cfg, i))

    # Opened before scoring, so an unwritable --out costs no work.
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else nullcontext(sys.stdout)
    workers = cloud.TREE_WORKERS
    with out as fh:
        cloud.TREE_WORKERS = max(1, workers // args.jobs)  # the jobs share the tree threads
        try:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                tasks = [pool.submit(_score_reference, key[0], group)
                         for key, group in groups.items()]
                for task in tasks:
                    for i, result in task.result():
                        results[i] = result
        finally:
            cloud.TREE_WORKERS = workers
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("pair_id",) + _REPORT_COLUMNS + ("error",))
        for pair_id, report, err in results:
            if report is None:
                writer.writerow([pair_id] + [""] * len(_REPORT_COLUMNS) + [err])
            else:
                writer.writerow([pair_id] + [_fmt(getattr(report, c)) for c in _REPORT_COLUMNS] + [err])
    return 0


def cmd_eval(args) -> int:
    # Imported here: scipy.stats and scipy.optimize cost score and batch start-up.
    from .evaluation import correlation_suite, fit_logistic, read_records_csv

    records = read_records_csv(args.predictions)
    # A fit that overflows ends in FitError; its JSON error is all stderr gets.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        params = fit_logistic(records)
        plcc, srocc, rmse = correlation_suite(records, params)
    doc = {"plcc": plcc, "srocc": srocc, "rmse": rmse, "fit": params.to_dict()}
    payload = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phm", description="Hybrid full-reference point cloud quality metric")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score one distorted cloud against its reference")
    p.add_argument("--ref", required=True, help="reference PLY path")
    p.add_argument("--dist", required=True, help="distorted PLY path")
    p.add_argument("--config", default=None,
                   help=f"JSON config path (default: ${CONFIG_ENV_VAR} if set)")
    p.add_argument("--plain", action="store_true", help="print only the score")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("batch", help="score every pair in a manifest CSV")
    p.add_argument("--manifest", required=True,
                   help="CSV with pair_id, ref_path, dist_path and optional config columns")
    p.add_argument("--config", default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="reference keys scored at once, each preparing its reference once "
                        "and scoring its rows in order")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("eval", help="fit the logistic mapping and report correlations")
    p.add_argument("predictions", help="CSV with sample_id, mos, prediction")
    p.add_argument("--out", default=None, help="output JSON (default: stdout)")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PhmError as e:
        _emit_error(e)
        return e.exit_code
    except OSError as e:
        _emit_error(e)
        return 1
    except MemoryError as e:  # input too large for this machine: a numerical failure
        _emit_error(MemoryError(str(e) or "out of memory"))
        return 3


if __name__ == "__main__":
    sys.exit(main())
