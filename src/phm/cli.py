"""Command-line front end: score one pair, batch a manifest, evaluate predictions.

Exit codes: 0 success, 1 parse/I-O failure, 2 precondition violation,
3 numerical failure. Failures emit a JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import threading
import traceback
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import fields

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


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _convert_override(name: str, raw: str, kind: type):
    if kind is bool:
        if raw.lower() not in _BOOL_STRINGS:
            raise ParseError(f"bad boolean {raw!r} for config key {name!r}")
        return _BOOL_STRINGS[raw.lower()]
    try:
        return kind(raw)
    except ValueError:
        raise ParseError(f"bad value {raw!r} for config key {name!r}") from None


def _read_manifest(path: str):
    """Rows of (pair_id, ref, dist, overrides); extra columns must be config keys."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
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
        # Raw strings: a bad value fails its own row in _batch_row, not the batch.
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


class _SharedReferences:
    """The prepared references of one batch, one per reference key.

    The first row of a key prepares it within its own call; a row that needs
    a key under preparation waits for that result, or for its error, rather
    than repeating the work. An entry is dropped once the last of the rows
    counted for its key has released it.
    """

    def __init__(self, keys):
        self._lock = threading.Lock()
        self._users = Counter(keys)
        self._entries: dict[tuple, Future] = {}

    def acquire(self, key: tuple, prepare):
        with self._lock:
            entry = self._entries.get(key)
            first = entry is None
            if first:
                entry = self._entries[key] = Future()
        if not first:
            return entry.result()
        try:
            result = prepare()
        except BaseException as e:  # the waiting rows must not hang, whatever stopped it
            entry.set_exception(e)
            raise
        entry.set_result(result)
        return result

    def release(self, key: tuple) -> None:
        with self._lock:
            self._users[key] -= 1
            if self._users[key] <= 0:
                self._entries.pop(key, None)


def _load_and_prepare(ref_path: str, cfg: MetricConfig):
    """(prepared reference, None), or (None, (error, traceback)) when preparing it raised.

    A load failure raises here. A preparation failure is handed back, so that
    each row raises it only after loading its own distorted cloud: one pair
    scored alone meets the two in that order. The traceback is kept apart
    because every raise of the shared error prepends the raising frame.
    """
    ref = load_ply(ref_path)
    try:
        return prepare_reference(ref, cfg), None
    except Exception as e:
        return None, (e, e.__traceback__)


def _batch_row(pair_id, ref, dist, base_cfg, overrides, shared):
    """(pair_id, report or None, error cell); never raises, so one row cannot stop a batch."""
    try:
        cfg = _row_config(base_cfg, overrides)
        key = _reference_key(ref, cfg)
        try:
            prepared, failed = shared.acquire(key, lambda: _load_and_prepare(ref, cfg))
            dist_cloud = load_ply(dist)
            if failed is not None:
                error, tb = failed
                raise error.with_traceback(tb)
            report = phm_score(prepared, dist_cloud, cfg)
        finally:
            shared.release(key)
        if report.status != "ok":
            return pair_id, None, report.status
        return pair_id, report, ""
    except FileNotFoundError as e:
        return pair_id, None, f"missing file: {e.filename}"
    except (PhmError, OSError) as e:
        return pair_id, None, f"{type(e).__name__}: {e}"
    except Exception as e:  # a defect, not bad input: keep the traceback visible
        sys.stderr.write(f"pair {pair_id!r} failed:\n{traceback.format_exc()}")
        return pair_id, None, f"{type(e).__name__}: {e}"


def _reference_keys(rows, base_cfg: MetricConfig) -> list[tuple]:
    """The reference key of each row whose config builds; any other row fails before using one."""
    keys = []
    for _, ref, _, overrides in rows:
        try:
            keys.append(_reference_key(ref, _row_config(base_cfg, overrides)))
        except Exception:  # _batch_row reports it in the row's error cell
            continue
    return keys


def cmd_batch(args) -> int:
    if args.jobs < 1:
        raise ParseError(f"--jobs must be >= 1, got {args.jobs}")
    cfg = _load_config(args.config)
    rows = _read_manifest(args.manifest)
    shared = _SharedReferences(_reference_keys(rows, cfg))
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(_batch_row, pid, ref, dist, cfg, ov, shared)
                   for pid, ref, dist, ov in rows]
        results = [f.result() for f in futures]  # manifest order, not completion order

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("pair_id",) + _REPORT_COLUMNS + ("error",))
    for pair_id, report, err in results:
        if report is None:
            writer.writerow([pair_id] + [""] * len(_REPORT_COLUMNS) + [err])
        else:
            writer.writerow([pair_id] + [_fmt(getattr(report, c)) for c in _REPORT_COLUMNS] + [err])
    payload = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_eval(args) -> int:
    # Imported here: scipy.stats and scipy.optimize cost score and batch start-up.
    from .evaluation import correlation_suite, fit_logistic, read_records_csv

    records = read_records_csv(args.predictions)
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
    p.add_argument("--jobs", type=int, default=1, help="concurrent scoring jobs")
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
    except FileNotFoundError as e:
        _emit_error(e)
        return 1
    except PhmError as e:
        _emit_error(e)
        return e.exit_code
    except OSError as e:
        _emit_error(e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
