"""Command-line entry point.

Exit codes are a stable contract:
    0 ok, 1 I/O error, 2 payload parse error, 3 validation failure,
    4 partial success, 5 lock contention.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from .dataset import DatasetCache, Warehouse, fetch_to_staging
from .errors import (
    A4LError,
    LockHeldError,
    ManifestError,
    PayloadError,
    PayloadParseError,
)
from .orchestrator import payload_index, run_cycle, watch
from .payload import parse_payload, validate_payload
from .runner import execute_payload, write_result

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PARTIAL = 4
EXIT_LOCK = 5


def _emit(args, human: str, machine: dict) -> None:
    if args.json:
        print(json.dumps(machine, indent=2))
    else:
        print(human)


def _load_payload(args, path):
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        _emit(args, f"error: {exc}", {"error": str(exc)})
        return None, EXIT_IO
    try:
        return parse_payload(raw), EXIT_OK
    except PayloadParseError as exc:
        _emit(args, f"parse error: {exc}", {"error": str(exc)})
        return None, EXIT_PARSE
    except PayloadError as exc:
        diags = [d.render() for d in exc.diagnostics]
        _emit(
            args,
            "parse error:\n" + "\n".join(diags),
            {"error": "invalid payload", "diagnostics": diags},
        )
        return None, EXIT_PARSE


def _validate(args, payload, warehouse, cache):
    """Validate ``payload``; the report, or None once an I/O error is shown.

    The catalog parses a dataset only when the payload references it, so
    a broken file surfaces here as DatasetError or OSError.
    """
    try:
        return validate_payload(payload, catalog=warehouse.column_catalog(cache))
    except (A4LError, OSError) as exc:
        _emit(args, f"error: {exc}", {"error": str(exc)})
        return None


def cmd_validate(args) -> int:
    payload, code = _load_payload(args, args.payload)
    if payload is None:
        return code
    report = _validate(args, payload, Warehouse(args.root), DatasetCache())
    if report is None:
        return EXIT_IO
    if report.ok:
        _emit(args, "ok", {"ok": True, "diagnostics": []})
        return EXIT_OK
    diags = [d.render() for d in report.diagnostics]
    _emit(args, "\n".join(diags), {"ok": False, "diagnostics": diags})
    return EXIT_VALIDATION


def cmd_run(args) -> int:
    payload, code = _load_payload(args, args.payload)
    if payload is None:
        return code
    warehouse = Warehouse(args.root)
    cache = DatasetCache()
    report = _validate(args, payload, warehouse, cache)
    if report is None:
        return EXIT_IO
    if not report.ok:
        diags = [d.render() for d in report.diagnostics]
        _emit(args, "\n".join(diags), {"ok": False, "diagnostics": diags})
        return EXIT_VALIDATION

    keys = []
    any_errors = False
    try:
        with fetch_to_staging(sorted(payload.datasets()), warehouse) as staged:
            for doc in execute_payload(payload, staged, cache):
                key = write_result(doc, payload.output, Path(args.root) / "results")
                keys.append("results/" + key.as_path())
                any_errors = any_errors or doc.has_errors()
    except (A4LError, OSError) as exc:
        _emit(args, f"error: {exc}", {"error": str(exc), "results": keys})
        return EXIT_IO
    status = "partial" if any_errors else "ok"
    _emit(args, "\n".join(keys), {"status": status, "results": keys})
    return EXIT_PARTIAL if any_errors else EXIT_OK


def _report_summary(report) -> str:
    lines = [
        f"{len(report.updated)} updated, {len(report.selected_payloads)} payloads run"
    ]
    for update in report.updated:
        suffix = f" (archived {update.archived_to})" if update.archived_to else " (new)"
        lines.append(f"  updated {update.dataset}{suffix}")
    for outcome in report.run_outcomes:
        lines.append(f"  {outcome.payload_file}: {outcome.status}")
        for key in outcome.result_keys:
            lines.append(f"    results/{key}")
    return "\n".join(lines)


def cmd_sync(args) -> int:
    try:
        report = run_cycle(args.root)
    except LockHeldError as exc:
        _emit(args, f"locked: {exc}", {"error": str(exc)})
        return EXIT_LOCK
    except (A4LError, OSError) as exc:
        _emit(args, f"error: {exc}", {"error": str(exc)})
        return EXIT_IO
    _emit(args, _report_summary(report), report.to_dict())
    return EXIT_OK if report.all_ok() else EXIT_PARTIAL


def cmd_watch(args) -> int:
    try:
        for report in watch(args.root, args.interval):
            _emit(args, _report_summary(report), report.to_dict())
    except LockHeldError as exc:
        _emit(args, f"locked: {exc}", {"error": str(exc)})
        return EXIT_LOCK
    except (A4LError, OSError) as exc:
        _emit(args, f"error: {exc}", {"error": str(exc)})
        return EXIT_IO
    except KeyboardInterrupt:
        _emit(args, "watch interrupted", {"status": "interrupted"})
    return EXIT_OK


def cmd_list(args) -> int:
    warehouse = Warehouse(args.root)
    try:
        manifest = warehouse.manifest()
    except ManifestError as exc:
        _emit(args, f"error: {exc}", {"error": str(exc)})
        return EXIT_IO
    index, broken = payload_index(Path(args.root) / "payloads")

    lines = []
    for name in sorted(manifest):
        entry = manifest[name]
        lines.append(f"{name} sha256={entry['sha256']} bytes={entry['bytes']}")
    for payload_file in sorted(index):
        lines.append(f"{payload_file} -> {', '.join(index[payload_file])}")
    for name in broken:
        lines.append(f"{name} -> (unparseable)")
    _emit(
        args,
        "\n".join(lines),
        {"datasets": manifest, "payloads": index, "unparseable": broken},
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="a4l", description="Configuration-driven analytics pipeline"
    )
    parser.add_argument(
        "--root",
        default=os.environ.get("A4L_ROOT", "."),
        help="pipeline root directory (default: $A4L_ROOT or '.')",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a payload against the warehouse")
    p.add_argument("payload")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute one payload and write its results")
    p.add_argument("payload")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sync", help="run one scan/sync/select/run cycle")
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("watch", help="run sync cycles on an interval")
    p.add_argument(
        "--interval",
        type=float,
        default=86400.0,
        help="seconds between cycles (default 86400)",
    )
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("list", help="list datasets and the payload dependency index")
    p.set_defaults(func=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "watch" and args.interval < 1.0:
        args.interval = 1.0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
