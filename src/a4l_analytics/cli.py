"""Command-line entry point.

Exit codes are a stable contract:
    0 ok, 1 I/O error, 2 payload parse error, 3 validation failure,
    4 partial success, 5 lock contention, 6 internal error.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .dataset import DatasetCache, Warehouse, fetch_to_staging  # noqa: F401
from .errors import (
    A4LError,
    LockHeldError,
    ManifestError,
    PayloadError,
    PayloadParseError,
)
from .orchestrator import (
    CycleLock,
    RegistryRecord,
    internal_error,
    payload_index,
    run_cycle,
    run_payload_file,
    watch,
)
from .payload import parse_payload, validate_payload
from .runner import execute_payload, write_result  # noqa: F401

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_PARTIAL = 4
EXIT_LOCK = 5
EXIT_INTERNAL = 6


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


def cmd_validate(args) -> int:
    payload, code = _load_payload(args, args.payload)
    if payload is None:
        return code
    # The catalog parses a dataset only when the payload references it,
    # so a broken file surfaces here as DatasetError or OSError. Validation
    # computes no result entry. It holds no lock, so a column file it
    # writes after a parse may replace one that a concurrent cycle or run
    # wrote with entries: those entries are computed again later, and no
    # value served is ever wrong.
    warehouse = Warehouse(args.root)
    try:
        with DatasetCache() as cache:
            catalog = warehouse.column_catalog(cache, warehouse.manifest())
            report = validate_payload(payload, catalog=catalog)
    except (A4LError, OSError) as exc:
        _emit(args, f"error: {exc}", {"error": str(exc)})
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
    # under the cycle lock, so no sync replaces a version this run read
    # before its documents are written, and the cache writes its column
    # files before the lock is released; a root where the lock file cannot
    # be opened, or whose manifest cannot be read, is an I/O error
    warehouse = Warehouse(args.root)
    try:
        with CycleLock(Path(args.root) / ".a4l.lock"), DatasetCache() as cache:
            outcome = run_payload_file(
                Path(args.payload).name, payload, warehouse, cache, warehouse.manifest()
            )
    except LockHeldError as exc:
        _emit(args, f"locked: {exc}", {"error": str(exc)})
        return EXIT_LOCK
    except (ManifestError, OSError) as exc:
        _emit(args, f"error: {exc}", {"error": str(exc)})
        return EXIT_IO
    except Exception as exc:
        detail = internal_error(exc)
        _emit(args, f"internal error: {detail}", {"error": detail})
        return EXIT_INTERNAL
    keys = ["results/" + key for key in outcome.result_keys]
    if outcome.status == "validation_failed":
        # one diagnostic per line: every payload-supplied value is repr'd
        diags = outcome.detail.split("\n")
        _emit(args, outcome.detail, {"ok": False, "diagnostics": diags})
        return EXIT_VALIDATION
    if outcome.status == "error":
        machine = {"error": outcome.detail}
        if keys:
            machine["results"] = keys
        _emit(args, f"error: {outcome.detail}", machine)
        return EXIT_IO
    _emit(args, "\n".join(keys), {"status": outcome.status, "results": keys})
    return EXIT_PARTIAL if outcome.status == "partial" else EXIT_OK


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
    _emit(args, _report_summary(report), asdict(report))
    return EXIT_OK if report.all_ok() else EXIT_PARTIAL


def cmd_watch(args) -> int:
    try:
        for report in watch(args.root, args.interval):
            _emit(args, _report_summary(report), asdict(report))
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
    # reads the registry record but never writes it
    record = RegistryRecord(warehouse.reconcile_path)
    index, _, broken = payload_index(Path(args.root) / "payloads", record)

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
