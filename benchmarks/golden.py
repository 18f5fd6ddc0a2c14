#!/usr/bin/env python3
"""The golden corpus: the text of what a cold sync of the fixture domains, and
the idle sync after it, write.

Run from the repository root:

    python3 benchmarks/golden.py            # compare with tests/data/golden/, print any diff
    python3 benchmarks/golden.py --write    # regenerate tests/data/golden/

The four fixture domains of ``tests/conftest.py`` (jw, vera, sami, xyz)
are built in a temporary root and synced twice with ``a4l sync``: a
cold cycle, then an idle one. The corpus holds the text of every result
document, of the cold cycle's ``runs/`` report (as ``runs/report.json``,
since its name is a timestamp), of the idle cycle's line of the day's
idle log (as ``runs/idle.jsonl``) and of ``warehouse/manifest.json``.
Every ``run_id``, ``generated_at``, ``scanned_at`` and manifest
``updated`` value is replaced by one placeholder; everything else must
match byte for byte.
``tests/test_golden.py`` makes the same comparison in Tier-1. A change
that alters documents on purpose regenerates the corpus in the same
commit and says which documents changed.
"""

import argparse
import contextlib
import difflib
import io
import re
import sys
import tempfile
from pathlib import Path
from typing import Dict

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "data" / "golden"
for _path in (REPO / "src", REPO / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from a4l_analytics.cli import main as a4l  # noqa: E402
from conftest import DOMAIN_FILES, build_root  # noqa: E402

PLACEHOLDER = "<varies>"
# A string value of these keys differs on every run. The runs/ report's
# "updated" is a list, and a list is kept. A key starts an indented line,
# or follows "{" or "," in compact text, where a quote inside a string
# is escaped.
_VARYING = re.compile(
    r'((?:^\s*|(?<=[{,]))"(?:run_id|generated_at|scanned_at|updated)": ?)"[^"]*"', re.M
)
_SUFFIXES = (".json", ".jsonl")


def normalized(text: str) -> str:
    return _VARYING.sub(rf'\1"{PLACEHOLDER}"', text)


def corpus(root: Path) -> Dict[str, str]:
    """Relative path -> normalized text of what a cold sync of the
    fixture domains in a new ``root``, and the idle sync after it, write."""
    build_root(root, domains=tuple(DOMAIN_FILES))
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            status = a4l(["--root", str(root), "sync"])
        if status != 0:
            raise RuntimeError(f"a4l sync exited {status}")
    (report,) = (root / "runs").glob("*.json")
    (idle,) = (root / "runs").glob("idle-*.jsonl")
    files = {
        "runs/report.json": report,
        "runs/idle.jsonl": idle,
        "warehouse/manifest.json": root / "warehouse/manifest.json",
    }
    for path in (root / "results").rglob("*.json"):
        files[path.relative_to(root).as_posix()] = path
    return {rel: normalized(files[rel].read_text(encoding="utf-8")) for rel in sorted(files)}


def committed() -> Dict[str, str]:
    """Relative path -> text of each file of the committed corpus."""
    return {
        path.relative_to(GOLDEN).as_posix(): path.read_text(encoding="utf-8")
        for path in _corpus_files()
    }


def _corpus_files():
    return sorted(path for path in GOLDEN.rglob("*") if path.suffix in _SUFFIXES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="regenerate the committed corpus")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = corpus(Path(tmp) / "root")
    if args.write:
        for path in _corpus_files():
            path.unlink()
        for rel, text in fresh.items():
            target = GOLDEN / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text, encoding="utf-8")
        print(f"wrote {len(fresh)} files to {GOLDEN.relative_to(REPO)}")
        return 0
    old = committed()
    differ = sorted(rel for rel in fresh.keys() | old.keys() if fresh.get(rel) != old.get(rel))
    for rel in differ:
        sys.stdout.writelines(
            difflib.unified_diff(
                old.get(rel, "").splitlines(keepends=True),
                fresh.get(rel, "").splitlines(keepends=True),
                f"committed/{rel}",
                f"fresh/{rel}",
            )
        )
    print(f"{len(differ)} of {len(fresh.keys() | old.keys())} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
