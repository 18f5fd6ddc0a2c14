"""What importing the CLI loads: each `a4l` command is a new process, so
a module the package imports but a command never uses costs every
command its import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import a4l_analytics

# prints the modules that importing the CLI adds to a fresh interpreter's
_PROBE = """
import json, sys
before = set(sys.modules)
import a4l_analytics.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.fixture(scope="module")
def cli_imports():
    """The modules that ``import a4l_analytics.cli`` loads, in a
    subprocess that imports this package's source."""
    src = str(Path(a4l_analytics.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, check=True
    )
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("module", ["uuid", "difflib", "statistics", "decimal", "fractions"])
def test_cli_import_does_not_load(cli_imports, module):
    assert "a4l_analytics.cli" in cli_imports
    assert module not in cli_imports
