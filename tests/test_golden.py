"""The golden corpus: a cold sync of the fixture domains, and the idle
sync after it, write exactly the committed texts of
``tests/data/golden/``, apart from the values that differ on every run
(see ``benchmarks/golden.py``)."""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

COMMITTED = golden.committed()


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden.corpus(tmp_path_factory.mktemp("golden") / "root")


def test_same_files(fresh):
    assert sorted(fresh) == sorted(COMMITTED)


@pytest.mark.parametrize("rel", sorted(COMMITTED))
def test_same_text(fresh, rel):
    # a failure shows the diff of the two texts
    assert fresh.get(rel) == COMMITTED[rel]
