"""The committed mutant list of ``mutation/`` stays applicable to the source.

The full mutation run is ``python3 mutation/run_mutants.py``; it takes minutes, so
it is a CI job of its own.  This test only checks that every mutant still
names one text of the source, so the list cannot rot unnoticed.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "mutation"))

import run_mutants as mutation  # noqa: E402

MUTANTS = mutation.load()


def test_mutant_ids_are_unique_and_each_has_a_known_status():
    assert len({m["id"] for m in MUTANTS}) == len(MUTANTS)
    assert {m["status"] for m in MUTANTS} <= {"killed", "survives"}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_each_mutant_text_occurs_exactly_once_in_src(mutant):
    hits = {}
    for path in sorted(SRC.rglob("*.py")):
        count = path.read_text().count(mutant["find"])
        if count:
            hits[path.relative_to(SRC).as_posix()] = count
    assert hits == {mutant["file"]: 1}
    text = (SRC / mutant["file"]).read_text()
    assert mutation.mutate(text, mutant) != text
