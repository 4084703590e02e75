"""Mutation run: does each weakened certifying comparison fail a test?

    python3 mutation/run_mutants.py

Run from the root of a source checkout.  Each mutant of ``mutants.json``
replaces one text, which must occur exactly once in its file under
``src/``, in a temporary copy of the checkout; the tier-1 tests then run
there with ``-x``.  A mutant is *killed* when a test fails and *survives*
when all pass.  One line is printed per mutant, and the exit status is 0
only when every mutant ends as its ``status`` says; a run that pytest
could not finish (a collection error, an interrupt) counts as a mismatch.
Only the standard library is used here; the tests need numpy, pytest and
hypothesis.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MUTANTS = HERE / "mutants.json"
# what the copy leaves out: history, caches and benchmark records
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".perfbench")
# the list's own tier-1 test reads the source for each mutant's text, so on
# a mutated copy it would fail for every mutant and tell nothing
LIST_TEST = "tests/test_mutation_list.py"
# pytest's exit codes: all passed, some test failed
PASSED, FAILED = 0, 1


def load() -> list[dict]:
    return json.loads(MUTANTS.read_text())


def mutate(text: str, mutant: dict) -> str:
    """text with the mutant applied; a find that is not there exactly once is an error."""
    count = text.count(mutant["find"])
    if count != 1:
        raise ValueError(f"mutant {mutant['id']}: its text occurs {count} times in {mutant['file']}")
    return text.replace(mutant["find"], mutant["replace"])


def run_one(mutant: dict) -> tuple[str, float]:
    """('killed' | 'survives' | 'error (exit N)', seconds) of the tests on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        target = copy / "src" / mutant["file"]
        target.write_text(mutate(target.read_text(), mutant))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", f"--ignore={LIST_TEST}"]
        start = time.perf_counter()
        code = subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        seconds = time.perf_counter() - start
    outcome = {PASSED: "survives", FAILED: "killed"}.get(code, f"error (exit {code})")
    return outcome, seconds


def main() -> int:
    mismatches = 0
    for mutant in load():
        outcome, seconds = run_one(mutant)
        ok = outcome == mutant["status"]
        mismatches += not ok
        line = f"mutant={mutant['id']} expected={mutant['status']} outcome={outcome} seconds={seconds:.1f} ok={ok}"
        print(line, flush=True)
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
