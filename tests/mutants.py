"""Apply each mutant of ``tests/mutants.json`` to a copy of the repository and require its tests to fail in time.

Run from anywhere, outside tier-1: ``python tests/mutants.py``, which takes every row. A row gives a ``file``, an
``old`` text found there exactly once, the ``new`` text that replaces it, the ``tests`` (pytest ids) that must fail and
the ``seconds`` within which their run must end. The unmutated copy must pass the same tests first, so a failure is the
mutant's. pytest runs with the ``mutants`` Hypothesis profile of ``tests/conftest.py``: the same examples on every run,
and no shrinking. Copies go to a temporary directory (``TMPDIR``); the exit status is the number of rows that did not
hold.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("mutants.json")


def copy_tree(dest: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", dest)
    return dest


def run_tests(tree: Path, tests: list, seconds: float) -> tuple:
    """``(failed ids, seconds taken)`` of a pytest run of ``tests`` in ``tree``; ``None`` for ids past ``seconds``."""
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "--hypothesis-profile=mutants",
            *tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=seconds)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start
    lines = done.stdout.splitlines()
    failed = [t for t in tests if f"FAILED {t}" in lines or any(line.startswith(f"FAILED {t} - ") for line in lines)]
    if done.returncode not in (0, 1):  # collection errors, bad ids: nothing was shown
        sys.exit(f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return failed, time.perf_counter() - start


def main() -> int:
    rows = json.loads(TABLE.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        clean = copy_tree(Path(tmp) / "clean")
        tests = sorted({t for row in rows for t in row["tests"]})
        failed, taken = run_tests(clean, tests, 900)
        if failed is None or failed:
            sys.exit(f"the unmutated tree fails {failed if failed else 'to finish'}: no mutant can be judged")
        print(f"unmutated: {len(tests)} tests pass in {taken:.1f} s")
        bad = 0
        for i, row in enumerate(rows):
            tree = copy_tree(Path(tmp) / f"mutant{i}")
            path = tree / row["file"]
            text = path.read_text()
            if text.count(row["old"]) != 1:
                print(f"{'STALE':8} {row['name']}: the old text occurs {text.count(row['old'])} times in {row['file']}")
                bad += 1
                continue
            path.write_text(text.replace(row["old"], row["new"]))
            failed, taken = run_tests(tree, row["tests"], row["seconds"])
            missed = row["tests"] if failed is None else [t for t in row["tests"] if t not in failed]
            verdict = "KILLED" if not missed else "TIMEOUT" if failed is None else "SURVIVED"
            print(f"{verdict:8} {row['name']}: {taken:.1f} s of {row['seconds']} s")
            for t in missed:
                print(f"         not failed: {t}")
            bad += bool(missed)
            shutil.rmtree(tree)
    return bad


if __name__ == "__main__":
    sys.exit(main())
