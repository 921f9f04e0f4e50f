"""Mutation check of the verdict paths: every listed mutant must fail its tests.

Run from the repository root (standard library only; pytest does not collect
this file):

    python tests/mutants.py

Each mutant is one exact-match replacement in one source file; its text must
occur there exactly once.  For each, ``src/``, ``tests/`` and
``pyproject.toml`` are copied to a temporary directory, the replacement is
applied, and pytest runs the mutant's test files there.  The mutant is killed
when pytest reports a failing test (exit code 1); a mutant that passes, or
whose run stops any other way (a collection error, say), fails the check.
Before any mutant runs, the unmutated copy must pass the same files, so a
kill is the mutant's doing.  An equivalent mutant, which no input can tell
apart, stays in the list with its reason and is skipped.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None


HOLISM = "src/mereo/holism.py"
SEARCH = "src/mereo/search.py"

MUTANTS = (
    Mutant("admits_or_and_swapped", HOLISM,
           "return p_nontrivial | q_nontrivial\n        return p_nontrivial & q_nontrivial",
           "return p_nontrivial & q_nontrivial\n        return p_nontrivial | q_nontrivial",
           ("tests/test_holism.py",)),
    Mutant("cooccurring_bound_without_sqrt2", HOLISM,
           "float(np.sqrt(2.0) * frob(s[r:]))",
           "float(frob(s[r:]))",
           ("tests/test_holism.py",)),
    Mutant("rank_zero_accepted", HOLISM,
           "if np.any(rank < 1):",
           "if np.any(rank < 0):",
           ("tests/test_holism.py",)),
    Mutant("exclude_floor_lowered", SEARCH,
           "EXCLUDE_FLOOR = 0.05",
           "EXCLUDE_FLOOR = 0.04",
           ("tests/test_search.py",)),
    Mutant("exclusive_column_cut_at_zero", HOLISM,
           "np.linalg.norm(amp.matrix[:, j]) > tols.tol_rank), None)",
           "np.linalg.norm(amp.matrix[:, j]) > 0), None)",
           ("tests/test_holism.py",)),
    Mutant("schmidt_rank_counts_tie", HOLISM,
           "np.sum(np.asarray(s) > tols.tol_rank, axis=-1)",
           "np.sum(np.asarray(s) >= tols.tol_rank, axis=-1)",
           ("tests/test_holism.py",)),
    Mutant("near_band_open_lower_edge", SEARCH,
           "(smin >= tols.tol_rank / NEAR_RANK_TOL_FACTOR)",
           "(smin > tols.tol_rank / NEAR_RANK_TOL_FACTOR)",
           ("tests/test_search.py",)),
    Mutant("entropy_weight_cut_raised", HOLISM,
           "ENTROPY_WEIGHT_CUT = 1e-15",
           "ENTROPY_WEIGHT_CUT = 1e-12",
           ("tests/test_holism.py",)),
    Mutant("lattice_redraw_open_edge", HOLISM,
           "np.abs(diag) <= LATTICE_REDRAW_NORM",
           "np.abs(diag) < LATTICE_REDRAW_NORM",
           ("tests/test_holism.py",),
           equivalent="a QR diagonal entry exactly at LATTICE_REDRAW_NORM has measure zero "
                      "for Gaussian draws, so no input tells the two edges apart"),
)


def copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_pytest(tree: Path, tests) -> int:
    # PYTHONPATH names the copy, so an inherited one cannot import the unmutated package
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def mutated(mutant: Mutant, tree: Path) -> str:
    """The text of ``mutant.path`` under ``tree`` with the one replacement made."""
    text = (tree / mutant.path).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: the text to replace occurs {count} times in {mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def main() -> int:
    live = [m for m in MUTANTS if m.equivalent is None]
    for mutant in MUTANTS:  # every replacement must match, equivalent mutants included
        mutated(mutant, ROOT)
    with tempfile.TemporaryDirectory(prefix="mereo-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        files = sorted({f for m in live for f in m.tests})
        if files and run_pytest(base, files) != 0:
            print(f"the unmutated tree fails {' '.join(files)}; no kill would mean anything")
            return 1
        survivors = []
        for mutant in MUTANTS:
            if mutant.equivalent is not None:
                print(f"skipped   {mutant.name}: equivalent, {mutant.equivalent}")
                continue
            tree = Path(tmp) / mutant.name
            copy_tree(tree)
            (tree / mutant.path).write_text(mutated(mutant, tree))
            start = time.perf_counter()
            code = run_pytest(tree, mutant.tests)
            took = time.perf_counter() - start
            if code == 1:
                print(f"killed    {mutant.name} ({took:.1f} s)")
            else:
                survivors.append(mutant.name)
                print(f"SURVIVED  {mutant.name}: pytest exit {code} on {' '.join(mutant.tests)}")
            shutil.rmtree(tree)
    print(f"{len(live) - len(survivors)} of {len(live)} mutants killed, "
          f"{len(MUTANTS) - len(live)} equivalent skipped")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
