"""Mutation check: each listed one-line defect must make its tests fail.

Run as ``python3 tests/mutants.py`` (standard library only; its name keeps
pytest from collecting it).  The checkout is copied to a temporary directory,
and the copy's unmutated tests must pass first.  Each mutant then replaces one
exact string in one file of the copy, runs ``pytest -x -q`` on its test files
and puts the file back.  ``old`` must occur exactly once, so a refactor that
moves a target fails here and the list is updated.  A mutant is killed when
pytest reports a failing test (exit 1).  Exits 0 when every mutant is killed,
1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI = "src/nourishing/cli.py"
FAMILIES = "src/nourishing/families.py"
GRAPHCORE = "src/nourishing/graphcore.py"
IASI = "src/nourishing/iasi.py"
NOURISH = "src/nourishing/nourish.py"
SETALG = "src/nourishing/setalg.py"

# (name, file, old, new, test files)
MUTANTS = [
    ("search prunes one colour early", GRAPHCORE,
     "        if colours <= spare:\n", "        if colours <= spare + 1:\n", ["tests/test_graphcore.py"]),
    ("power_cliques takes r = widest - 1 as complete", GRAPHCORE,
     "elif r >= widest:", "elif r >= widest - 1:", ["tests/test_nourish.py"]),
    ("pivot ties go to the highest vertex", GRAPHCORE,
     "if k > most:", "if k >= most:", ["tests/test_graphcore.py"]),
    ("BFS stops at distance 2", GRAPHCORE,
     "if dist[w] == INF:", "if dist[w] == INF and dist[u] < 2:", ["tests/test_graphcore.py"]),
    ("diameter ignores a BFS that misses a vertex", GRAPHCORE,
     "if not all(seen):", "if False:", ["tests/test_graphcore.py"]),
    ("Graph takes u = n as a vertex", GRAPHCORE,
     "0 <= u < n and", "0 <= u <= n and", ["tests/test_graphcore.py", "tests/test_cli.py"]),
    ("kappa --mode both drops the witness", CLI,
     'keys = ("formula", "oracle", "witness", "status")', 'keys = ("formula", "oracle", "status")',
     ["tests/test_cli.py"]),
    ("verify loosens its strong check", IASI,
     "if len(lab) != full)", "if len(lab) < full - 1)", ["tests/test_iasi.py"]),
    ("verify drops edge collisions", IASI,
     '*_collisions("edge-collision", edge_labels.items()),', '*_collisions("edge-collision", ()),',
     ["tests/test_iasi.py"]),
    ("Sidon modulus p + 1", IASI,
     "k * k % p for", "k * k % (p + 1) for", ["tests/test_iasi.py"]),
    ("offset unit 1 + max_base", IASI,
     "offset_unit = 1 + 2 * max_base", "offset_unit = 1 + max_base", ["tests/test_iasi.py"]),
    ("greedy colouring in index order, not by degree", IASI,
     "key=lambda v: (-g.degree(v), v)", "key=lambda v: v", ["tests/test_cli.py"]),
    ("family check lets a stray parameter through", FAMILIES,
     'stray = [f"takes no {spell(k)}" for k in given if k not in wanted]', "stray = []",
     ["tests/test_families.py", "tests/test_cli.py"]),
    ("cycle formula r <= n // 2", FAMILIES,
     "r + 1 if r < n // 2 else n", "r + 1 if r <= n // 2 else n", ["tests/test_nourish.py"]),
    ("helm formula n + 3 at r = 3", FAMILIES,
     "3: n + 4}", "3: n + 3}", ["tests/test_nourish.py"]),
    ("split counts a repeated neighbour twice", FAMILIES,
     "for u in set(nbrs):", "for u in nbrs:", ["tests/test_nourish.py"]),
    ("record agrees when formula >= oracle", NOURISH,
     '"agree" if self.formula == self.oracle', '"agree" if self.formula >= self.oracle',
     ["tests/test_nourish.py"]),
    ("CSV witness joined by commas", NOURISH,
     '" ".join(map(str, self.witness))', '",".join(map(str, self.witness))', ["tests/test_nourish.py"]),
    ("default exponents stop at the diameter", NOURISH,
     "range(1, int(diameter(g)) + 2)", "range(1, int(diameter(g)) + 1)", ["tests/test_nourish.py"]),
    ("chain singletons all {0}", SETALG,
     "IntSet([i]) for i in range(k)", "IntSet([0]) for i in range(k)", ["tests/test_setalg.py"]),
]


def _run(copy: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=copy, env=env, capture_output=True, text=True)


def _pytest(copy: Path, tests: list[str]) -> int:
    options = ("-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")  # the same examples each run
    return _run(copy, "-m", "pytest", *options, *tests).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
        shutil.copytree(ROOT, copy, ignore=ignore)
        imported = _run(copy, "-c", "import nourishing; print(nourishing.__file__)").stdout
        if not imported.startswith(str(copy)):
            print(f"nourishing imports from {imported.strip()!r}, not from the copy")
            return 1
        if _pytest(copy, sorted({test for *_, tests in MUTANTS for test in tests})) != 0:
            print("the unmutated copy fails its tests")
            return 1
        survivors = 0
        for name, file, old, new, tests in MUTANTS:
            path = copy / file
            source = path.read_text()
            if source.count(old) != 1:
                print(f"MISSING   {name}: {old!r} occurs {source.count(old)} times in {file}")
                survivors += 1
                continue
            path.write_text(source.replace(old, new))
            start = time.perf_counter()
            code = _pytest(copy, tests)
            path.write_text(source)
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{verdict:<9} {name} ({time.perf_counter() - start:.1f} s)", flush=True)
            survivors += code != 1
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
