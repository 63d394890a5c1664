"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion is exact (integer arithmetic throughout); the stated time
budgets are generous on any modern machine, so no tolerance knobs exist.
"""

from __future__ import annotations

import csv
import io
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from conftest import brute_force_clique_number, smallest_specs
from nourishing.families import FAMILY_NAMES, generate
from nourishing.graphcore import Graph, clique_number, diameter, is_complete, power
from nourishing.iasi import Labeling, construct_strong_iasi, verify_strong_iasi
from nourishing.nourish import (
    acceptance_grid,
    audit_grid,
    reconcile,
    records_to_csv,
)
from nourishing.setalg import IntSet, difference_set, sumset

DATA = Path(__file__).parent / "data"


def report(criterion: str, ok: bool, elapsed: float) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion} ({elapsed:.2f}s)")
    assert ok, criterion


def strong_pair_both_ways(a: IntSet, b: IntSet) -> tuple[bool, bool]:
    multiplicative = len(sumset(a, b)) == len(a) * len(b)
    disjoint = not (difference_set(a) & difference_set(b))
    return multiplicative, disjoint


def test_criterion_1_sumset_difference_equivalence():
    """|A+B| = |A|*|B| iff the difference sets are disjoint, with no exception."""
    start = time.monotonic()
    ok = True

    universe = list(range(9))
    sets = [
        IntSet(c)
        for size in (1, 2, 3, 4)
        for c in combinations(universe, size)
    ]
    for a in sets:
        for b in sets:
            m, d = strong_pair_both_ways(a, b)
            if m != d:
                ok = False

    rng = random.Random(20260826)
    for _ in range(10_000):
        a = IntSet(rng.sample(range(51), rng.randint(1, 6)))
        b = IntSet(rng.sample(range(51), rng.randint(1, 6)))
        m, d = strong_pair_both_ways(a, b)
        if m != d:
            ok = False

    elapsed = time.monotonic() - start
    report("criterion 1: sumset/difference-set equivalence", ok and elapsed < 10, elapsed)


def test_criterion_2_constructor_soundness():
    """Constructed labelings verify strong on every powered family graph."""
    start = time.monotonic()
    ok = True
    for family in FAMILY_NAMES:
        for spec in smallest_specs(family):
            g0 = generate(spec)
            for rec in reconcile([(spec, range(1, int(diameter(g0)) + 2))]):
                g = power(g0, rec.r)
                for s in (1, 2, 3):
                    labeling = construct_strong_iasi(g, s)
                    if not verify_strong_iasi(g, labeling).is_strong:
                        ok = False
                    if labeling.chain_length < rec.oracle:
                        ok = False
    elapsed = time.monotonic() - start
    report("criterion 2: constructor soundness", ok and elapsed < 60, elapsed)


def test_criterion_3_oracle_validity():
    """Clique search matches exhaustive enumeration; diameter power is complete."""
    start = time.monotonic()
    ok = True
    specs = [spec for family in FAMILY_NAMES for spec in smallest_specs(family)]
    for spec in specs:
        g = generate(spec)
        if g.n <= 10 and clique_number(g) != brute_force_clique_number(g):
            ok = False
        d = diameter(g)
        if d >= 1 and not is_complete(power(g, int(d))):
            ok = False
    elapsed = time.monotonic() - start
    report("criterion 3: oracle validity", ok and elapsed < 30, elapsed)


def test_criterion_4_golden_reconciliation():
    """Reconciliation over the believed-exact families equals the golden table
    byte-for-byte; any non-agree row must appear in the discrepancy ledger."""
    start = time.monotonic()
    output = records_to_csv(reconcile(acceptance_grid()))
    golden = (DATA / "golden_reconcile.csv").read_text()
    ok = output == golden

    ledger_rows = list(csv.reader(io.StringIO((DATA / "known_discrepancies.csv").read_text())))[1:]
    ledger_keys = {tuple(row[:3]) for row in ledger_rows}
    for row in list(csv.reader(io.StringIO(output)))[1:]:
        if row[5] != "agree" and tuple(row[:3]) not in ledger_keys:
            ok = False
    elapsed = time.monotonic() - start
    report("criterion 4: golden-table agreement", ok and elapsed < 120, elapsed)


def test_criterion_5_known_audit_cells():
    """Wheel(3) at r=1 and helms cubed must reproduce the recorded divergences."""
    start = time.monotonic()
    output = records_to_csv(reconcile(audit_grid()))
    golden = (DATA / "golden_audit.csv").read_text()
    ok = output == golden
    statuses = [row[5] for row in list(csv.reader(io.StringIO(output)))[1:]]
    ok = ok and all(s == "disagree" for s in statuses)
    elapsed = time.monotonic() - start
    report("criterion 5: known-audit divergences reported", ok, elapsed)


def restrict(g: Graph, labeling: Labeling, verts: list[int]) -> tuple[Graph, Labeling]:
    """The subgraph induced by ``verts`` and its labels, both renumbered in ``verts`` order."""
    index = {v: i for i, v in enumerate(verts)}
    sub = Graph(len(verts), [(index[u], index[v]) for u, v in g.edges if u in index and v in index])
    return sub, Labeling(tuple(labeling.labels[v] for v in verts), labeling.label_size)


def test_criterion_6_hereditariness():
    """Restrictions of strong labelings to induced subgraphs stay strong."""
    start = time.monotonic()
    rng = random.Random(1311)
    pool = [spec for family in FAMILY_NAMES for spec in smallest_specs(family)]
    ok = True
    for _ in range(500):
        spec = rng.choice(pool)
        g = power(generate(spec), rng.randint(1, 3))
        labeling = construct_strong_iasi(g, rng.randint(1, 3))
        verts = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
        if not verify_strong_iasi(*restrict(g, labeling, verts)).is_strong:
            ok = False
    elapsed = time.monotonic() - start
    report("criterion 6: hereditariness", ok and elapsed < 30, elapsed)


def test_criterion_7_determinism(capsys):
    """Two consecutive full-default-grid reconcile runs emit identical bytes."""
    from nourishing.cli import main

    start = time.monotonic()
    assert main(["reconcile", "--grid", "default", "--format", "csv"]) == 0
    first = capsys.readouterr().out
    assert main(["reconcile", "--grid", "default", "--format", "csv"]) == 0
    second = capsys.readouterr().out
    ok = first == second and len(first) > 0
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report("criterion 7: reconcile determinism", ok, elapsed)
