"""Formula transcription, the clique oracle, and reconciliation."""

from __future__ import annotations

import functools
import time
from collections import Counter
from itertools import combinations, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bfs_distances, bfs_power_edges, brute_force_clique_number, smallest_specs
from nourishing import graphcore, nourish
from nourishing.families import FAMILY_NAMES, FamilySpec, generate
from nourishing.graphcore import Graph, diameter, power
from nourishing.nourish import (
    CSV_HEADER,
    NourishingRecord,
    default_grid,
    family_runs,
    formula_kappa,
    reconcile,
    records_to_csv,
    records_to_json,
    split_probe_specs,
)


def spec_of(family: str, **params) -> FamilySpec:
    return FamilySpec.make(family, **params)


def record_of(spec: FamilySpec, r: int) -> NourishingRecord:
    (rec,) = reconcile([(spec, (r,))])
    return rec


class TestFormulaFixtures:
    """Hand-read piecewise values, independent of the oracle."""

    @pytest.mark.parametrize(
        "family,params,r,expected",
        [
            ("cycle", {"n": 6}, 2, 3),
            ("cycle", {"n": 6}, 3, 6),
            ("cycle", {"n": 9}, 1, 2),
            ("path", {"m": 5}, 9, 6),
            ("path", {"m": 5}, 2, 3),
            ("complete", {"n": 7}, 4, 7),
            ("kmn", {"m": 2, "n": 3}, 1, 2),
            ("kmn", {"m": 2, "n": 3}, 2, 5),
            ("wheel", {"n": 6}, 1, 3),
            ("wheel", {"n": 6}, 2, 7),
            ("helm", {"n": 4}, 1, 3),
            ("helm", {"n": 4}, 2, 5),
            ("helm", {"n": 4}, 3, 8),
            ("helm", {"n": 4}, 4, 9),
            ("helm", {"n": 4}, 7, 9),
            ("friendship", {"n": 2}, 1, 3),
            ("friendship", {"n": 2}, 2, 5),
            ("fan", {"m": 3, "n": 4}, 1, 3),
            ("fan", {"m": 3, "n": 4}, 2, 7),
            ("ksplit", {"c": 3, "s": 4}, 1, 4),
            ("ksplit", {"c": 3, "s": 4}, 2, 7),
            ("sun", {"n": 8}, 2, 5),
            ("sun", {"n": 8}, 4, 15),  # r = n/2, n even
            ("sun", {"n": 7}, 3, 12),  # r = floor(n/2), n odd
            ("sun", {"n": 8}, 5, 16),
            ("csun", {"n": 5}, 1, 5),
            ("csun", {"n": 5}, 2, 6),
            ("csun", {"n": 5}, 3, 10),
            ("sunlet", {"n": 5}, 2, 4),
            ("sunlet", {"n": 5}, 3, 8),   # r = floor(n/2)+1, n odd
            ("sunlet", {"n": 6}, 4, 11),  # r = floor(n/2)+1, n even
            ("sunlet", {"n": 6}, 5, 12),
        ],
    )
    def test_piecewise_values(self, family, params, r, expected):
        assert formula_kappa(spec_of(family, **params), r) == expected

    def test_split_clauses(self):
        capped = spec_of("split", c=3, adj=[(0,), (1,)])
        assert formula_kappa(capped, 1) == 3  # no dominating independent vertex
        dominating = spec_of("split", c=3, adj=[(0, 1, 2), (0,)])
        assert formula_kappa(dominating, 1) == 4
        shared = spec_of("split", c=3, adj=[(0,), (0,), (1,)])
        assert formula_kappa(shared, 2) == 5  # c + l with l = 2
        assert formula_kappa(shared, 3) == 6  # c + s
        assert formula_kappa(shared, 7) == 6
        repeated = spec_of("split", c=2, adj=[(0, 0), (1,)])
        assert formula_kappa(repeated, 2) == 3  # a repeated neighbour is one shared vertex

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            formula_kappa(spec_of("cycle", n=5), 0)


class TestOracle:
    def test_cycle_squared(self):
        spec = spec_of("cycle", n=6)
        rec = record_of(spec, 2)
        assert rec.oracle == 3
        g = power(generate(spec), 2)
        assert all(v in g.neighbors(u) for u, v in combinations(rec.witness, 2))

    def test_wheel3_is_k4(self):
        assert record_of(spec_of("wheel", n=3), 1).oracle == 4
        assert formula_kappa(spec_of("wheel", n=3), 1) == 3

    def test_helm4_cubed(self):
        assert record_of(spec_of("helm", n=4), 3).oracle == 7
        assert formula_kappa(spec_of("helm", n=4), 3) == 8

    @pytest.mark.parametrize(
        "family,params",
        [("path", {"m": 4}), ("cycle", {"n": 7}), ("kmn", {"m": 2, "n": 3})],
    )
    def test_triangle_free_base(self, family, params):
        assert record_of(spec_of(family, **params), 1).oracle == 2

    @pytest.mark.parametrize(
        "family,params",
        [("helm", {"n": 5}), ("sun", {"n": 6}), ("fan", {"m": 2, "n": 4})],
    )
    def test_power_at_diameter_is_full(self, family, params):
        spec = spec_of(family, **params)
        g = generate(spec)
        d = int(diameter(g))
        assert record_of(spec, d).oracle == g.n

    def test_monotone_in_r(self):
        records = reconcile([(spec_of("sunlet", n=7), range(1, 7))])
        values = [rec.oracle for rec in records]
        assert values == sorted(values)


class TestReconcile:
    def test_cycle_grid_all_agree(self):
        records = reconcile(family_runs("cycle", {"n": range(3, 9)}, range(1, 5)))
        assert all(rec.status == "agree" for rec in records)

    def test_wheel3_disagrees(self):
        (rec,) = reconcile([(spec_of("wheel", n=3), (1,))])
        assert rec.status == "disagree"
        assert (rec.formula, rec.oracle) == (3, 4)

    def test_path4_squared_agrees(self):
        (rec,) = reconcile([(spec_of("path", m=4), (2,))])
        assert rec.status == "agree"
        assert rec.oracle == 3

    def test_order_preserved(self):
        runs = family_runs("helm", {"n": range(3, 6)}, range(1, 4))
        assert [spec for spec, _ in runs] == [spec_of("helm", n=n) for n in range(3, 6)]
        cells = [(rec.spec, rec.r) for rec in reconcile(runs)]
        assert cells == [(spec, r) for spec, _ in runs for r in (1, 2, 3)]

    def test_record_invariant(self):
        for rec in reconcile([(spec_of("sun", n=4), (1, 2, 3))]):
            assert rec.oracle == len(rec.witness)
            assert (rec.status == "agree") == (rec.formula == rec.oracle)


SMALL_SPECS = [spec for f in FAMILY_NAMES for spec in smallest_specs(f)] + split_probe_specs()


@st.composite
def run_lists(draw) -> list[tuple[FamilySpec, list[int]]]:
    """Runs, each on one spec with repeated and unordered r; specs recur, also in adjacent runs."""
    runs = []
    for spec in draw(st.lists(st.sampled_from(SMALL_SPECS), max_size=8)):
        top = int(diameter(generate(spec))) + 2
        runs.append((spec, draw(st.lists(st.integers(1, top), min_size=1, max_size=5))))
    return runs


@functools.cache
def bfs_oracle(spec: FamilySpec, r: int) -> tuple[int, set[tuple[int, int]], int]:
    """Order, edge set and exhaustive clique number of G^r, built by BFS alone."""
    g = generate(spec)
    edges = bfs_power_edges(g.n, g.edges, r)
    return g.n, edges, brute_force_clique_number(Graph(g.n, edges))


@settings(max_examples=150, deadline=None)
@given(run_lists())
def test_reconcile_matches_cell_by_cell(runs):
    """One record per exponent of each run, in order, each against its own cell's oracles:
    the BFS power, exhaustive search, the formula."""
    records = reconcile(runs)
    assert [(rec.spec, rec.r) for rec in records] == [(spec, r) for spec, rs in runs for r in rs]
    for rec in records:
        n, edges, omega = bfs_oracle(rec.spec, rec.r)
        assert len(set(rec.witness)) == len(rec.witness) and set(rec.witness) <= set(range(n))
        assert all(pair in edges for pair in combinations(sorted(rec.witness), 2))
        assert rec.oracle == omega
        assert rec.formula == formula_kappa(rec.spec, rec.r)


def test_default_grid_against_bfs_power_and_brute_force():
    """Every default-grid witness is a maximal clique of the BFS power; small cells match exhaustive search."""
    small = 0
    for rec in reconcile(default_grid()):
        g = generate(rec.spec)
        edges = bfs_power_edges(g.n, g.edges, rec.r)
        assert len(set(rec.witness)) == len(rec.witness) and set(rec.witness) <= set(range(g.n))
        assert all(pair in edges for pair in combinations(sorted(rec.witness), 2))
        outside = set(range(g.n)) - set(rec.witness)
        assert not any(all((min(u, v), max(u, v)) in edges for u in rec.witness) for v in outside)
        if g.n <= 10:
            small += 1
            assert rec.oracle == brute_force_clique_number(Graph(g.n, edges))
    assert small == 601


def test_cycle_sun_sunlet_at_every_exponent_up_to_n_60():
    """Cycle, sun and sunlet for n = 3..60 at every exponent 1..diameter+1: 3,045 records.

    A witness is a maximal clique of G^r exactly when the closed r-balls of
    its vertices, read off one BFS distance matrix per spec, meet in the
    witness itself.  Every cycle record agrees; the published sun and sunlet
    formulas disagree with the oracle on 58 and 86 records.  Reconciling takes
    about 3 s; the budget is 20 s (without the colour bound, the cycles alone
    ran for more than 10 minutes).
    """
    runs = [run for f in ("cycle", "sun", "sunlet") for run in family_runs(f, {"n": range(3, 61)})]
    start = time.perf_counter()
    records = reconcile(runs)
    elapsed = time.perf_counter() - start
    assert len(records) == 3045
    distances = {spec: bfs_distances(g.n, g.edges) for spec, _ in runs for g in [generate(spec)]}
    for rec in records:
        balls = ({v for v, d in distances[rec.spec][w].items() if d <= rec.r} for w in rec.witness)
        assert len(set(rec.witness)) == len(rec.witness)
        assert set.intersection(*balls) == set(rec.witness), (rec.spec, rec.r)
    disagree = Counter(rec.spec.family for rec in records if rec.status == "disagree")
    assert disagree == {"sun": 58, "sunlet": 86}
    assert elapsed < 20.0, elapsed


def test_runs_of_r1_build_no_distance_matrix(monkeypatch):
    calls = []
    real = graphcore.all_pairs_distance
    monkeypatch.setattr(graphcore, "all_pairs_distance", lambda g: calls.append(g) or real(g))
    runs = [(spec_of("helm", n=5), (1,)), (spec_of("cycle", n=6), (1, 1))]
    assert [rec.oracle for rec in reconcile(runs)] == [3, 2, 2]
    assert calls == []


def test_default_grid_work_is_pinned(monkeypatch):
    """The grid builds no graph and no distance matrix.  Reconcile builds one
    graph per spec and no other, finds each spec's diameter once (by BFS, with
    no distance matrix), builds one matrix per spec with an r >= 2, and runs no
    search for a complete power.  ``max_clique`` answers each r = 1 (28 of
    those graphs are complete, so it searches 358); every other power's 111
    searches run on masks read off the matrix."""
    calls = Counter()
    for module, name in [
        (nourish, "generate"),
        (nourish, "diameter"),
        (graphcore, "all_pairs_distance"),
        (graphcore, "max_clique"),
        (graphcore, "_search"),
    ]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, functools.partial(_counted, calls, name, real))
    build = Graph._from_adjacency  # every Graph is built through it
    monkeypatch.setattr(Graph, "_from_adjacency", functools.partial(_counted, calls, "Graph", build))
    runs = default_grid()
    assert calls == {}
    reconcile(runs)
    assert calls == {
        "generate": 386, "Graph": 386, "diameter": 386, "all_pairs_distance": 385, "max_clique": 386,
        "_search": 469}


def _counted(calls: Counter, name: str, real, *args):
    calls[name] += 1
    return real(*args)


@pytest.mark.parametrize("rs", [[0], [1, 2, 0], [-2]])
def test_nonpositive_r_is_rejected_before_any_graph_is_built(monkeypatch, rs):
    built = []
    monkeypatch.setattr(nourish, "generate", lambda spec: built.append(spec) or generate(spec))
    with pytest.raises(ValueError, match=rf"^power exponent must be >= 1, got {min(rs)}$"):
        reconcile([(spec_of("cycle", n=5), rs)])
    assert built == []


class TestOutputFormats:
    def test_csv_shape(self):
        records = reconcile([(spec_of("cycle", n=5), (1,))])
        lines = records_to_csv(records).splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "cycle,n=5,1,2,2,agree,0 1"

    def test_json_round_trip_fields(self):
        import json

        records = reconcile([(spec_of("fan", m=1, n=2), (1,))])
        data = json.loads(records_to_json(records))
        assert data[0]["status"] == "agree"
        assert data[0]["spec"]["family"] == "fan"

    def test_split_params_rendering(self):
        spec = spec_of("split", c=2, adj=[(0, 1), (0,)])
        assert spec.params_str() == "c=2;adj=0,1|0"


class TestGrids:
    def test_default_grid_covers_every_family(self):
        families = {spec.family for spec, _ in default_grid()}
        assert families == {
            "path", "cycle", "complete", "kmn", "wheel", "helm", "friendship",
            "fan", "split", "ksplit", "sun", "csun", "sunlet",
        }

    def test_default_grid_cells_are_pinned(self):
        """Each spec once, its exponents left to ``reconcile``: 1..k for each spec, 1240 cells."""
        runs = default_grid()
        assert len(runs) == len({spec for spec, _ in runs}) == 386
        assert all(rs is None for _, rs in runs)
        records = reconcile(runs)
        assert len(records) == 1240
        by_spec = [[rec.r for rec in group] for _, group in groupby(records, key=lambda rec: rec.spec)]
        assert len(by_spec) == 386
        assert all(rs == list(range(1, len(rs) + 1)) for rs in by_spec)
        by_family = groupby(records, key=lambda rec: rec.spec.family)
        cells = [(family, len(list(group))) for family, group in by_family]
        assert cells == [
            ("path", 65), ("cycle", 32), ("complete", 19), ("kmn", 299), ("wheel", 23),
            ("helm", 39), ("friendship", 29), ("fan", 298), ("ksplit", 290), ("sun", 40),
            ("csun", 31), ("sunlet", 48), ("split", 27),
        ]

    def test_split_probes_valid(self):
        for spec in split_probe_specs():
            generate(spec)
