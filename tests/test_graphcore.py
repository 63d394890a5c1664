"""Graph core: distances, powers, diameter, exact clique search."""

from __future__ import annotations

import copy
import inspect
import json
import pickle
import sys
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bfs_power_edges, brute_force_clique_number, reference_max_clique
from nourishing.families import FamilySpec, generate
from nourishing.graphcore import (
    INF,
    Graph,
    all_pairs_distance,
    clique_number,
    diameter,
    is_complete,
    max_clique,
    power,
    power_cliques,
)
from nourishing.nourish import default_grid


def path_graph(m: int) -> Graph:
    return Graph(m + 1, [(i, i + 1) for i in range(m)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


class TestGraph:
    def test_rejects_loops_and_bad_vertices(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph(0, [])

    @pytest.mark.parametrize("edge", [(0.5, 1), ("0", 1), (True, 2)])
    def test_rejects_endpoints_that_are_not_ints(self, edge):
        with pytest.raises(ValueError, match="^edge endpoints must be integers$"):
            Graph(3, [(0, 1), edge])

    def test_parallel_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert len(g.edges) == 1

    def test_json_round_trip(self):
        g = cycle_graph(5)
        assert Graph.from_json(json.loads(json.dumps(g.to_json()))) == g

    def test_dot_output(self):
        dot = path_graph(1).to_dot()
        assert dot.startswith("graph G {")
        assert "0 -- 1;" in dot


@st.composite
def edge_lists(draw) -> tuple[int, list[tuple[int, int]]]:
    """A vertex count up to 12 and an edge list with repeats in both orientations."""
    n = draw(st.integers(1, 12))
    if n == 1:
        return n, []
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), max_size=40))
    edges = [(u, (u + k) % n) for u, k in steps]
    repeats = draw(st.integers(0, len(edges)))
    return n, edges + [(v, u) for u, v in edges[:repeats]]


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.randoms(use_true_random=False))
def test_graph_stores_canonical_edges(drawn, rnd):
    n, edges = drawn
    canon = {(min(u, v), max(u, v)) for u, v in edges}
    g = Graph(n, edges)
    assert g.edges == canon
    assert len(g.edges) == len(canon)
    assert set(g.edges) == canon
    assert g.sorted_edges() == sorted(g.edges) == sorted(canon)
    for u in range(n):
        for v in range(n):
            assert ((u, v) in g.edges) == ((u, v) in canon)
    shuffled = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
    rnd.shuffle(shuffled)
    h = Graph(n, shuffled)
    assert h == g
    assert hash(h) == hash(g)
    nbrs = tuple(frozenset(w for e in canon if v in e for w in e if w != v) for v in range(n))
    assert g == nbrs and hash(g) == hash(nbrs)
    assert len(g) == g.n == n
    assert all(g[v] == g.neighbors(v) == nbrs[v] for v in range(n))
    assert repr(g) == f"Graph(n={n}, m={len(canon)})"
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert type(twin) is Graph and twin == g
    for name in ("n", "edges", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 0)
    pairs = n * (n - 1) // 2
    reach = [bfs_power_edges(n, canon, r) for r in range(n + 2)]
    for r in range(1, n + 2):
        assert power(g, r).edges == reach[r]
    assert diameter(g) == next((r for r in range(n + 1) if len(reach[r]) == pairs), INF)
    assert is_complete(g) == (len(canon) == pairs)


class TestDistances:
    def test_path(self):
        d = all_pairs_distance(path_graph(2))
        assert d[0][2] == 2

    def test_complete(self):
        d = all_pairs_distance(complete_graph(4))
        assert all(d[u][v] == 1 for u in range(4) for v in range(4) if u != v)

    def test_cycle_antipode(self):
        assert all_pairs_distance(cycle_graph(6))[0][3] == 3

    def test_disconnected_is_inf(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert all_pairs_distance(g)[0][2] == INF

    def test_symmetric_zero_diagonal(self):
        g = cycle_graph(7)
        d = all_pairs_distance(g)
        for u in range(7):
            assert d[u][u] == 0
            for v in range(7):
                assert d[u][v] == d[v][u]


class TestDiameter:
    def test_complete(self):
        assert diameter(complete_graph(5)) == 1

    @pytest.mark.parametrize("n", range(3, 10))
    def test_cycle(self, n):
        assert diameter(cycle_graph(n)) == n // 2

    @pytest.mark.parametrize("m", range(1, 8))
    def test_path(self, m):
        assert diameter(path_graph(m)) == m

    def test_single_vertex(self):
        assert diameter(Graph(1, [])) == 0

    def test_disconnected(self):
        assert diameter(Graph(3, [(0, 1)])) == INF


class TestPower:
    def test_identity_at_one(self):
        g = cycle_graph(5)
        assert power(g, 1) == g

    def test_square_of_c4_is_complete(self):
        assert power(cycle_graph(4), 2) == complete_graph(4)

    def test_path_square(self):
        g = power(path_graph(4), 2)
        expected = {(u, v) for u in range(5) for v in range(u + 1, 5) if v - u <= 2}
        assert g.edges == frozenset(expected)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            power(cycle_graph(4), 0)

    @pytest.mark.parametrize("n", [5, 6, 8])
    def test_monotone_in_r(self, n):
        g = cycle_graph(n)
        for r in range(1, n):
            assert power(g, r).edges <= power(g, r + 1).edges

    @pytest.mark.parametrize("n", [4, 6, 7])
    def test_diameter_power_complete(self, n):
        g = cycle_graph(n)
        assert is_complete(power(g, int(diameter(g))))


def test_power_and_diameter_match_bfs_oracle_on_default_grid():
    """Every default-grid spec, r = 1..diameter+1: the oracle sees only the edge set."""
    specs = dict.fromkeys(spec for spec, _ in default_grid())
    assert len(specs) == 386
    for spec in specs:
        g = generate(spec)
        reach = [set()]  # reach[r]: the pairs at distance 1..r
        while len(reach[-1]) < g.n * (g.n - 1) // 2:
            reach.append(bfs_power_edges(g.n, g.edges, len(reach)))
            assert reach[-1] != reach[-2], f"{spec} is disconnected"
        assert diameter(g) == len(reach) - 1, spec  # the oracle's largest distance
        reach.append(reach[-1])
        for r in range(1, len(reach)):
            assert power(g, r).edges == reach[r], (spec, r)


class TestClique:
    def test_triangle_free_with_edge(self):
        assert clique_number(cycle_graph(6)) == 2

    def test_complete(self):
        assert clique_number(complete_graph(7)) == 7

    def test_squared_hexagon(self):
        assert clique_number(power(cycle_graph(6), 2)) == 3

    def test_witness_is_maximal_clique(self):
        g = power(cycle_graph(8), 2)
        witness = max_clique(g)
        for u, v in combinations(witness, 2):
            assert v in g.neighbors(u)
        outside = set(range(g.n)) - set(witness)
        for w in outside:
            assert not all(v in g.neighbors(w) for v in witness)

    def test_matches_brute_force_on_assorted_graphs(self):
        graphs = [
            cycle_graph(7),
            power(cycle_graph(9), 3),
            path_graph(6),
            Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]),
            Graph(5, []),
        ]
        for g in graphs:
            assert clique_number(g) == brute_force_clique_number(g)

    def test_nondecreasing_in_r(self):
        g = cycle_graph(9)
        values = [clique_number(power(g, r)) for r in range(1, 6)]
        assert values == sorted(values)

    def test_deep_search_needs_no_recursion(self):
        g = generate(FamilySpec.make("ksplit", c=300, s=2))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 150)
        try:
            witness = max_clique(g)
        finally:
            sys.setrecursionlimit(limit)
        assert len(witness) == 301

    def test_large_split_graph_searches_fast(self):
        """The first descent of ksplit c=1100 s=2 is about 1100 frames deep."""
        g = generate(FamilySpec.make("ksplit", c=1100, s=2))
        start = time.perf_counter()
        witness = max_clique(g)
        elapsed = time.perf_counter() - start
        assert len(witness) == 1101
        assert all(v in g[u] for u, v in combinations(witness, 2))
        assert elapsed < 5.0, elapsed

    def test_worst_exponents_search_fast(self):
        """Each family's power just below completeness, for every n up to 60.

        The clique numbers follow from pairings: in C_n^(n/2-1) (n even) the
        n/2 antipodal pairs are non-adjacent and n/2 consecutive vertices are
        a clique; in the sun's power r = n//2 (n odd) each independent vertex
        n+j is at distance r+1 from hub vertex j+(n+1)/2 and the hub is a
        clique; in the sunlet's power r = n/2 (n even) pendant n+i is at
        distance r+1 from cycle vertex i+n/2 and the cycle is a clique.  So
        omega is n/2, n and n.  The searches take about 0.1 s in all; the
        budget is 1 s.
        """
        cells = [("cycle", n, n // 2 - 1, n // 2) for n in range(4, 61, 2)]
        cells += [("sun", n, n // 2, n) for n in range(3, 60, 2)]
        cells += [("sunlet", n, n // 2, n) for n in range(4, 61, 2)]
        elapsed = 0.0
        for family, n, r, omega in cells:
            g = generate(FamilySpec.make(family, n=n))
            g_r = power(g, r)
            start = time.perf_counter()
            witness = max_clique(g_r)
            elapsed += time.perf_counter() - start
            edges = bfs_power_edges(g.n, g.edges, r)
            assert len(witness) == omega, (family, n, r)
            assert all(e in edges for e in combinations(witness, 2)), (family, n, r)
        assert elapsed < 1.0, elapsed

    @pytest.mark.parametrize(
        "family,n,r,witness",
        [
            ("sun", 7, 2, (0, 1, 2, 7, 8)),
            ("sun", 8, 1, (0, 1, 8)),
            ("sun", 8, 2, (0, 1, 2, 8, 9)),
            ("sun", 8, 3, (0, 1, 2, 3, 8, 9, 10)),
            ("sunlet", 7, 2, (0, 1, 2, 8)),
            ("sunlet", 10, 2, (0, 1, 2, 11)),
        ],
    )
    def test_witness_pinned(self, family, n, r, witness):
        """Pivot ties go to the lowest vertex, branches run lowest vertex first."""
        assert max_clique(power(generate(FamilySpec.make(family, n=n)), r)) == witness


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.randoms(use_true_random=False))
def test_witness_independent_of_edge_order(drawn, rnd):
    n, edges = drawn
    witness = max_clique(Graph(n, edges))
    shuffled = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
    rnd.shuffle(shuffled)
    g = Graph(n, shuffled)
    assert max_clique(g) == witness
    assert len(witness) == brute_force_clique_number(g)


@st.composite
def clique_graphs(draw) -> Graph:
    """Up to 40 vertices: random density, complete, edgeless, or complete minus a few edges."""
    n = draw(st.integers(1, 40))
    pairs = list(combinations(range(n), 2))
    kind = draw(st.sampled_from(["random", "complete", "edgeless", "near-complete"]))
    if kind == "complete":
        return Graph(n, pairs)
    if kind == "edgeless":
        return Graph(n, [])
    rnd = draw(st.randoms(use_true_random=False))
    if kind == "near-complete":
        missing = set(rnd.sample(pairs, min(len(pairs), draw(st.integers(1, 5)))))
        return Graph(n, [e for e in pairs if e not in missing])
    p = draw(st.floats(0.0, 1.0))
    return Graph(n, [e for e in pairs if rnd.random() < p])


@settings(max_examples=300, deadline=None)
@given(clique_graphs())
@example(Graph(4, [(0, 3), (1, 2)]))  # a pivot tie: the lowest vertex's branch comes first
def test_max_clique_matches_reference_search(g):
    assert max_clique(g) == reference_max_clique(g)


@st.composite
def power_runs(draw) -> tuple[Graph, list[int]]:
    """A graph of up to 16 vertices, often disconnected, and exponents drawn
    unsorted and with repeats, up to n + 1, past any finite distance."""
    n = draw(st.integers(1, 16))
    rnd = draw(st.randoms(use_true_random=False))
    p = draw(st.floats(0.0, 0.6))
    g = Graph(n, [e for e in combinations(range(n), 2) if rnd.random() < p])
    return g, draw(st.lists(st.integers(1, n + 1), max_size=8))


@settings(max_examples=300, deadline=None)
@given(power_runs(), st.integers(-3, 0), st.randoms(use_true_random=False))
def test_power_cliques_answers_each_power(drawn, bad, rnd):
    g, rs = drawn
    witnesses = power_cliques(g, rs)
    assert witnesses == [max_clique(power(g, r)) for r in rs]
    # conftest's BFS power and frozenset search share no code with the library
    powers = [Graph(g.n, bfs_power_edges(g.n, g.edges, r)) for r in rs]
    assert witnesses == [reference_max_clique(g_r) for g_r in powers]
    if g.n <= 10:
        for g_r, witness in zip(powers, witnesses):
            assert len(witness) == brute_force_clique_number(g_r)
    worse = rs[:]
    worse.insert(rnd.randint(0, len(rs)), bad)
    with pytest.raises(ValueError, match=rf"^power exponent must be >= 1, got {min(worse)}$"):
        power_cliques(g, worse)


def test_power_cliques_of_no_exponent_is_empty():
    assert power_cliques(cycle_graph(5), []) == []
