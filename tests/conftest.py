"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from collections import deque
from itertools import combinations

from nourishing.families import FAMILY_PARAMS, FamilySpec
from nourishing.graphcore import Graph
from nourishing.setalg import IntSet


def brute_force_clique_number(g: Graph) -> int:
    """Exhaustive subset enumeration; independent of the search-based solver."""
    for size in range(g.n, 0, -1):
        for subset in combinations(range(g.n), size):
            if all(v in g.neighbors(u) for u, v in combinations(subset, 2)):
                return size
    return 0


def reference_max_clique(g: Graph) -> tuple[int, ...]:
    """The frozenset Bron-Kerbosch search that ``graphcore.max_clique`` runs on bitmasks.

    Same pivot rule (most candidate neighbours, ties to the lowest vertex) and
    lowest-vertex-first branches, so its witness is the one the library must
    return.
    """
    if sum(map(len, g)) == g.n * (g.n - 1):
        return tuple(range(g.n))
    best: tuple[int, ...] = ()
    stack = [((), set(range(g.n)), set())]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates and not excluded:
            if len(clique) > len(best):
                best = tuple(sorted(clique))
            continue
        if len(clique) + len(candidates) <= len(best):
            continue
        pivot = max(sorted(candidates | excluded), key=lambda u: len(candidates & g[u]))
        branches = []
        for v in sorted(candidates - g[pivot]):
            branches.append((clique + (v,), candidates & g[v], excluded & g[v]))
            candidates.remove(v)
            excluded.add(v)
        stack.extend(reversed(branches))
    return best


def bfs_power_edges(n: int, pairs: set[tuple[int, int]], r: int) -> set[tuple[int, int]]:
    """Pairs at hop distance 1..r: r rounds of breadth-first expansion over ``pairs`` alone."""
    nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    out = set()
    for source in range(n):
        reached = frontier = {source}
        for _ in range(r):
            frontier = {w for u in frontier for w in nbrs[u]} - reached
            reached = reached | frontier
        out |= {(source, v) for v in reached if v > source}
    return out


def bfs_distances(n: int, pairs: set[tuple[int, int]]) -> list[dict[int, int]]:
    """Hop counts from each vertex to those it reaches, by BFS over ``pairs`` alone."""
    nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in pairs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    rows = []
    for source in range(n):
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in nbrs[u] - dist.keys():
                dist[w] = dist[u] + 1
                queue.append(w)
        rows.append(dist)
    return rows


def brute_force_sumset(a: IntSet, b: IntSet) -> set[int]:
    out = set()
    for x in a:
        for y in b:
            out.add(x + y)
    return out


def brute_force_difference_set(a: IntSet) -> set[int]:
    return {abs(x - y) for x in a for y in a if x != y}


def smallest_specs(family: str) -> list[FamilySpec]:
    """The three smallest parameter settings per family (lexicographic).

    Every parameter sits at its minimum and the last one steps min..min+2;
    split, whose specs also need adjacency lists, takes three literal specs.
    """
    if family == "split":
        return [
            FamilySpec.make("split", c=1, adj=[(0,)]),
            FamilySpec.make("split", c=2, adj=[(0,), (1,)]),
            FamilySpec.make("split", c=2, adj=[(0, 1)]),
        ]
    *fixed, (last, lo) = FAMILY_PARAMS[family].items()
    return [FamilySpec.make(family, **dict(fixed), **{last: v}) for v in range(lo, lo + 3)]
