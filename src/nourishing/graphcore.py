"""Simple-graph core: BFS distances, graph powers, diameter, exact max clique.

Graphs are simple and undirected with vertices 0..n-1, immutable after
construction; ``Graph`` says how they are stored and ``max_clique`` how the
exact search runs on neighbour bitmasks.  ``power_cliques`` answers many powers
of one graph, reading each G^r's masks straight off one distance matrix.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

INF = math.inf


class Graph(tuple):
    """An immutable simple undirected graph on vertices 0..n-1.

    A tuple of neighbour frozensets: item v is ``neighbors(v)`` and ``len(g)``
    is ``n``.  Equality and hashing are the tuple's, so a graph equals the
    plain tuple of the same sets.  ``edges`` is a frozenset of the canonical
    ``(u, v)`` pairs, ``u < v``, built from the adjacency on each access, so
    it iterates in set order and its length costs O(m); ``sorted_edges()`` is
    the ordered form.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (type(u) is int and type(v) is int):
                raise ValueError("edge endpoints must be integers")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u].add(v)
            adj[v].add(u)
        return cls._from_adjacency(map(frozenset, adj))

    @classmethod
    def _from_adjacency(cls, adj: Iterable[frozenset[int]]) -> "Graph":
        """A graph on an already symmetric, loop-free adjacency, taken as is."""
        return tuple.__new__(cls, adj)

    def __getnewargs__(self) -> tuple[int, list[tuple[int, int]]]:
        return self.n, self.sorted_edges()

    @property
    def n(self) -> int:
        return len(self)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={sum(map(len, self)) // 2})"

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, nbrs in enumerate(self) for v in nbrs if v > u)

    def neighbors(self, v: int) -> frozenset[int]:
        return self[v]

    def degree(self, v: int) -> int:
        return len(self[v])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, nbrs in enumerate(self) for v in sorted(nbrs) if v > u]

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.sorted_edges()]}

    @staticmethod
    def order_from_json(data: object) -> int:
        """The vertex count ``"n"`` of graph JSON, read before anything is allocated."""
        n = data.get("n") if isinstance(data, dict) else None
        if type(n) is not int:
            raise ValueError(f'graph JSON must be an object with an integer "n", got "n": {n!r}')
        return n

    @classmethod
    def from_json(cls, data: object) -> "Graph":
        """Parse ``{"n": int, "edges": [[u, v], ...]}``; ValueError says what is malformed."""
        n = cls.order_from_json(data)
        try:
            edges = [(u, v) for u, v in data.get("edges")]
        except (TypeError, ValueError):
            raise ValueError('graph JSON "edges" must be a list of [u, v] pairs') from None
        return cls(n, edges)

    def to_dot(self) -> str:
        lines = ["graph G {"]
        lines.extend(f"  {v};" for v in range(self.n))
        lines.extend(f"  {u} -- {v};" for u, v in self.sorted_edges())
        lines.append("}")
        return "\n".join(lines)


def all_pairs_distance(g: Graph) -> list[list[float]]:
    """Symmetric n x n matrix of shortest-path hop counts (INF if disconnected)."""
    rows = []
    for source in range(g.n):
        dist: list[float] = [INF] * g.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in g[u]:
                if dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        rows.append(dist)
    return rows


def diameter(g: Graph) -> float:
    """Maximum finite distance; INF iff disconnected; 0 for a single vertex."""
    return max(map(max, all_pairs_distance(g)))


def power(g: Graph, r: int) -> Graph:
    """The r-th power: same vertices, edges between vertices at distance <= r."""
    if r < 1:
        raise ValueError(f"power exponent must be >= 1, got {r}")
    if r == 1:
        return g
    return Graph._from_adjacency(
        frozenset(v for v, d in enumerate(row) if 0 < d <= r) for row in all_pairs_distance(g)
    )


def is_complete(g: Graph) -> bool:
    return sum(map(len, g)) == g.n * (g.n - 1)


def max_clique(g: Graph) -> tuple[int, ...]:
    """One maximum clique, as a sorted vertex tuple.  Exact.

    Complete graphs skip the search.  It runs on neighbour masks (bit w of
    ``adj[v]`` set iff v and w are adjacent), which ``power_cliques`` reads
    for G^r off distance rows: Bron-Kerbosch with pivoting on an explicit
    stack of ``(clique, candidates, excluded)`` frames of bitmasks.  The
    pivot has the most candidate neighbours, ties going to the lowest vertex.
    Branches are pushed highest vertex first, so the stack runs them lowest
    first; the witness is the first largest clique found in that order.

    Once a clique has been found, a frame is dropped when its candidates
    cannot extend it past the best one (the bound of Tomita and Seki's MCQ).
    The candidates are coloured greedily: the lowest uncoloured candidate opens
    a class, which takes every later uncoloured candidate adjacent to none of
    the class.  A clique holds at most one vertex of each class, so a frame
    whose clique plus its colour count cannot exceed the best is pruned.  The
    colouring stops as soon as it has more classes than that.  Only frames
    that cannot yield a strictly larger clique are pruned, so the witness is
    the one the unbounded search returns.
    """
    if is_complete(g):
        return tuple(range(g.n))
    return _search([sum(1 << w for w in nbrs) for nbrs in g])


def _search(adj: Sequence[int]) -> tuple[int, ...]:
    """``max_clique``'s search over the neighbour masks of a graph that is not complete."""
    best: tuple[int, ...] = ()
    stack = [((), (1 << len(adj)) - 1, 0)]
    while stack:
        clique, candidates, excluded = stack.pop()
        if not candidates and not excluded:
            if len(clique) > len(best):
                best = tuple(sorted(clique))
            continue
        spare = len(best) - len(clique)
        # a clique takes at most one candidate from each greedy colour class
        uncoloured, colours = candidates, 0
        while uncoloured and colours <= spare:
            colours += 1
            pool = uncoloured
            while pool:
                low = pool & -pool
                uncoloured ^= low
                pool &= ~(adj[low.bit_length() - 1] | low)
        if colours <= spare:
            continue
        pivot, most = -1, -1
        pool = candidates | excluded
        while pool:
            low = pool & -pool
            u = low.bit_length() - 1
            k = (candidates & adj[u]).bit_count()
            if k > most:
                pivot, most = u, k
            pool ^= low
        # branches go on highest vertex first, so they pop lowest first; rest holds those still to push
        rest = candidates & ~adj[pivot]
        while rest:
            v = rest.bit_length() - 1
            rest ^= 1 << v
            stack.append((clique + (v,), candidates & ~rest & adj[v], (excluded | rest) & adj[v]))
    return best


def power_cliques(g: Graph, rs: Sequence[int]) -> list[tuple[int, ...]]:
    """One maximum clique of G^r for each exponent in ``rs``, in order.

    The distance matrix is built once, only if some r >= 2 needs it.  G^r is
    complete once r reaches the largest distance, so it is answered as every
    vertex; below that, its masks (0 < d <= r) are searched with no ``Graph``.
    """
    if min(rs, default=1) < 1:
        raise ValueError(f"power exponent must be >= 1, got {min(rs)}")
    if max(rs, default=1) > 1:
        dist = all_pairs_distance(g)
        widest = max(map(max, dist))  # INF when disconnected: no power is complete
    witnesses = []
    for r in rs:
        if r == 1:
            witnesses.append(max_clique(g))
        elif r >= widest:
            witnesses.append(tuple(range(g.n)))
        else:
            adj = [sum(1 << v for v, d in enumerate(row) if 0 < d <= r) for row in dist]
            witnesses.append(_search(adj))
    return witnesses


def clique_number(g: Graph) -> int:
    """Order of a maximum clique."""
    return len(max_clique(g))
