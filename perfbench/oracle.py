"""Output checks written without the program's code.

Graphs are rebuilt here from the vertex-numbering contract in the
``nourishing.families`` docstring, distances come from this module's own
breadth-first search, and label and verification checks restate the
definitions directly.  Nothing in this module imports ``nourishing``.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations


def parse_params(text: str) -> tuple[dict[str, int], list[tuple[int, ...]]]:
    """Parse the CSV ``params`` column, e.g. ``m=2;n=3`` or ``c=2;adj=0,1|1``."""
    params: dict[str, int] = {}
    adj: list[tuple[int, ...]] = []
    for part in text.split(";"):
        key, value = part.split("=", 1)
        if key == "adj":
            adj = [tuple(int(x) for x in group.split(",")) for group in value.split("|")]
        else:
            params[key] = int(value)
    return params, adj


def family_graph(family: str, p: dict[str, int], adj: list[tuple[int, ...]] = ()) -> list[set[int]]:
    """Adjacency sets of a family graph, numbered as the families docstring states."""
    edges: list[tuple[int, int]] = []

    def cycle(vertices: list[int]) -> None:
        edges.extend(zip(vertices, vertices[1:] + vertices[:1]))

    if family == "path":
        n = p["m"] + 1
        edges.extend((i, i + 1) for i in range(n - 1))
    elif family == "cycle":
        n = p["n"]
        cycle(list(range(n)))
    elif family == "complete":
        n = p["n"]
        edges.extend(combinations(range(n), 2))
    elif family in ("kmn", "fan"):
        m, k = p["m"], p["n"]
        n = m + k
        edges.extend((i, m + j) for i in range(m) for j in range(k))
        if family == "fan":
            edges.extend((m + j, m + j + 1) for j in range(k - 1))
    elif family == "wheel":
        k = p["n"]
        n = k + 1
        cycle(list(range(k)))
        edges.extend((i, k) for i in range(k))
    elif family == "helm":
        k = p["n"]
        n = 2 * k + 1
        cycle(list(range(1, k + 1)))
        edges.extend((0, i) for i in range(1, k + 1))
        edges.extend((i, k + i) for i in range(1, k + 1))
    elif family == "friendship":
        n = 2 * p["n"] + 1
        for i in range(p["n"]):
            edges.extend([(0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2)])
    elif family in ("split", "ksplit"):
        c = p["c"]
        if family == "ksplit":
            adj = [tuple(range(c))] * p["s"]
        n = c + len(adj)
        edges.extend(combinations(range(c), 2))
        edges.extend((u, c + j) for j, nbrs in enumerate(adj) for u in nbrs)
    elif family in ("sun", "csun", "sunlet"):
        k = p["n"]
        n = 2 * k
        if family == "csun":
            edges.extend(combinations(range(k), 2))
        else:
            cycle(list(range(k)))
        for j in range(k):
            edges.append((j, k + j))
            if family != "sunlet":
                edges.append(((j + 1) % k, k + j))
    else:
        raise ValueError(f"unknown family {family!r}")
    graph: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        graph[u].add(v)
        graph[v].add(u)
    return graph


def within(graph: list[set[int]], source: int, r: int) -> set[int]:
    """Vertices other than ``source`` at distance at most ``r``."""
    if r == 1:
        return set(graph[source])
    seen = {source}
    frontier = deque([(source, 0)])
    while frontier:
        u, d = frontier.popleft()
        if d == r:
            continue
        for w in graph[u]:
            if w not in seen:
                seen.add(w)
                frontier.append((w, d + 1))
    seen.discard(source)
    return seen


def power_graph(graph: list[set[int]], r: int) -> list[set[int]]:
    return [within(graph, v, r) for v in range(len(graph))]


def clique_error(graph: list[set[int]], r: int, witness: list[int], size: int) -> str | None:
    """None when ``witness`` is a clique of ``size`` distinct vertices in G^r."""
    if len(witness) != size or len(set(witness)) != size:
        return f"witness has {len(witness)} entries, {len(set(witness))} distinct, expected {size}"
    if any(not 0 <= v < len(graph) for v in witness):
        return "witness vertex out of range"
    members = set(witness)
    for v in witness:
        missing = members - within(graph, v, r) - {v}
        if missing:
            return f"witness vertices {v} and {min(missing)} are farther apart than {r}"
    return None


def max_clique_size(graph: list[set[int]]) -> int:
    """Exact clique number by Bron-Kerbosch with pivoting on bitmasks."""
    masks = [sum(1 << w for w in nbrs) for nbrs in graph]
    best = 0

    def extend(size: int, cand: int, excl: int) -> None:
        nonlocal best
        if not cand and not excl:
            best = max(best, size)
            return
        if size + bin(cand).count("1") <= best:
            return
        pivot_pool = cand | excl
        pivot = max((v for v in range(len(masks)) if pivot_pool >> v & 1),
                    key=lambda v: bin(cand & masks[v]).count("1"))
        rest = cand & ~masks[pivot]
        while rest:
            bit = rest & -rest
            v = bit.bit_length() - 1
            extend(size + 1, cand & masks[v], excl & masks[v])
            cand &= ~bit
            excl |= bit
            rest &= ~bit

    extend(0, (1 << len(masks)) - 1, 0)
    return best


def expected_omega(family: str, p: dict[str, int], r: int) -> int:
    """Clique number of G^r for the families and ranges the label workload draws.

    Derived by hand from the graph shapes and cross-checked against
    ``max_clique_size`` (see ``test_harness.py``); these are not the
    published formulas the program reconciles.
    """
    if family == "kmn":
        return 2 if r == 1 else p["m"] + p["n"]
    if family == "cycle":
        return r + 1 if 2 * r + 1 < p["n"] else p["n"]
    if family == "friendship":
        return 3 if r == 1 else 2 * p["n"] + 1
    if family == "helm" and p["n"] >= 5:
        return {1: 3, 2: p["n"] + 1, 3: p["n"] + 3}.get(r, 2 * p["n"] + 1)
    if family == "sunlet" and p["n"] >= 2 * r + 3:
        return 2 if r == 1 else 2 * r
    raise ValueError(f"no closed form for {family} {p} r={r}")


def labeling_error(power: list[set[int]], labels: list[list[int]], s: int) -> str | None:
    """None when ``labels`` is a strong set-indexer of the graph ``power``.

    Strong: every label has ``s`` elements, adjacent labels have disjoint
    difference sets, and vertex labels and edge sumsets are all distinct.
    """
    if len(labels) != len(power):
        return f"{len(labels)} labels for {len(power)} vertices"
    for v, label in enumerate(labels):
        if len(label) != s or len(set(label)) != s or min(label) < 0:
            return f"label of vertex {v} is not {s} distinct non-negative integers"
    if len({frozenset(a) for a in labels}) != len(labels):
        return "two vertices share a label"
    diffs = [{abs(x - y) for x, y in combinations(a, 2)} for a in labels]
    sums: set[frozenset[int]] = set()
    for u, nbrs in enumerate(power):
        for v in nbrs:
            if v < u:
                continue
            if diffs[u] & diffs[v]:
                return f"adjacent vertices {u} and {v} share a difference"
            edge_sum = frozenset(x + y for x in labels[u] for y in labels[v])
            if edge_sum in sums:
                return f"edge ({u}, {v}) repeats another edge's sumset"
            sums.add(edge_sum)
    return None


def verification_outcome(n: int, edges: list[list[int]], labels: list[list[int]]) -> tuple[int, Counter]:
    """Expected exit code and failure counts by kind for ``nourish verify``.

    Mirrors the documented report: a vertex-collision per vertex repeating an
    earlier label, an edge-collision per edge (in sorted order) repeating an
    earlier sumset, a non-multiplicative-edge per edge whose sumset is smaller
    than the product of its label sizes.  Exit 0 iff there is no failure.
    """
    kinds: Counter = Counter()
    seen = set()
    for v in range(n):
        key = frozenset(labels[v])
        kinds["vertex-collision"] += key in seen
        seen.add(key)
    seen = set()
    for u, v in sorted(tuple(sorted(e)) for e in edges):
        edge_sum = frozenset(x + y for x in labels[u] for y in labels[v])
        kinds["edge-collision"] += edge_sum in seen
        seen.add(edge_sum)
        kinds["non-multiplicative-edge"] += len(edge_sum) < len(set(labels[u])) * len(set(labels[v]))
    kinds = +kinds
    return (1 if kinds else 0), kinds
