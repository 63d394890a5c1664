"""Deterministic generators for the named graph families.

Every generator follows a fixed vertex-numbering contract so tests and the
formula module can point at specific vertices:

* path(m): vertices 0..m in path order (m edges, m+1 vertices)
* cycle(n): vertices 0..n-1 in cycle order
* complete(n): all pairs
* kmn(m, n): part A = 0..m-1, part B = m..m+n-1
* wheel(n): rim cycle 0..n-1, hub = n (last)
* helm(n): hub = 0, rim cycle 1..n, pendant n+i attached to rim vertex i
* friendship(n): center = 0, triangle i uses vertices 2i+1, 2i+2
* fan(m, n): the m independent vertices first (0..m-1), path m..m+n-1
* split(c, adj): clique 0..c-1, independent vertices c.. in adj order
* ksplit(c, s): clique 0..c-1, independent set c..c+s-1, fully joined
* sun(n) / csun(n): hub set U = 0..n-1 (cycle for sun, complete for csun),
  independent W = n..2n-1, vertex n+j adjacent to j and (j+1) mod n
* sunlet(n): cycle 0..n-1, pendant n+i attached to cycle vertex i

Note on path indexing: path(m) is the path of *length* m, i.e. m+1 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Mapping, Sequence

from nourishing.graphcore import Graph


class FamilyParameterError(ValueError):
    """A family parameter violates its bound; the message names the bound."""


# Each family's parameters in canonical order, mapped to their minimums.
# split additionally carries "adj", the per-independent-vertex clique
# neighbor lists.
FAMILY_PARAMS: Mapping[str, Mapping[str, int]] = {
    "path": {"m": 1},
    "cycle": {"n": 3},
    "complete": {"n": 1},
    "kmn": {"m": 1, "n": 1},
    "wheel": {"n": 3},
    "helm": {"n": 3},
    "friendship": {"n": 1},
    "fan": {"m": 1, "n": 1},
    "split": {"c": 1},
    "ksplit": {"c": 1, "s": 1},
    "sun": {"n": 3},
    "csun": {"n": 3},
    "sunlet": {"n": 3},
}
FAMILY_NAMES = tuple(FAMILY_PARAMS)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its parameters, validated on construction.

    Every parameter must reach its minimum in ``FAMILY_PARAMS``.  For
    ``split``, ``adj`` holds one nonempty tuple of clique-vertex indices
    0..c-1 per independent vertex, and there is at least one (isolated
    independent vertices are rejected, not silently dropped).  A spec that
    exists is therefore one ``generate`` can build; a violation raises
    FamilyParameterError naming the bound.
    """

    family: str
    params: tuple[tuple[str, int], ...]
    adj: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self) -> None:
        bounds = FAMILY_PARAMS.get(self.family)
        if bounds is None:
            raise FamilyParameterError(
                f"unknown family {self.family!r}; expected one of {', '.join(FAMILY_NAMES)}"
            )
        given = tuple(k for k, _ in self.params)
        if given != tuple(bounds):
            raise FamilyParameterError(
                f"{self.family} takes parameters {tuple(bounds)}, got {given}"
            )
        for k, v in self.params:
            if v < bounds[k]:
                raise FamilyParameterError(f"{self.family} requires {k} >= {bounds[k]}, got {k}={v}")
        if self.family != "split":
            if self.adj:
                raise FamilyParameterError("adjacency lists are only valid for split")
            return
        if not self.adj:
            raise FamilyParameterError("split requires at least one independent vertex")
        c = self["c"]
        for j, nbrs in enumerate(self.adj):
            if not nbrs:
                raise FamilyParameterError(f"split independent vertex {j} has an empty neighbor list")
            for u in nbrs:
                if not 0 <= u < c:
                    raise FamilyParameterError(
                        f"split neighbor {u} of independent vertex {j} is outside the clique 0..{c - 1}"
                    )

    @classmethod
    def make(
        cls,
        family: str,
        adj: Sequence[Sequence[int]] = (),
        **params: int,
    ) -> "FamilySpec":
        order = FAMILY_PARAMS.get(family, tuple(sorted(params)))
        return cls(
            family,
            tuple((k, params[k]) for k in order if k in params),
            tuple(tuple(a) for a in adj),
        )

    def __getitem__(self, key: str) -> int:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    def params_str(self) -> str:
        """Deterministic compact rendering, e.g. ``m=2;n=3`` or ``c=2;adj=0,1|1``."""
        parts = [f"{k}={v}" for k, v in self.params]
        if self.family == "split":
            parts.append("adj=" + "|".join(",".join(map(str, a)) for a in self.adj))
        return ";".join(parts)

    def to_json(self) -> dict:
        data: dict = {"family": self.family, "params": dict(self.params)}
        if self.family == "split":
            data["params"]["adj"] = [list(a) for a in self.adj]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FamilySpec":
        params = dict(data["params"])
        adj = params.pop("adj", ())
        return cls.make(data["family"], adj=adj, **params)


def generate(spec: FamilySpec) -> Graph:
    """Build the canonical graph for ``spec``.

    The spec was validated when it was built, so every spec has a graph.
    """
    f = spec.family
    if f == "path":
        m = spec["m"]
        return Graph(m + 1, [(i, i + 1) for i in range(m)])
    if f == "cycle":
        n = spec["n"]
        return Graph(n, _cycle_edges(n))
    if f == "complete":
        n = spec["n"]
        return Graph(n, combinations(range(n), 2))
    if f == "kmn":
        m, n = spec["m"], spec["n"]
        return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    if f == "wheel":
        n = spec["n"]
        edges = _cycle_edges(n) + [(i, n) for i in range(n)]
        return Graph(n + 1, edges)
    if f == "helm":
        n = spec["n"]
        rim = [(i, i % n + 1) for i in range(1, n + 1)]
        spokes = [(0, i) for i in range(1, n + 1)]
        pendants = [(i, n + i) for i in range(1, n + 1)]
        return Graph(2 * n + 1, rim + spokes + pendants)
    if f == "friendship":
        n = spec["n"]
        edges = []
        for i in range(n):
            a, b = 2 * i + 1, 2 * i + 2
            edges += [(0, a), (0, b), (a, b)]
        return Graph(2 * n + 1, edges)
    if f == "fan":
        m, n = spec["m"], spec["n"]
        path = [(m + i, m + i + 1) for i in range(n - 1)]
        join = [(i, m + j) for i in range(m) for j in range(n)]
        return Graph(m + n, path + join)
    if f == "split":
        c = spec["c"]
        edges = list(combinations(range(c), 2))
        edges += [(u, c + j) for j, nbrs in enumerate(spec.adj) for u in nbrs]
        return Graph(c + len(spec.adj), edges)
    if f == "ksplit":
        c, s = spec["c"], spec["s"]
        edges = list(combinations(range(c), 2))
        edges += [(i, c + j) for i in range(c) for j in range(s)]
        return Graph(c + s, edges)
    n = spec["n"]
    if f in ("sun", "csun"):
        hub = _cycle_edges(n) if f == "sun" else list(combinations(range(n), 2))
        rays = []
        for j in range(n):
            rays += [(j, n + j), ((j + 1) % n, n + j)]
        return Graph(2 * n, hub + rays)
    # sunlet
    return Graph(2 * n, _cycle_edges(n) + [(i, n + i) for i in range(n)])


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def family_grid(
    family: str,
    param_ranges: Mapping[str, Sequence[int]],
    r_range: Sequence[int],
) -> list[tuple[FamilySpec, int]]:
    """All (spec, r) cells in deterministic lexicographic order.

    ``param_ranges`` maps each of the family's parameter names to a nonempty
    range; ``r_range`` is the nonempty sequence of power exponents.  Each spec
    is validated as it is built, so a parameter out of bounds raises
    FamilyParameterError naming the bound.
    """
    names = FAMILY_PARAMS.get(family)
    if names is None:
        raise FamilyParameterError(f"unknown family {family!r}")
    if family == "split":
        raise FamilyParameterError(
            "split grids need explicit adjacency lists; build (FamilySpec, r) cells directly"
        )
    rs = list(r_range)
    if not rs:
        raise FamilyParameterError("empty power-exponent range")
    if any(r < 1 for r in rs):
        raise FamilyParameterError("power exponents must be >= 1")
    axes = []
    for name in names:
        values = list(param_ranges.get(name, ()))
        if not values:
            raise FamilyParameterError(f"{family} grid is missing a range for {name!r}")
        axes.append(values)
    cells: list[tuple[FamilySpec, int]] = []
    for combo in product(*axes):
        spec = FamilySpec.make(family, **dict(zip(names, combo)))
        cells.extend((spec, r) for r in rs)
    return cells
