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


# Parameter names per family, in canonical order.  split additionally
# carries "adj", the per-independent-vertex clique neighbor lists.
FAMILY_PARAMS: Mapping[str, tuple[str, ...]] = {
    "path": ("m",),
    "cycle": ("n",),
    "complete": ("n",),
    "kmn": ("m", "n"),
    "wheel": ("n",),
    "helm": ("n",),
    "friendship": ("n",),
    "fan": ("m", "n"),
    "split": ("c",),
    "ksplit": ("c", "s"),
    "sun": ("n",),
    "csun": ("n",),
    "sunlet": ("n",),
}
FAMILY_NAMES = tuple(FAMILY_PARAMS)


@dataclass(frozen=True)
class FamilySpec:
    """A named graph family plus its parameters.

    For ``split``, ``adj`` holds one tuple of clique-vertex indices per
    independent vertex; each tuple must be nonempty (isolated independent
    vertices are rejected, not silently dropped).
    """

    family: str
    params: tuple[tuple[str, int], ...]
    adj: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.family not in FAMILY_NAMES:
            raise FamilyParameterError(
                f"unknown family {self.family!r}; expected one of {', '.join(FAMILY_NAMES)}"
            )
        expected = FAMILY_PARAMS[self.family]
        given = tuple(k for k, _ in self.params)
        if given != expected:
            raise FamilyParameterError(
                f"{self.family} takes parameters {expected}, got {given}"
            )
        if self.adj and self.family != "split":
            raise FamilyParameterError("adjacency lists are only valid for split")

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


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise FamilyParameterError(message)


def generate(spec: FamilySpec) -> Graph:
    """Build the canonical graph for ``spec``.

    Raises FamilyParameterError when a parameter is out of range; the message
    names the violated bound.
    """
    f = spec.family
    if f == "path":
        m = spec["m"]
        _require(m >= 1, f"path requires m >= 1, got m={m}")
        return Graph(m + 1, [(i, i + 1) for i in range(m)])
    if f == "cycle":
        n = spec["n"]
        _require(n >= 3, f"cycle requires n >= 3, got n={n}")
        return Graph(n, _cycle_edges(n))
    if f == "complete":
        n = spec["n"]
        _require(n >= 1, f"complete requires n >= 1, got n={n}")
        return Graph(n, combinations(range(n), 2))
    if f == "kmn":
        m, n = spec["m"], spec["n"]
        _require(m >= 1, f"kmn requires m >= 1, got m={m}")
        _require(n >= 1, f"kmn requires n >= 1, got n={n}")
        return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    if f == "wheel":
        n = spec["n"]
        _require(n >= 3, f"wheel requires n >= 3, got n={n}")
        edges = _cycle_edges(n) + [(i, n) for i in range(n)]
        return Graph(n + 1, edges)
    if f == "helm":
        n = spec["n"]
        _require(n >= 3, f"helm requires n >= 3, got n={n}")
        rim = [(i, i % n + 1) for i in range(1, n + 1)]
        spokes = [(0, i) for i in range(1, n + 1)]
        pendants = [(i, n + i) for i in range(1, n + 1)]
        return Graph(2 * n + 1, rim + spokes + pendants)
    if f == "friendship":
        n = spec["n"]
        _require(n >= 1, f"friendship requires n >= 1, got n={n}")
        edges = []
        for i in range(n):
            a, b = 2 * i + 1, 2 * i + 2
            edges += [(0, a), (0, b), (a, b)]
        return Graph(2 * n + 1, edges)
    if f == "fan":
        m, n = spec["m"], spec["n"]
        _require(m >= 1, f"fan requires m >= 1, got m={m}")
        _require(n >= 1, f"fan requires n >= 1, got n={n}")
        path = [(m + i, m + i + 1) for i in range(n - 1)]
        join = [(i, m + j) for i in range(m) for j in range(n)]
        return Graph(m + n, path + join)
    if f == "split":
        c = spec["c"]
        _require(c >= 1, f"split requires clique size c >= 1, got c={c}")
        _require(len(spec.adj) >= 1, "split requires at least one independent vertex")
        edges = list(combinations(range(c), 2))
        for j, nbrs in enumerate(spec.adj):
            _require(
                len(nbrs) >= 1,
                f"split independent vertex {j} has an empty neighbor list",
            )
            for u in nbrs:
                _require(
                    0 <= u < c,
                    f"split neighbor {u} of independent vertex {j} is outside the clique 0..{c - 1}",
                )
                edges.append((u, c + j))
        return Graph(c + len(spec.adj), edges)
    if f == "ksplit":
        c, s = spec["c"], spec["s"]
        _require(c >= 1, f"ksplit requires clique size c >= 1, got c={c}")
        _require(s >= 1, f"ksplit requires independent-set size s >= 1, got s={s}")
        edges = list(combinations(range(c), 2))
        edges += [(i, c + j) for i in range(c) for j in range(s)]
        return Graph(c + s, edges)
    if f in ("sun", "csun"):
        n = spec["n"]
        _require(n >= 3, f"{f} requires n >= 3, got n={n}")
        hub = _cycle_edges(n) if f == "sun" else list(combinations(range(n), 2))
        rays = []
        for j in range(n):
            rays += [(j, n + j), ((j + 1) % n, n + j)]
        return Graph(2 * n, hub + rays)
    if f == "sunlet":
        n = spec["n"]
        _require(n >= 3, f"sunlet requires n >= 3, got n={n}")
        return Graph(2 * n, _cycle_edges(n) + [(i, n + i) for i in range(n)])
    raise FamilyParameterError(f"unknown family {f!r}")


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def family_grid(
    family: str,
    param_ranges: Mapping[str, Sequence[int]],
    r_range: Sequence[int],
) -> list[tuple[FamilySpec, int]]:
    """All (spec, r) cells in deterministic lexicographic order.

    ``param_ranges`` maps each of the family's parameter names to a nonempty
    range; ``r_range`` is the nonempty sequence of power exponents.  Parameter
    bound violations surface through ``generate``'s validation at spec
    construction by probing the first cell.
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
        generate(spec)  # validate bounds eagerly
        cells.extend((spec, r) for r in rs)
    return cells
