"""The named graph families: one record per family in ``FAMILIES``.

A record holds the family's parameter minimums, its builder and its
published nourishing-number formula.  Each builder follows a fixed
vertex-numbering contract, written beside its record, so tests and formulas
can point at specific vertices.  The formulas are transcribed verbatim, with
no corrections applied even where a value is suspected wrong.

Split-graph variable naming: the clique order is ``c`` (the literature
overloads r for both clique order and power exponent), the exponent stays
``r``, the independent vertices are the entries of ``adj``, and ``s`` is
their number.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

from nourishing.graphcore import Graph


class FamilyParameterError(ValueError):
    """A family parameter violates its bound; the message names the bound."""


class _FamilySpecFields(NamedTuple):
    family: str
    params: tuple[tuple[str, int], ...]
    adj: tuple[tuple[int, ...], ...] = ()


class FamilySpec(_FamilySpecFields):
    """A named graph family plus its parameters, validated on construction.

    Every parameter must be an ``int`` (not a bool) that reaches its minimum
    in ``FAMILY_PARAMS``.  For ``split``, ``adj`` holds one nonempty tuple of
    clique-vertex indices 0..c-1 per independent vertex, and there is at
    least one (isolated independent vertices are rejected, not silently
    dropped).  A spec that
    exists is therefore one ``generate`` can build; a violation raises
    FamilyParameterError naming the bound.

    A spec is the tuple ``(family, params, adj)``.  The check runs in
    ``__new__``, so every way to build one runs it: the constructor,
    ``make``, ``_make`` (which ``_replace`` calls), copy and pickle.
    """

    __slots__ = ()

    def __new__(
        cls,
        family: str,
        params: tuple[tuple[str, int], ...],
        adj: tuple[tuple[int, ...], ...] = (),
    ) -> "FamilySpec":
        self = super().__new__(cls, family, params, adj)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable: Iterable) -> "FamilySpec":
        """A spec from an iterable of its fields, checked (``_replace`` builds through this)."""
        return cls(*iterable)

    def _check(self) -> None:
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
            if type(v) is not int:
                raise FamilyParameterError(f"{self.family} requires an integer {k}, got {k}={v!r}")
            if v < bounds[k]:
                raise FamilyParameterError(f"{self.family} requires {k} >= {bounds[k]}, got {k}={v}")
        if self.family != "split":
            if self.adj:
                raise FamilyParameterError("adjacency lists are only valid for split")
            return
        if not self.adj:
            raise FamilyParameterError("split requires at least one independent vertex")
        c = self.param("c")
        for j, nbrs in enumerate(self.adj):
            if not nbrs:
                raise FamilyParameterError(f"split independent vertex {j} has an empty neighbor list")
            for u in nbrs:
                if type(u) is not int or not 0 <= u < c:
                    raise FamilyParameterError(
                        f"split neighbor {u!r} of independent vertex {j}"
                        f" is outside the clique 0..{c - 1}"
                    )

    @classmethod
    def make(
        cls,
        family: str,
        adj: Sequence[Sequence[int]] = (),
        **params: int,
    ) -> "FamilySpec":
        """A spec from keyword parameters, put in canonical order; a name the
        family does not take stays in, after the others, so validation names it."""
        order = tuple(FAMILY_PARAMS.get(family, ()))
        order += tuple(sorted(k for k in params if k not in order))
        try:
            lists = tuple(tuple(a) for a in adj)
        except TypeError:
            message = f"split adj must be a list of neighbor lists, got {adj!r}"
            raise FamilyParameterError(message) from None
        return cls(family, tuple((k, params[k]) for k in order if k in params), lists)

    @staticmethod
    def check_params(family: str, given: Collection[str], spell: Callable[[str], str]) -> None:
        """Raise FamilyParameterError naming, as ``spell(name)``, the first parameter ``given``
        lacks, else the first given name ``family`` does not take; an unknown family passes."""
        wanted = FAMILY_PARAMS.get(family, given)
        missing = [f"requires {spell(k)}" for k in wanted if k not in given]
        stray = [f"takes no {spell(k)}" for k in given if k not in wanted]
        if missing or stray:
            raise FamilyParameterError(f"{family} {(missing + stray)[0]}")

    def param(self, name: str) -> int:
        """The value of parameter ``name``; KeyError if the family takes no such parameter."""
        return dict(self.params)[name]

    def arguments(self) -> dict:
        """The parameters by name, plus ``adj`` for split: what the family's
        ``build`` and ``kappa`` take."""
        return dict(self.params, adj=self.adj) if self.family == "split" else dict(self.params)

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


class Family(NamedTuple):
    """One graph family.

    ``bounds`` maps its parameters, in canonical order, to their minimums.
    ``build`` and ``kappa`` take the parameters by name (and split's ``adj``):
    ``build(**params)`` returns ``(n, edges)`` and ``kappa(r, **params)`` is
    the published nourishing number of the r-th power.
    """

    bounds: Mapping[str, int]
    build: Callable[..., tuple[int, list[tuple[int, int]]]]
    kappa: Callable[..., int]


def _cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def _clique_edges(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def _join_edges(a: int, b: int) -> list[tuple[int, int]]:
    """Every vertex of 0..a-1 joined to every vertex of a..a+b-1."""
    return [(i, a + j) for i in range(a) for j in range(b)]


def _helm(n: int) -> tuple[int, list[tuple[int, int]]]:
    rim = [(i, i % n + 1) for i in range(1, n + 1)]
    spokes = [(0, i) for i in range(1, n + 1)]
    pendants = [(i, n + i) for i in range(1, n + 1)]
    return 2 * n + 1, rim + spokes + pendants


def _friendship(n: int) -> tuple[int, list[tuple[int, int]]]:
    edges = []
    for i in range(n):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return 2 * n + 1, edges


def _fan(m: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    path = [(m + i, m + i + 1) for i in range(n - 1)]
    return m + n, path + _join_edges(m, n)


def _split(c: int, adj: Sequence[Sequence[int]]) -> tuple[int, list[tuple[int, int]]]:
    rays = [(u, c + j) for j, nbrs in enumerate(adj) for u in nbrs]
    return c + len(adj), _clique_edges(c) + rays


def _sun(n: int, hub: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    rays = []
    for j in range(n):
        rays += [(j, n + j), ((j + 1) % n, n + j)]
    return 2 * n, hub + rays


def _split_kappa(r: int, c: int, adj: Sequence[Sequence[int]]) -> int:
    s = len(adj)
    if r == 1:
        dominating = any(len(set(nbrs)) == c for nbrs in adj)
        return c + 1 if dominating else c
    if r == 2:
        shared = [0] * c
        for nbrs in adj:
            for u in set(nbrs):
                shared[u] += 1
        return c + max(shared)
    return c + s


def _sun_kappa(r: int, n: int) -> int:
    half = n // 2
    if r < half:
        return 2 * r + 1
    if r == half:
        return 2 * (n - 1) if n % 2 else 2 * n - 1
    return 2 * n


def _sunlet_kappa(r: int, n: int) -> int:
    half = n // 2
    if r < half + 1:
        return 2 * r
    if r == half + 1:
        return 2 * (n - 1) if n % 2 else 2 * n - 1
    return 2 * n


FAMILIES: Mapping[str, Family] = {
    # path(m) is the path of *length* m: vertices 0..m in path order
    "path": Family(
        {"m": 1},
        lambda m: (m + 1, [(i, i + 1) for i in range(m)]),
        lambda r, m: r + 1 if r < m else m + 1,
    ),
    # vertices 0..n-1 in cycle order
    "cycle": Family(
        {"n": 3},
        lambda n: (n, _cycle_edges(n)),
        lambda r, n: r + 1 if r < n // 2 else n,
    ),
    # all pairs of 0..n-1
    "complete": Family(
        {"n": 1},
        lambda n: (n, _clique_edges(n)),
        lambda r, n: n,
    ),
    # part A = 0..m-1, part B = m..m+n-1
    "kmn": Family(
        {"m": 1, "n": 1},
        lambda m, n: (m + n, _join_edges(m, n)),
        lambda r, m, n: 2 if r == 1 else m + n,
    ),
    # rim cycle 0..n-1, hub = n (last)
    "wheel": Family(
        {"n": 3},
        lambda n: (n + 1, _cycle_edges(n) + [(i, n) for i in range(n)]),
        lambda r, n: 3 if r == 1 else n + 1,
    ),
    # hub = 0, rim cycle 1..n, pendant n+i attached to rim vertex i
    "helm": Family(
        {"n": 3},
        _helm,
        lambda r, n: {1: 3, 2: n + 1, 3: n + 4}.get(r, 2 * n + 1),
    ),
    # center = 0, triangle i uses vertices 2i+1, 2i+2
    "friendship": Family(
        {"n": 1},
        _friendship,
        lambda r, n: 3 if r == 1 else 2 * n + 1,
    ),
    # the m independent vertices first (0..m-1), path m..m+n-1
    "fan": Family(
        {"m": 1, "n": 1},
        _fan,
        lambda r, m, n: 3 if r == 1 else m + n,
    ),
    # clique 0..c-1, independent vertex c+j adjacent to the clique vertices adj[j]
    "split": Family(
        {"c": 1},
        _split,
        _split_kappa,
    ),
    # clique 0..c-1, independent set c..c+s-1, fully joined to the clique
    "ksplit": Family(
        {"c": 1, "s": 1},
        lambda c, s: (c + s, _clique_edges(c) + _join_edges(c, s)),
        lambda r, c, s: c + 1 if r == 1 else c + s,
    ),
    # hub cycle U = 0..n-1, independent W = n..2n-1, vertex n+j adjacent to j and (j+1) mod n
    "sun": Family(
        {"n": 3},
        lambda n: _sun(n, _cycle_edges(n)),
        _sun_kappa,
    ),
    # as sun, with the hub U = 0..n-1 complete
    "csun": Family(
        {"n": 3},
        lambda n: _sun(n, _clique_edges(n)),
        lambda r, n: {1: n, 2: n + 1}.get(r, 2 * n),
    ),
    # cycle 0..n-1, pendant n+i attached to cycle vertex i
    "sunlet": Family(
        {"n": 3},
        lambda n: (2 * n, _cycle_edges(n) + [(i, n + i) for i in range(n)]),
        _sunlet_kappa,
    ),
}
FAMILY_PARAMS: Mapping[str, Mapping[str, int]] = {f: rec.bounds for f, rec in FAMILIES.items()}
FAMILY_NAMES = tuple(FAMILIES)


def generate(spec: FamilySpec) -> Graph:
    """Build the canonical graph for ``spec``.

    The spec was validated when it was built, so every spec has a graph.
    """
    return Graph(*FAMILIES[spec.family].build(**spec.arguments()))

