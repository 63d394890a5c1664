"""Construct and verify strong integer additive set-indexers.

A labeling assigns each vertex a finite set of non-negative integers; the
induced edge label is the sumset of the endpoint labels.  The labeling is an
IASI when both the vertex map and the induced edge map are injective, and
strong when every edge sumset has maximal cardinality |f(u)|*|f(v)|, which is
equivalent to adjacent labels having disjoint difference sets.

The constructor works in three deterministic steps:

1. greedily properly color the graph in descending-degree order (k classes);
2. build k base sets of size s with pairwise disjoint difference sets;
3. give vertex v the base set of its class translated by M*a_v, where a_v is
   the v-th term of the Erdos-Turan Sidon set a_k = 2pk + (k^2 mod p) for the
   least odd prime p >= n (see ``sidon_sequence``), and M exceeds twice the
   largest base element.  Each a_v is below 2p*n, so labels grow as O(n^2).

Distinct translates keep vertices injective; Sidon offsets place every edge
sumset in its own disjoint window, so edge labels are injective; translation
leaves difference sets untouched, so adjacent vertices (different classes)
keep disjoint difference sets.  No retry loop is ever needed.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from nourishing.graphcore import Graph
from nourishing.setalg import IntSet, _primes_above, make_difference_chain, sumset


class _LabelingFields(NamedTuple):
    labels: tuple[IntSet, ...]
    label_size: int
    chain_length: int = 0


class Labeling(_LabelingFields):
    """A total vertex -> IntSet map: ``labels[v]`` is vertex v's label.

    ``label_size`` is the common cardinality used by the constructor.
    ``chain_length`` is the number of base sets (color classes) the
    constructor used, i.e. the length of its difference chain; 0 for
    labelings not produced by the constructor.

    A labeling is the tuple ``(labels, label_size, chain_length)``.  The
    check that every label has ``label_size`` elements runs in ``__new__``, so
    every way to build one runs it: the constructor, ``from_json``, ``_make``
    (which ``_replace`` calls), copy and pickle.
    """

    __slots__ = ()

    def __new__(cls, labels: tuple[IntSet, ...], label_size: int, chain_length: int = 0) -> "Labeling":
        if label_size < 1:
            raise ValueError(f"label size must be >= 1, got {label_size}")
        for v, a in enumerate(labels):
            if len(a) != label_size:
                raise ValueError(f'label of vertex {v} has {len(a)} elements, "s" is {label_size}')
        return super().__new__(cls, labels, label_size, chain_length)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Labeling":
        """A labeling from an iterable of its fields, checked (``_replace`` builds through this)."""
        return cls(*iterable)

    def check_covers(self, n: int) -> None:
        """Raise ValueError unless there is one label per vertex of an n-vertex graph."""
        if len(self.labels) != n:
            raise ValueError(f"labeling covers {len(self.labels)} vertices, graph has {n}")

    def to_json(self) -> dict:
        return {"s": self.label_size, "labels": [a.to_json() for a in self.labels]}

    @classmethod
    def from_json(cls, data: object) -> "Labeling":
        """Parse ``{"s": int, "labels": [[...], ...]}``; ValueError says what is malformed."""
        s = data.get("s") if isinstance(data, dict) else None
        if type(s) is not int:
            raise ValueError(f'labeling JSON must be an object with an integer "s", got "s": {s!r}')
        try:
            labels = tuple(_label_from_json(v, a) for v, a in enumerate(data["labels"]))
        except (KeyError, TypeError):
            raise ValueError('labeling JSON "labels" must be a list of integer lists') from None
        return cls(labels, s)


def _label_from_json(v: int, data: object) -> IntSet:
    try:
        return IntSet.from_json(data)
    except ValueError as exc:  # an empty label, a negative or a repeated element
        raise ValueError(f"label of vertex {v}: {exc}") from None


class VerificationReport(NamedTuple):
    """Outcome of checking a labeling, with every violation enumerated.

    Failure kinds: ``vertex-collision`` (two vertices share a label),
    ``edge-collision`` (two edges share a sumset), and
    ``non-multiplicative-edge`` (an edge sumset smaller than |f(u)|*|f(v)|).
    Witnesses name the offending vertices or edges, deterministically ordered.
    Both verdicts are read off the failures, so they cannot contradict them.
    A report is the one-item tuple ``(failures,)``.
    """

    failures: tuple[tuple[str, tuple], ...]

    @property
    def is_iasi(self) -> bool:
        """Vertex and edge maps injective: no collision failure."""
        return not any(kind in ("vertex-collision", "edge-collision") for kind, _ in self.failures)

    @property
    def is_strong(self) -> bool:
        """An IASI whose every edge sumset is maximal: no failure at all."""
        return not self.failures

    def to_json(self) -> dict:
        failures = [{"kind": kind, "witness": witness} for kind, witness in self.failures]
        return {"is_iasi": self.is_iasi, "is_strong": self.is_strong, "failures": failures}


def greedy_coloring(g: Graph) -> list[int]:
    """Proper coloring; vertices processed in descending degree, index tiebreak."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    color = [-1] * g.n
    for v in order:
        taken = {color[w] for w in g.neighbors(v) if color[w] >= 0}
        c = 0
        while c in taken:
            c += 1
        color[v] = c
    return color


def sidon_sequence(count: int) -> list[int]:
    """First ``count`` terms of the Erdos-Turan Sidon set a_k = 2pk + (k^2 mod p).

    p is the least prime >= max(count, 3), so p is odd and every index is
    below p.  The terms start at 0, strictly increase (consecutive terms
    differ by more than 2p - p) and stay below 2p * count.  All pairwise
    sums a_i + a_j (i <= j) are distinct:

    take two pairs with a_i + a_j = a_k + a_l.  Each residue is below p, so
    the quotient by 2p gives i + j = k + l.  The residues then give
    i^2 + j^2 = k^2 + l^2 mod p, so (i - j)^2 = 2(i^2 + j^2) - (i + j)^2 and
    (k - l)^2 agree mod p, and p being prime, i - j = +-(k - l) mod p.  p is
    odd and every index is below p, so {i, j} = {k, l}: i - j and +-(k - l)
    lie in (-p, p) and share the parity of i + j, so they differ by an even
    multiple of p smaller than 2p, which is 0.
    (Erdos & Turan 1941, J. London Math. Soc. 16.)
    """
    p = next(_primes_above(max(count, 3) - 1))
    return [2 * p * k + k * k % p for k in range(count)]


def construct_strong_iasi(g: Graph, s: int = 2) -> Labeling:
    """A deterministic strong set-indexer with all labels of size ``s``."""
    color = greedy_coloring(g)
    k = max(color) + 1
    bases = make_difference_chain(k, s)
    max_base = max(a[-1] for a in bases)
    offset_unit = 1 + 2 * max_base
    offsets = sidon_sequence(g.n)
    labels = tuple(
        bases[color[v]].translate(offset_unit * offsets[v]) for v in range(g.n)
    )
    return Labeling(labels, s, chain_length=k)


def induced_edge_labels(g: Graph, labeling: Labeling) -> dict[tuple[int, int], tuple[int, ...]]:
    """Each edge mapped to ``sumset`` of its endpoint labels."""
    labeling.check_covers(g.n)
    L = labeling.labels
    return {(u, v): sumset(L[u], L[v]) for u, v in g.sorted_edges()}


def _collisions(kind: str, labelled: Iterable[tuple[object, tuple]]) -> list[tuple[str, tuple]]:
    """One ``(kind, (first, later))`` failure per key whose label an earlier key already has."""
    seen: dict[tuple, object] = {}
    return [(kind, (first, key)) for key, lab in labelled
            if (first := seen.setdefault(lab, key)) != key]


def verify_strong_iasi(g: Graph, labeling: Labeling) -> VerificationReport:
    """Check injectivity and the strong (maximal-sumset) condition.

    Every failure is listed: the strong check runs per edge even when
    injectivity already failed.  Every label has ``label_size`` elements, so
    an edge sumset is maximal when it has ``label_size ** 2``.
    """
    edge_labels = induced_edge_labels(g, labeling)
    full = labeling.label_size ** 2
    return VerificationReport((
        *_collisions("vertex-collision", enumerate(labeling.labels)),
        *_collisions("edge-collision", edge_labels.items()),
        *(("non-multiplicative-edge", (e,)) for e, lab in edge_labels.items() if len(lab) != full),
    ))
