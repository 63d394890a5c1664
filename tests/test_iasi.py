"""Strong set-indexer construction and verification."""

from __future__ import annotations

import json
import time
from itertools import combinations, count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_sumset
from nourishing import iasi
from nourishing.families import FamilySpec, generate
from nourishing.graphcore import Graph, clique_number, power
from nourishing.iasi import (
    Labeling,
    VerificationReport,
    construct_strong_iasi,
    greedy_coloring,
    induced_edge_labels,
    sidon_sequence,
    verify_strong_iasi,
)
from nourishing.setalg import IntSet, difference_set, sumset


def single_edge() -> Graph:
    return Graph(2, [(0, 1)])


class TestSidonSequence:
    def test_closed_form_is_sidon(self):
        """Brute force up to 200 terms: every sum a_i + a_j with i <= j is
        distinct, the terms strictly increase from 0, and the last lies below
        2p * n for the least prime p >= max(n, 3)."""
        for n in range(201):
            terms = sidon_sequence(n)
            assert len(terms) == n
            sums = [terms[i] + terms[j] for i in range(n) for j in range(i, n)]
            assert len(sums) == len(set(sums)), n
            assert terms[:1] in ([], [0]), n
            assert all(a < b for a, b in zip(terms, terms[1:])), n
            p = next(q for q in count(max(n, 3)) if all(q % d for d in range(2, q)))
            assert terms[-1:] < [2 * p * n], n

    def test_pinned_term(self):
        assert sidon_sequence(1000)[-1] == 2016082

    def test_500_terms_fast(self):
        """The closed form builds 500 terms in well under a millisecond."""
        start = time.perf_counter()
        sidon_sequence(500)
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, elapsed

    def test_1000_terms_fast(self):
        start = time.perf_counter()
        sidon_sequence(1000)
        elapsed = time.perf_counter() - start
        assert elapsed < 3.0, elapsed

    def test_differences_distinct_at_300(self):
        terms = sidon_sequence(300)
        diffs = [b - a for i, a in enumerate(terms) for b in terms[i + 1:]]
        assert len(diffs) == len(set(diffs)) == 300 * 299 // 2

    def test_pairwise_sums_distinct(self):
        terms = sidon_sequence(12)
        sums = [terms[i] + terms[j] for i in range(12) for j in range(i + 1, 12)]
        assert len(sums) == len(set(sums))


class TestGreedyColoring:
    def test_proper(self):
        g = power(generate(FamilySpec.make("cycle", n=9)), 2)
        color = greedy_coloring(g)
        assert all(color[u] != color[v] for u, v in g.edges)

    def test_even_cycle_two_classes(self):
        color = greedy_coloring(generate(FamilySpec.make("cycle", n=8)))
        assert max(color) + 1 == 2


class TestLabeling:
    @pytest.mark.parametrize("labels, size, message", [
        ((IntSet([0, 1, 2]),), 2, 'label of vertex 0 has 3 elements, "s" is 2'),
        ((IntSet([0, 1]), IntSet([4])), 2, 'label of vertex 1 has 1 elements, "s" is 2'),
    ])
    def test_label_of_the_wrong_size_is_rejected_on_construction(self, labels, size, message):
        with pytest.raises(ValueError) as exc:
            Labeling(labels, size)
        assert str(exc.value) == message


class TestInducedEdgeLabels:
    def test_singletons(self):
        lab = Labeling((IntSet([0]), IntSet([5])), 1)
        assert induced_edge_labels(single_edge(), lab) == {(0, 1): IntSet([5])}

    def test_hand_enumerated(self):
        lab = Labeling((IntSet([1, 2]), IntSet([1, 3])), 2)
        assert induced_edge_labels(single_edge(), lab)[(0, 1)] == IntSet([2, 3, 4, 5])

    def test_path_distinct_edge_labels(self):
        g = Graph(3, [(0, 1), (1, 2)])
        lab = Labeling((IntSet([0]), IntSet([1]), IntSet([2])), 1)
        labels = induced_edge_labels(g, lab)
        assert labels == {(0, 1): IntSet([1]), (1, 2): IntSet([3])}

    def test_missing_label(self):
        with pytest.raises(ValueError, match="labeling covers 1 vertices, graph has 3"):
            induced_edge_labels(Graph(3, [(0, 1)]), Labeling((IntSet([0]),), 1))

    def test_each_edge_label_is_one_sumset_call(self, monkeypatch):
        g = power(Graph(6, [(i, (i + 1) % 6) for i in range(6)]), 2)
        lab = construct_strong_iasi(g)
        calls = []
        monkeypatch.setattr(iasi, "sumset", lambda a, b: calls.append((a, b)) or sumset(a, b))
        edge_labels = induced_edge_labels(g, lab)
        assert calls == [(lab.labels[u], lab.labels[v]) for u, v in g.sorted_edges()]
        assert list(edge_labels.values()) == [sumset(a, b) for a, b in calls]


class TestVerifier:
    def test_non_multiplicative_edge(self):
        report = verify_strong_iasi(
            single_edge(), Labeling((IntSet([1, 2]), IntSet([2, 3])), 2)
        )
        assert report.is_iasi
        assert not report.is_strong
        assert ("non-multiplicative-edge", ((0, 1),)) in report.failures

    def test_strong_edge(self):
        report = verify_strong_iasi(
            single_edge(), Labeling((IntSet([0, 1]), IntSet([0, 2])), 2)
        )
        assert report.is_strong and report.is_iasi and not report.failures

    def test_vertex_collision(self):
        report = verify_strong_iasi(
            Graph(2, []), Labeling((IntSet([0, 1]), IntSet([0, 1])), 2)
        )
        assert not report.is_iasi
        assert ("vertex-collision", (0, 1)) in report.failures

    def test_edge_collision(self):
        g = Graph(4, [(0, 1), (2, 3)])
        lab = Labeling((IntSet([0]), IntSet([3]), IntSet([1]), IntSet([2])), 1)
        report = verify_strong_iasi(g, lab)
        assert not report.is_iasi
        kinds = [kind for kind, _ in report.failures]
        assert "edge-collision" in kinds

    def test_report_json_shape(self):
        report = verify_strong_iasi(
            single_edge(), Labeling((IntSet([1, 2]), IntSet([2, 3])), 2)
        )
        data = report.to_json()
        assert data["is_strong"] is False
        assert data["failures"][0]["kind"] == "non-multiplicative-edge"


class TestReportVerdicts:
    """Both verdicts are read off the failure list, the report's only field."""

    def test_failures_is_the_only_field(self):
        assert VerificationReport._fields == ("failures",)
        assert isinstance(VerificationReport.is_iasi, property)
        assert isinstance(VerificationReport.is_strong, property)

    @pytest.mark.parametrize(
        "failures, is_iasi, is_strong",
        [
            ((), True, True),
            ((("non-multiplicative-edge", ((0, 1),)),), True, False),
            ((("non-multiplicative-edge", ((0, 1),)), ("non-multiplicative-edge", ((1, 2),))),
             True, False),
            ((("vertex-collision", (0, 2)),), False, False),
            ((("edge-collision", ((0, 1), (2, 3))),), False, False),
            ((("edge-collision", ((0, 1), (2, 3))), ("non-multiplicative-edge", ((0, 1),))),
             False, False),
        ],
    )
    def test_verdicts_from_failure_tuples(self, failures, is_iasi, is_strong):
        report = VerificationReport(failures)
        assert (report.is_iasi, report.is_strong) == (is_iasi, is_strong)
        assert report.to_json()["is_iasi"] is is_iasi
        assert report.to_json()["is_strong"] is is_strong

    def test_json_bytes(self):
        report = VerificationReport(
            (("vertex-collision", (0, 2)), ("edge-collision", ((0, 1), (1, 2))),
             ("non-multiplicative-edge", ((0, 1),)))
        )
        assert json.dumps(report.to_json()) == (
            '{"is_iasi": false, "is_strong": false, "failures": ['
            '{"kind": "vertex-collision", "witness": [0, 2]}, '
            '{"kind": "edge-collision", "witness": [[0, 1], [1, 2]]}, '
            '{"kind": "non-multiplicative-edge", "witness": [[0, 1]]}]}'
        )

    def test_failure_order_is_vertex_edge_then_strong(self):
        # vertices 0 and 2 share a label, so edges 0-1 and 1-2 share a sumset,
        # and both sumsets are short
        g = Graph(3, [(0, 1), (1, 2)])
        lab = Labeling((IntSet([1, 2]), IntSet([2, 3]), IntSet([1, 2])), 2)
        assert verify_strong_iasi(g, lab).failures == (
            ("vertex-collision", (0, 2)),
            ("edge-collision", ((0, 1), (1, 2))),
            ("non-multiplicative-edge", ((0, 1),)),
            ("non-multiplicative-edge", ((1, 2),)),
        )


class TestConstructor:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_k3_strong(self, s):
        g = generate(FamilySpec.make("complete", n=3))
        lab = construct_strong_iasi(g, s)
        assert verify_strong_iasi(g, lab).is_strong
        if s >= 2:
            diffs = [difference_set(a) for a in lab.labels]
            assert not (diffs[0] & diffs[1] or diffs[0] & diffs[2] or diffs[1] & diffs[2])

    def test_single_vertex(self):
        g = Graph(1, [])
        lab = construct_strong_iasi(g, 1)
        assert verify_strong_iasi(g, lab).is_strong
        assert len(lab.labels[0]) == 1

    def test_even_cycle_uses_two_classes(self):
        g = generate(FamilySpec.make("cycle", n=4))
        lab = construct_strong_iasi(g, 2)
        assert verify_strong_iasi(g, lab).is_strong
        assert lab.chain_length == 2

    @pytest.mark.parametrize(
        "family,kwargs",
        [("helm", {"n": 5}), ("friendship", {"n": 3}), ("sunlet", {"n": 6})],
    )
    @pytest.mark.parametrize("r", [1, 2])
    def test_family_powers_strong(self, family, kwargs, r):
        g = power(generate(FamilySpec.make(family, **kwargs)), r)
        lab = construct_strong_iasi(g, 2)
        assert verify_strong_iasi(g, lab).is_strong

    def test_chain_length_bounds(self):
        g = power(generate(FamilySpec.make("wheel", n=5)), 1)
        lab = construct_strong_iasi(g, 2)
        maxdeg = max(g.degree(v) for v in range(g.n))
        assert clique_number(g) <= lab.chain_length <= 1 + maxdeg

    def test_labels_json_round_trip(self):
        g = generate(FamilySpec.make("cycle", n=5))
        lab = construct_strong_iasi(g, 3)
        back = Labeling.from_json(lab.to_json())
        assert back.labels == lab.labels
        assert back.label_size == 3


class TestTranslationLemma:
    def test_translation_preserves_multiplicativity_only(self):
        g = generate(FamilySpec.make("cycle", n=5))
        lab = construct_strong_iasi(g, 2)
        # translating one label keeps every per-edge multiplicativity check
        shifted = list(lab.labels)
        shifted[2] = shifted[2].translate(17)
        report = verify_strong_iasi(g, Labeling(tuple(shifted), 2))
        assert all(kind != "non-multiplicative-edge" for kind, _ in report.failures)

    def test_translation_collision_detected(self):
        # translation keeps edges multiplicative but can break injectivity;
        # the verifier must flag exactly the collision
        path = Graph(3, [(0, 1), (1, 2)])
        strong = Labeling((IntSet([0, 1]), IntSet([0, 2]), IntSet([10, 11])), 2)
        assert verify_strong_iasi(path, strong).is_strong
        collided = Labeling(
            (strong.labels[0].translate(10), strong.labels[1], strong.labels[2]), 2
        )  # vertex 0 now duplicates vertex 2
        report = verify_strong_iasi(path, collided)
        assert not report.is_iasi
        assert ("vertex-collision", (0, 2)) in report.failures
        assert all(kind != "non-multiplicative-edge" for kind, _ in report.failures)


def slow_failures(g: Graph, lab: Labeling) -> tuple[tuple[str, tuple], ...]:
    """The verifier's failure list written from the definitions: each later vertex
    or edge whose label an earlier one has, paired with the earliest such one,
    then each edge whose sumset has fewer than |f(u)|*|f(v)| elements."""
    n = len(lab.labels)
    edges = [(u, v) for u in range(n) for v in sorted(g.neighbors(u)) if u < v]
    sums = [{x + y for x in lab.labels[u] for y in lab.labels[v]} for u, v in edges]

    def first_equal(labels: list) -> list[tuple[int, int]]:
        """(i, j) for each j whose label an earlier index has, i the earliest such."""
        pairs = []
        for j, b in enumerate(labels):
            earlier = [i for i in range(j) if labels[i] == b]
            if earlier:
                pairs.append((earlier[0], j))
        return pairs

    vertex = [("vertex-collision", pair) for pair in first_equal([set(a) for a in lab.labels])]
    edge = [("edge-collision", (edges[i], edges[j])) for i, j in first_equal(sums)]
    short = [("non-multiplicative-edge", ((u, v),)) for (u, v), c in zip(edges, sums)
             if len(c) != len(lab.labels[u]) * len(lab.labels[v])]
    return tuple(vertex + edge + short)


@st.composite
def labelled_graphs(draw) -> tuple[Graph, Labeling]:
    """A graph on at most 8 vertices and a size-s labeling, some labels copied
    from another vertex and some rebuilt to share a difference with a neighbour."""
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    s = draw(st.integers(1, 3))
    elements = st.lists(st.integers(0, 30), min_size=s, max_size=s, unique=True)
    labels = [IntSet(draw(elements)) for _ in range(n)]
    for v in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        labels[v] = labels[draw(st.integers(0, n - 1))]
    if s > 1 and edges:
        for u, v in draw(st.lists(st.sampled_from(edges), max_size=3)):
            # {a, a + d} shares u's difference d; the rest lies above every drawn element
            d = labels[u][1] - labels[u][0]
            a = draw(st.integers(0, 30))
            rest = draw(st.lists(st.integers(61, 90), min_size=s - 2, max_size=s - 2, unique=True))
            labels[v] = IntSet([a, a + d, *rest])
    return Graph(n, edges), Labeling(tuple(labels), s)


@settings(max_examples=300, deadline=None)
@given(labelled_graphs())
def test_verifier_matches_slow_oracle(drawn):
    g, lab = drawn
    assert verify_strong_iasi(g, lab).failures == slow_failures(g, lab)
    edge_labels = induced_edge_labels(g, lab)
    assert list(edge_labels) == g.sorted_edges()
    for (u, v), label in edge_labels.items():
        expected = IntSet(brute_force_sumset(lab.labels[u], lab.labels[v]))
        assert label == expected and hash(label) == hash(expected)


@st.composite
def graphs_and_sizes(draw) -> tuple[Graph, int]:
    """Any graph on at most 30 vertices, and a label size from 1 to 4."""
    n = draw(st.integers(1, 30))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges), draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(graphs_and_sizes())
@example((power(generate(FamilySpec.make("sun", n=5)), 2), 1))  # edge sums collide at a narrower offset unit
def test_constructor_is_strong_by_slow_oracle(drawn):
    """The constructor's labelings pass the definitions, not only the verifier."""
    g, s = drawn
    assert slow_failures(g, construct_strong_iasi(g, s)) == ()
