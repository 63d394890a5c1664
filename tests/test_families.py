"""Family generators: counts, numbering contracts, validation, grids."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nourishing.families import (
    FAMILY_NAMES,
    FAMILY_PARAMS,
    FamilyParameterError,
    FamilySpec,
    generate,
)
from nourishing.graphcore import INF, clique_number, diameter
from nourishing.nourish import family_runs, reconcile


class TestCounts:
    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_helm(self, n):
        g = generate(FamilySpec.make("helm", n=n))
        assert g.n == 2 * n + 1
        assert len(g.edges) == 3 * n

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_friendship(self, n):
        g = generate(FamilySpec.make("friendship", n=n))
        assert g.n == 2 * n + 1
        assert len(g.edges) == 3 * n

    def test_wheel3_is_k4(self):
        g = generate(FamilySpec.make("wheel", n=3))
        assert g.n == 4
        assert len(g.edges) == 6

    def test_path_has_length_plus_one_vertices(self):
        g = generate(FamilySpec.make("path", m=4))
        assert g.n == 5
        assert len(g.edges) == 4

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_sunlet(self, n):
        g = generate(FamilySpec.make("sunlet", n=n))
        assert g.n == 2 * n
        assert len(g.edges) == 2 * n


class TestNumberingContracts:
    def test_wheel_hub_last(self):
        n = 5
        g = generate(FamilySpec.make("wheel", n=n))
        assert g.degree(n) == n

    def test_helm_layout(self):
        n = 4
        g = generate(FamilySpec.make("helm", n=n))
        assert g.degree(0) == n  # hub
        for i in range(1, n + 1):
            assert n + i in g.neighbors(i)  # pendant n+i on rim vertex i
            assert g.degree(n + i) == 1

    def test_friendship_center(self):
        g = generate(FamilySpec.make("friendship", n=3))
        assert g.degree(0) == 6

    def test_fan_independent_part_first(self):
        g = generate(FamilySpec.make("fan", m=2, n=3))
        assert 1 not in g.neighbors(0)  # independent part
        assert 3 in g.neighbors(2) and 4 in g.neighbors(3)  # path
        for i in (0, 1):
            for j in (2, 3, 4):
                assert j in g.neighbors(i)

    def test_complete_split_layout(self):
        g = generate(FamilySpec.make("ksplit", c=3, s=2))
        for u, v in combinations(range(3), 2):
            assert v in g.neighbors(u)
        for j in (3, 4):
            assert all(j in g.neighbors(i) for i in range(3))
        assert 4 not in g.neighbors(3)

    @pytest.mark.parametrize("family", ["sun", "csun"])
    def test_sun_rays(self, family):
        n = 5
        g = generate(FamilySpec.make(family, n=n))
        for j in range(n):
            assert g.neighbors(n + j) == {j, (j + 1) % n}
        # W is independent with degree exactly 2
        for i, j in combinations(range(n, 2 * n), 2):
            assert j not in g.neighbors(i)

    def test_csun_hub_complete(self):
        g = generate(FamilySpec.make("csun", n=4))
        for u, v in combinations(range(4), 2):
            assert v in g.neighbors(u)


class TestSplit:
    def test_dominating_vertex_raises_clique(self):
        spec = FamilySpec.make("split", c=3, adj=[(0, 1, 2), (0,)])
        assert clique_number(generate(spec)) == 4

    def test_no_dominating_vertex(self):
        spec = FamilySpec.make("split", c=3, adj=[(0, 1), (2,)])
        assert clique_number(generate(spec)) == 3

    def test_rejects_empty_neighbor_list(self):
        with pytest.raises(FamilyParameterError, match="empty neighbor list"):
            generate(FamilySpec.make("split", c=2, adj=[(0,), ()]))

    def test_rejects_out_of_clique_neighbor(self):
        with pytest.raises(FamilyParameterError, match="outside the clique"):
            generate(FamilySpec.make("split", c=2, adj=[(2,)]))


class TestValidation:
    @pytest.mark.parametrize(
        "family,params",
        [
            ("cycle", {"n": 2}),
            ("path", {"m": 0}),
            ("wheel", {"n": 2}),
            ("helm", {"n": 0}),
            ("friendship", {"n": 0}),
            ("fan", {"m": 0, "n": 1}),
            ("kmn", {"m": 1, "n": 0}),
            ("sun", {"n": 2}),
            ("sunlet", {"n": 2}),
            ("ksplit", {"c": 0, "s": 1}),
            ("complete", {"n": 0}),
            ("csun", {"n": 2}),
            ("kmn", {"m": 0, "n": 1}),
            ("fan", {"m": 1, "n": 0}),
            ("ksplit", {"c": 1, "s": 0}),
            ("split", {"c": 0, "adj": [(0,)]}),
        ],
    )
    def test_out_of_range_names_bound(self, family, params):
        with pytest.raises(FamilyParameterError, match="requires"):
            generate(FamilySpec.make(family, **params))

    @pytest.mark.parametrize("m", [2.5, "3", True])
    def test_non_integer_parameter_names_it(self, m):
        with pytest.raises(FamilyParameterError, match="requires an integer m"):
            FamilySpec.make("path", m=m)

    @pytest.mark.parametrize("u", [0.5, "0", True])
    def test_non_integer_split_neighbor_rejected(self, u):
        with pytest.raises(FamilyParameterError, match="outside the clique"):
            FamilySpec.make("split", c=2, adj=[[u]])

    def test_unknown_family(self):
        with pytest.raises(FamilyParameterError):
            FamilySpec.make("torus", n=3)

    def test_extra_parameter_named(self):
        with pytest.raises(FamilyParameterError, match="got \\('m', 'x'\\)"):
            FamilySpec.make("path", m=2, x=1)
        with pytest.raises(FamilyParameterError, match="got \\('x', 'y'\\)"):
            FamilySpec.make("path", y=1, x=2)

    @pytest.mark.parametrize("adj", [5, [1]])
    def test_malformed_adj_names_problem(self, adj):
        with pytest.raises(FamilyParameterError, match="adj must be a list"):
            FamilySpec.make("split", c=2, adj=adj)


@st.composite
def near_bound_params(draw) -> tuple[str, dict]:
    """A family with every parameter in [minimum - 3, minimum + 4]; split also
    gets 0-3 neighbor lists, possibly empty, with entries in -1..c."""
    family = draw(st.sampled_from(FAMILY_NAMES))
    params = {k: draw(st.integers(lo - 3, lo + 4)) for k, lo in FAMILY_PARAMS[family].items()}
    if family == "split":
        entries = st.integers(-1, max(params["c"], -1))
        params["adj"] = draw(st.lists(st.lists(entries, max_size=3), max_size=3))
    return family, params


@settings(max_examples=300, deadline=None)
@given(near_bound_params())
def test_spec_that_exists_is_valid(drawn):
    family, params = drawn
    try:
        spec = FamilySpec.make(family, **params)
    except FamilyParameterError:
        return
    generate(spec)
    reconcile([(spec, (1, 2, 3))])


class TestGlobalInvariants:
    def small_specs(self):
        for family in FAMILY_NAMES:
            if family == "split":
                yield FamilySpec.make("split", c=2, adj=[(0,), (0, 1)])
            elif family in ("kmn", "fan"):
                yield FamilySpec.make(family, m=2, n=3)
            elif family == "ksplit":
                yield FamilySpec.make("ksplit", c=3, s=2)
            elif family == "path":
                yield FamilySpec.make("path", m=4)
            else:
                yield FamilySpec.make(family, n=4)

    def test_all_connected_and_simple(self):
        for spec in self.small_specs():
            g = generate(spec)
            assert diameter(g) != INF, spec
            assert all(u != v for u, v in g.edges)

    def test_deterministic(self):
        for spec in self.small_specs():
            assert generate(spec).sorted_edges() == generate(spec).sorted_edges()


class TestGrid:
    def test_cartesian_order(self):
        runs = family_runs("cycle", {"n": range(3, 6)}, range(1, 3))
        assert [(s.param("n"), list(rs)) for s, rs in runs] == [(n, [1, 2]) for n in (3, 4, 5)]

    def test_default_exponents_run_to_diameter_plus_one(self):
        """``family_runs`` leaves the exponents to ``reconcile``, which reads them off each graph."""
        runs = family_runs("cycle", {"n": range(3, 7)})
        assert [(s.param("n"), rs) for s, rs in runs] == [(n, None) for n in range(3, 7)]
        by_n: dict[int, list[int]] = {}
        for rec in reconcile(runs):
            by_n.setdefault(rec.spec.param("n"), []).append(rec.r)
        assert list(by_n.items()) == [(3, [1, 2]), (4, [1, 2, 3]), (5, [1, 2, 3]), (6, [1, 2, 3, 4])]

    def test_single_param_cell_count(self):
        assert [len(rs) for _, rs in family_runs("helm", {"n": range(3, 4)}, range(1, 5))] == [4]

    def test_two_axis_lexicographic(self):
        runs = family_runs("kmn", {"m": range(1, 3), "n": range(1, 3)}, [1])
        assert [(s.param("m"), s.param("n")) for s, _ in runs] == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_split_specs_carry_adj(self):
        specs = [spec for spec, _ in family_runs("split", {"c": range(1, 4)}, [1], [[0], [0]])]
        assert [spec.param("c") for spec in specs] == [1, 2, 3]
        assert all(spec.adj == ((0,), (0,)) for spec in specs)

    @pytest.mark.parametrize(
        "family, adj, message",
        [("cycle", [(0,)], "only valid for split"), ("split", [], "at least one"),
         ("torus", [], "unknown family")],
    )
    def test_specs_validated(self, family, adj, message):
        ranges = {name: range(lo, lo + 2) for name, lo in FAMILY_PARAMS.get(family, {}).items()}
        with pytest.raises(FamilyParameterError, match=message):
            family_runs(family, ranges, [1], adj)

    @pytest.mark.parametrize(
        "family, ranges, message",
        [("kmn", {"m": range(1, 3)}, "kmn requires parameter 'n'"),
         ("cycle", {"n": range(3, 5), "x": range(1, 3)}, "cycle takes no parameter 'x'"),
         ("kmn", {"m": range(0), "n": range(1, 3), "s": range(0)}, "kmn takes no parameter 's'")],
    )
    def test_ranges_must_name_exactly_the_parameters(self, family, ranges, message):
        with pytest.raises(FamilyParameterError, match=message):
            family_runs(family, ranges, [1])
