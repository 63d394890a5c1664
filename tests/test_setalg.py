"""Integer-set algebra: sumsets, difference sets, strong pairs, chains."""

from __future__ import annotations

import json
import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_difference_set, brute_force_sumset
from nourishing.setalg import (
    IntSet,
    difference_set,
    is_strong_pair,
    make_difference_chain,
    sumset,
)

int_sets = st.builds(IntSet, st.sets(st.integers(0, 30), min_size=1, max_size=5))


class TestIntSet:
    def test_canonical_order_and_dedup(self):
        assert IntSet([3, 1, 1, 2]) == (1, 2, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntSet([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IntSet([-1, 2])

    def test_immutable_and_hashable(self):
        a = IntSet([1, 2])
        with pytest.raises(TypeError):
            a[0] = 5
        assert a == IntSet([2, 1])
        assert len({a, IntSet([1, 2])}) == 1

    def test_json_round_trip(self):
        a = IntSet([0, 4, 7])
        assert IntSet.from_json(a.to_json()) == a

    def test_json_dumps_as_list(self):
        assert json.dumps(IntSet([2, 0])) == "[0, 2]"

    def test_elements_read_only_sorted_tuple(self):
        a = IntSet([5, 1, 3])
        assert a == (1, 3, 5)
        assert isinstance(a, tuple)
        with pytest.raises(TypeError):
            a[0] = 1
        with pytest.raises(AttributeError):
            a.other = 1

    def test_pickle_round_trip(self):
        a = IntSet([0, 4, 7])
        b = pickle.loads(pickle.dumps(a))
        assert type(b) is IntSet and b == a

    def test_docstring_separates_sumset_from_concatenation(self):
        assert "sumset(a, b)" in IntSet.__doc__ and "a + b" in IntSet.__doc__
        assert IntSet([0, 1]) + IntSet([0, 2]) == (0, 1, 0, 2)

    def test_translate(self):
        assert IntSet([0, 2]).translate(5) == IntSet([5, 7])
        with pytest.raises(ValueError):
            IntSet([1, 2]).translate(-3)


class TestSumset:
    def test_identity_singleton(self):
        assert sumset(IntSet([0]), IntSet([5, 7])) == IntSet([5, 7])

    def test_hand_enumerated(self):
        assert sumset(IntSet([1, 2]), IntSet([1, 3])) == IntSet([2, 3, 4, 5])

    def test_collision_shrinks(self):
        # 1+3 = 2+2 collapses the four pairwise sums to three
        assert sumset(IntSet([1, 2]), IntSet([2, 3])) == IntSet([3, 4, 5])

    @given(int_sets, int_sets)
    def test_matches_brute_force_and_commutes(self, a, b):
        assert set(sumset(a, b)) == brute_force_sumset(a, b)
        assert sumset(a, b) == sumset(b, a)

    @given(int_sets, int_sets)
    def test_plain_tuple_equal_to_and_hashing_like_its_intset(self, a, b):
        result, expected = sumset(a, b), IntSet(brute_force_sumset(a, b))
        assert type(result) is tuple
        assert result == expected and hash(result) == hash(expected)

    @given(int_sets, int_sets)
    def test_cardinality_bounds(self, a, b):
        k = len(sumset(a, b))
        assert max(len(a), len(b)) <= k <= len(a) * len(b)


class TestDifferenceSet:
    def test_singleton_empty(self):
        assert difference_set(IntSet([7])) == frozenset()

    def test_hand_enumerated(self):
        assert difference_set(IntSet([0, 1, 3])) == {1, 2, 3}

    def test_repeated_difference_deduplicates(self):
        assert difference_set(IntSet([0, 2, 4])) == {2, 4}

    @given(int_sets)
    def test_matches_brute_force(self, a):
        assert set(difference_set(a)) == brute_force_difference_set(a)

    @given(int_sets, st.integers(0, 50))
    def test_translation_invariance(self, a, t):
        assert difference_set(a.translate(t)) == difference_set(a)

    @given(int_sets)
    def test_zero_never_member(self, a):
        assert 0 not in difference_set(a)


class TestStrongPair:
    def test_examples(self):
        assert is_strong_pair(IntSet([1, 2]), IntSet([1, 3]))
        assert not is_strong_pair(IntSet([1, 2]), IntSet([2, 3]))

    @given(int_sets)
    def test_singleton_always_strong(self, b):
        assert is_strong_pair(IntSet([9]), b)

    @given(int_sets, int_sets)
    def test_equivalent_to_disjoint_difference_sets(self, a, b):
        disjoint = not (difference_set(a) & difference_set(b))
        assert is_strong_pair(a, b) == disjoint

    def test_equivalence_exhaustive_small(self):
        universe = list(range(6))
        sets = [
            IntSet(c)
            for size in (1, 2, 3)
            for c in combinations(universe, size)
        ]
        for a in sets:
            for b in sets:
                disjoint = not (difference_set(a) & difference_set(b))
                assert is_strong_pair(a, b) == disjoint


class TestDifferenceChain:
    def test_pairwise_disjoint_small(self):
        chain = make_difference_chain(3, 2)
        assert len(chain) == 3
        assert all(len(a) == 2 for a in chain)
        diffs = [difference_set(a) for a in chain]
        for i, j in combinations(range(3), 2):
            assert not (diffs[i] & diffs[j])

    def test_singletons(self):
        chain = make_difference_chain(5, 1)
        assert len(set(chain)) == 5
        assert all(len(a) == 1 for a in chain)

    @pytest.mark.parametrize("k,s", [(1, 1), (4, 3), (6, 2), (3, 5), (10, 4)])
    def test_pairwise_strong(self, k, s):
        chain = make_difference_chain(k, s)
        assert len(set(chain)) == k
        assert all(len(a) == s for a in chain)
        for a, b in combinations(chain, 2):
            assert is_strong_pair(a, b)

    def test_deterministic(self):
        assert make_difference_chain(4, 3) == make_difference_chain(4, 3)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_difference_chain(0, 2)
        with pytest.raises(ValueError):
            make_difference_chain(2, 0)
