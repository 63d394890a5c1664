"""Finite integer-set algebra: sumsets, difference sets, and difference chains.

Sets here are always finite, nonempty sets of non-negative integers.  The
difference set of a set A collects the positive absolute differences of
distinct elements, so a singleton has an empty difference set.  Two sets A, B
satisfy |A+B| = |A|*|B| exactly when their difference sets are disjoint; that
equivalence is the strong-pair criterion everything downstream leans on.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator


class IntSet(tuple):
    """An immutable, canonically sorted, nonempty set of non-negative integers.

    A tuple of its elements in increasing order: ``sumset(a, b)`` is the
    sumset A + B, while ``a + b`` is tuple concatenation.
    """

    __slots__ = ()

    def __new__(cls, elements: Iterable[int]) -> "IntSet":
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("IntSet must be nonempty")
        if elems[0] < 0:
            raise ValueError(f"IntSet elements must be non-negative, got {elems[0]}")
        return super().__new__(cls, elems)

    def __repr__(self) -> str:
        return f"IntSet({{{', '.join(map(str, self))}}})"

    def translate(self, t: int) -> "IntSet":
        """Return the translate A + {t}."""
        return IntSet(x + t for x in self)

    def to_json(self) -> list[int]:
        return list(self)

    @classmethod
    def from_json(cls, data: Iterable[int]) -> "IntSet":
        """Parse a list of distinct integers.

        TypeError if any element is not an int (bools included); ValueError
        naming the first element that repeats an earlier one.
        """
        elems = list(data)
        if not all(type(x) is int for x in elems):
            raise TypeError("IntSet JSON elements must be integers")
        result = cls(elems)
        if len(result) < len(elems):
            repeat = next(x for i, x in enumerate(elems) if x in elems[:i])
            raise ValueError(f"repeated element {repeat}")
        return result


def sumset(a: IntSet, b: IntSet) -> tuple[int, ...]:
    """The sumset A + B = {x + y : x in A, y in B}, as an ascending plain tuple.

    The tuple equals, and hashes like, the ``IntSet`` of the same elements.
    It skips ``IntSet``'s validation: the sum of two ``IntSet``s is already
    nonempty and non-negative.
    """
    return tuple(sorted({x + y for x in a for y in b}))


def difference_set(a: IntSet) -> frozenset[int]:
    """All positive absolute differences of distinct elements of ``a``.

    Empty for singletons.  Zero is never a member: differences are taken over
    distinct element pairs only.
    """
    return frozenset(y - x for x, y in combinations(a, 2))


def is_strong_pair(a: IntSet, b: IntSet) -> bool:
    """True iff |A+B| = |A|*|B|, i.e. the sumset is maximally large.

    Equivalent to difference_set(a) and difference_set(b) being disjoint.
    """
    return len(sumset(a, b)) == len(a) * len(b)


def _primes_above(floor: int) -> Iterator[int]:
    """Yield primes strictly greater than ``floor`` in increasing order."""
    candidate = max(floor, 1) + 1
    while True:
        if candidate >= 2 and all(candidate % d for d in range(2, int(candidate**0.5) + 1)):
            yield candidate
        candidate += 1


def make_difference_chain(k: int, s: int) -> list[IntSet]:
    """Build ``k`` distinct ``s``-element sets with pairwise disjoint difference sets.

    Construction: the i-th set is the arithmetic progression
    {0, p_i, 2*p_i, ..., (s-1)*p_i} where p_i is the i-th prime strictly greater
    than s-1.  A collision k1*p_i = k2*p_j with both multipliers below s <= p_i
    would force p_i | k2, impossible; so the difference sets
    {p_i, 2*p_i, ..., (s-1)*p_i} are pairwise disjoint.  Deterministic in (k, s).

    For s = 1 the progressions would all collapse to {0}; distinct singletons
    {0}, {1}, ..., {k-1} are returned instead (empty difference sets are
    vacuously disjoint).
    """
    if k < 1:
        raise ValueError(f"chain length must be >= 1, got {k}")
    if s < 1:
        raise ValueError(f"set size must be >= 1, got {s}")
    if s == 1:
        return [IntSet([i]) for i in range(k)]
    chain: list[IntSet] = []
    primes = _primes_above(s - 1)
    for _ in range(k):
        p = next(primes)
        chain.append(IntSet(j * p for j in range(s)))
    return chain
