"""Closed-form nourishing numbers and their reconciliation with the clique oracle.

The nourishing number of a graph equals the order of a maximum clique, so the
oracle is exact clique search on the powered graph (``graphcore.power_cliques``);
the brute force that checks it lives in ``tests/conftest.py``.  The formula
side is each family's published value from ``families.FAMILIES``, transcribed
verbatim; the reconciliation engine's whole point is surfacing formula/oracle
disagreements, not patching them.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import product
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from nourishing.families import FAMILIES, FAMILY_PARAMS, FamilySpec, generate
from nourishing.graphcore import diameter, power_cliques

Run = tuple[FamilySpec, Optional[Sequence[int]]]  # None: 1 to the diameter+1 of the spec's graph


class NourishingRecord(NamedTuple):
    """One reconciliation cell: formula value vs exact clique value.

    ``oracle`` and ``status`` are read off ``witness`` and ``formula``, so a
    record cannot contradict itself.  A record is the tuple ``(spec, r,
    formula, witness)``.
    """

    spec: FamilySpec
    r: int
    formula: int
    witness: tuple[int, ...]

    @property
    def oracle(self) -> int:
        return len(self.witness)

    @property
    def status(self) -> str:
        return "agree" if self.formula == self.oracle else "disagree"

    def csv_row(self) -> list[str]:
        fields = (self.r, self.formula, self.oracle, self.status, " ".join(map(str, self.witness)))
        return [self.spec.family, self.spec.params_str(), *map(str, fields)]

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "r": self.r,
            "formula": self.formula,
            "oracle": self.oracle,
            "witness": list(self.witness),
            "status": self.status,
        }


def formula_kappa(spec: FamilySpec, r: int) -> int:
    """The published piecewise value for the r-th power of ``spec``'s graph."""
    if r < 1:
        raise ValueError(f"power exponent must be >= 1, got {r}")
    return FAMILIES[spec.family].kappa(r, **spec.arguments())


def reconcile(runs: Iterable[Run]) -> list[NourishingRecord]:
    """One record per exponent, in run order: the formula and one maximum clique of G^r.

    A run is one spec with a sequence of exponents, or ``None`` for 1 to the
    diameter+1 of the graph built here.  Given exponents get their formulas
    first, so one below 1 is rejected before any graph is built.
    """
    records = []
    for spec, rs in runs:
        formulas = None if rs is None else [formula_kappa(spec, r) for r in rs]
        g = generate(spec)
        if rs is None:
            rs = range(1, int(diameter(g)) + 2)
            formulas = [formula_kappa(spec, r) for r in rs]
        witnesses = power_cliques(g, rs)
        records.extend(NourishingRecord(spec, r, f, w) for r, f, w in zip(rs, formulas, witnesses))
    return records


CSV_HEADER = ["family", "params", "r", "formula", "oracle", "status", "witness"]


def records_to_csv(records: Sequence[NourishingRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow(rec.csv_row())
    return buf.getvalue()


def records_to_json(records: Sequence[NourishingRecord]) -> str:
    return json.dumps([rec.to_json() for rec in records], indent=2) + "\n"


def family_runs(
    family: str,
    ranges: Mapping[str, Sequence[int]],
    r_range: Optional[Sequence[int]] = None,
    adj: Sequence[Sequence[int]] = (),
) -> list[Run]:
    """One run ``(spec, r_range)`` per spec of a family over parameter ranges, in lexicographic order.

    ``ranges`` maps each of the family's parameters, and no other name, to
    its values, and every spec takes ``adj`` (split's neighbor lists);
    ``FamilySpec`` validates each spec as it is built.  No graph is built, so
    ``r_range=None`` leaves the exponents to ``reconcile`` (1 to diameter+1).
    """
    FamilySpec.check_params(family, ranges, lambda name: f"parameter {name!r}")
    names = tuple(FAMILY_PARAMS.get(family, ()))  # FamilySpec names an unknown family
    return [
        (FamilySpec.make(family, adj=adj, **dict(zip(names, values))), r_range)
        for values in product(*(ranges[name] for name in names))
    ]


def split_probe_specs() -> list[FamilySpec]:
    """Small deterministic split specs probing the split-formula clauses.

    Shapes per clique size: every independent vertex on one clique vertex
    (maximal sharing), a dominating independent vertex, and an independent
    vertex adjacent to several but not all clique vertices.
    """
    return [
        FamilySpec.make("split", c=1, adj=[(0,)]),
        FamilySpec.make("split", c=1, adj=[(0,), (0,)]),
        FamilySpec.make("split", c=2, adj=[(0,), (0,)]),
        FamilySpec.make("split", c=2, adj=[(0, 1), (0,)]),
        FamilySpec.make("split", c=3, adj=[(0,), (1,)]),
        FamilySpec.make("split", c=3, adj=[(0, 1, 2), (0,), (1,)]),
        FamilySpec.make("split", c=3, adj=[(0, 1), (1, 2), (0,)]),
        FamilySpec.make("split", c=4, adj=[(0, 1), (0, 1), (2,)]),
    ]


def default_grid() -> list[Run]:
    """The full default reconciliation grid; it builds no graph.

    Parameters run from each family's minimum up to 10 and every run's
    exponents are ``None`` (1 to diameter+1 in ``reconcile``), which covers
    every piecewise branch of every formula; split uses the fixed probe
    specs, after every other family.
    """
    runs = [run for family, bounds in FAMILY_PARAMS.items() if family != "split"
            for run in family_runs(family, {k: range(lo, 11) for k, lo in bounds.items()})]
    return runs + [(spec, None) for spec in split_probe_specs()]


def acceptance_grid() -> list[Run]:
    """The grid behind the checked-in golden table: families whose published
    formulas are believed exact, every parameter from the published tables."""
    runs: list[Run] = []
    for family, ranges in (
        ("path", {"m": range(1, 11)}),
        ("cycle", {"n": range(3, 13)}),
        ("complete", {"n": range(1, 9)}),
        ("kmn", {"m": range(1, 7), "n": range(1, 7)}),
        ("friendship", {"n": range(1, 6)}),
        ("fan", {"m": range(1, 5), "n": range(2, 7)}),
    ):
        runs.extend(family_runs(family, ranges))
    return runs


def audit_grid() -> list[Run]:
    """Known-divergence probes: wheel at n=3, r=1 and helms cubed."""
    helms = [(FamilySpec.make("helm", n=n), (3,)) for n in range(4, 9)]
    return [(FamilySpec.make("wheel", n=3), (1,)), *helms]
