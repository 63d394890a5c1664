"""Strong integer additive set-indexers, graph powers, and nourishing numbers.

A library and CLI for sumset/difference-set algebra on finite integer sets,
named graph-family generation, exact graph powers and clique numbers,
constructive strong set-indexer labelings with verification, and reconciliation
of closed-form nourishing-number formulas against an exact clique oracle.
"""

from __future__ import annotations

from nourishing.setalg import (
    IntSet,
    difference_set,
    is_strong_pair,
    make_difference_chain,
    sumset,
)
from nourishing.graphcore import Graph, all_pairs_distance, clique_number, diameter, power
from nourishing.families import FamilySpec, generate
from nourishing.iasi import (
    Labeling,
    VerificationReport,
    construct_strong_iasi,
    induced_edge_labels,
    verify_strong_iasi,
)
from nourishing.nourish import (
    NourishingRecord,
    family_runs,
    formula_kappa,
    reconcile,
)

__version__ = "0.1.0"

__all__ = [
    "IntSet",
    "sumset",
    "difference_set",
    "is_strong_pair",
    "make_difference_chain",
    "Graph",
    "all_pairs_distance",
    "power",
    "diameter",
    "clique_number",
    "FamilySpec",
    "generate",
    "family_runs",
    "Labeling",
    "VerificationReport",
    "construct_strong_iasi",
    "verify_strong_iasi",
    "induced_edge_labels",
    "NourishingRecord",
    "formula_kappa",
    "reconcile",
]
