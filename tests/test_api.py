"""The package's public names."""

from __future__ import annotations

import nourishing

PUBLIC = {
    "IntSet", "sumset", "difference_set", "is_strong_pair", "make_difference_chain",
    "Graph", "all_pairs_distance", "power", "diameter", "clique_number",
    "FamilySpec", "generate", "family_runs",
    "Labeling", "VerificationReport", "construct_strong_iasi", "verify_strong_iasi",
    "induced_edge_labels",
    "NourishingRecord", "formula_kappa", "reconcile",
}


def test_every_public_name_resolves():
    assert set(nourishing.__all__) == PUBLIC
    for name in nourishing.__all__:
        assert getattr(nourishing, name) is not None, name
