"""Self-checks of the benchmark's own arithmetic and oracles.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import pytest

import oracle
import stats
import tracing

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def test_tail_leaves_exactly_ten_samples_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    assert stats.tail(samples) == (90.0, 90.0, 10)
    assert stats.tail(samples[:40]) == (90.0, 75.0, 10)
    value, percentile, beyond = stats.tail([5.0, 1.0, 9.0, 3.0] * 6)
    assert (value, beyond) == (5.0, 10) and percentile == pytest.approx(100 * 14 / 24)


def test_tail_with_too_few_samples_falls_back_to_the_median():
    assert stats.tail([3.0, 1.0, 2.0]) == (2.0, 100 * 2 / 3, 1)
    assert stats.tail([float(x) for x in range(20)]) == (9.0, 50.0, 10)


def span(sid, start, end, parent, tid):
    return (sid, f"s{sid}", start, end, parent, tid, None)


def test_self_time_with_children_overlapping_on_two_threads():
    # Parent on thread 1 spans [0, 10]; children on threads 2 and 3 overlap
    # in [3, 5]; a grandchild under the first child spans [2, 4].
    spans = [span(0, 0, 10, None, 1), span(1, 1, 5, 0, 2), span(2, 3, 8, 0, 3), span(3, 2, 4, 1, 2)]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10 - (8 - 1))  # duration minus the union of its children
    assert own[1] == pytest.approx(1 + 0.5)  # alone in [1, 2], shares [4, 5]
    assert own[3] == pytest.approx(1 + 0.5)  # alone in [2, 3], shares [3, 4]
    assert own[2] == pytest.approx(0.5 + 0.5 + 3)
    assert sum(own.values()) == pytest.approx(10)


def test_traced_thread_pool_cells_hang_under_reconcile_and_add_up():
    from nourishing import cli

    tracer = tracing.Tracer()
    os.environ["NOURISH_THREADS"] = "2"
    tracer.install()
    try:
        root = tracer.open_root()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["reconcile", "--family", "cycle", "--n", "3..12", "--r", "1..3"]) == 0
        tracer.close_root(root)
    finally:
        tracer.remove()
        del os.environ["NOURISH_THREADS"]
    spans = tracer.take()
    by_id = {s[0]: s for s in spans}
    (reconcile,) = [s for s in spans if s[1] == "nourish.reconcile"]
    cells = [s for s in spans if s[1] == "nourish.reconcile_cell"]
    assert len(cells) == 30
    assert all(by_id[c[4]] is reconcile for c in cells)
    assert {c[5] for c in cells} - {reconcile[5]}, "cells ran on worker threads"
    own = tracing.self_times(spans)
    op = by_id[root]
    assert sum(own.values()) == pytest.approx(op[3] - op[2], rel=1e-9)
    assert cli.main is not None and not hasattr(cli.main, "__wrapped__")


def test_install_reaches_calls_inside_the_library():
    from nourishing import graphcore, iasi

    tracer = tracing.Tracer()
    tracer.install()
    try:
        g = graphcore.power(graphcore.Graph(6, [(i, (i + 1) % 6) for i in range(6)]), 2)
        iasi.verify_strong_iasi(g, iasi.construct_strong_iasi(g, 2))
    finally:
        tracer.remove()
    names = {s[1] for s in tracer.take()}
    assert {"graphcore.all_pairs_distance", "iasi.sidon_sequence",
            "iasi.induced_edge_labels", "setalg.sumset"} <= names
    assert not hasattr(iasi.induced_edge_labels, "__wrapped__")


def test_outcome_classification():
    assert stats.classify(0, 0, None, None) == stats.OK
    assert stats.classify(1, 1, None, None) == stats.OK
    assert stats.classify(0, 1, None, None) == stats.WRONG_EXIT
    assert stats.classify(0, 0, None, "bad witness") == stats.WRONG_OUTPUT
    assert stats.classify(2, None, KeyError("n"), None) == "exception:KeyError"
    assert stats.classify(0, 0, TypeError(), "ignored") == "exception:TypeError"
    outcomes = ["ok", "ok", "wrong-exit", "exception:KeyError", "exception:TypeError", "exception:KeyError"]
    counts = stats.outcome_counts(outcomes)
    assert counts == {"ok": 2, "wrong-output": 0, "wrong-exit": 1, "exception": 3,
                      "exception:KeyError": 2, "exception:TypeError": 1}
    assert stats.error_rate(outcomes) == pytest.approx(4 / 6)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    import run
    from workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: u for n, (u, _, _) in run.PER_LAYER.items()}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}


def test_closed_forms_match_exact_search():
    cases = [("kmn", {"m": m, "n": n}, r) for m in (1, 3) for n in (1, 2, 5) for r in (1, 2, 3)]
    cases += [("helm", {"n": n}, r) for n in (5, 6, 9) for r in (1, 2, 3, 4)]
    cases += [("cycle", {"n": n}, r) for n in (5, 8, 13) for r in (1, 2, 3, 6)]
    cases += [("friendship", {"n": n}, r) for n in (1, 4) for r in (1, 2, 3)]
    cases += [("sunlet", {"n": n}, r) for n in (9, 12, 15) for r in (1, 2, 3)]
    for family, params, r in cases:
        power = oracle.power_graph(oracle.family_graph(family, params), r)
        assert oracle.expected_omega(family, params, r) == oracle.max_clique_size(power), (family, params, r)


def test_reference_oracle_column_is_exact():
    with open(HERE / "reference" / "default_grid.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    for family, params, r, _formula, omega, _status in rows[::7]:
        p, adj = oracle.parse_params(params)
        power = oracle.power_graph(oracle.family_graph(family, p, adj), int(r))
        assert oracle.max_clique_size(power) == int(omega), (family, params, r)


def test_label_check_catches_shared_differences_and_collisions():
    path3 = oracle.power_graph(oracle.family_graph("path", {"m": 2}), 1)
    assert oracle.labeling_error(path3, [[0, 1], [10, 13], [30, 31]], 2) is None
    assert "share a difference" in oracle.labeling_error(path3, [[0, 1], [10, 11], [30, 35]], 2)
    assert "share a label" in oracle.labeling_error(path3, [[0, 1], [10, 13], [0, 1]], 2)


def test_verification_outcome_counts_each_kind():
    edges = [[0, 1], [1, 2]]
    assert oracle.verification_outcome(3, edges, [[0, 1], [10, 13], [30, 31]]) == (0, {})
    code, kinds = oracle.verification_outcome(3, edges, [[0, 1], [10, 13], [0, 1]])
    assert code == 1 and kinds == {"vertex-collision": 1, "edge-collision": 1}
    code, kinds = oracle.verification_outcome(3, edges, [[0, 1], [10, 11], [30, 33]])
    assert code == 1 and kinds == {"non-multiplicative-edge": 1}
