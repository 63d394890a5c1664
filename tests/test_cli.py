"""CLI surface: formats, exit codes, file round-trips."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nourishing import cli, nourish
from nourishing.cli import main
from nourishing.families import FAMILY_PARAMS, FamilyParameterError, FamilySpec, generate

DATA = Path(__file__).parent / "data"
OVERSIZED = "Python int too large to convert to C ssize_t"


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_helm_json(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "helm", "--n", "3")
        assert code == 0
        g = json.loads(out)
        assert g["n"] == 7
        assert len(g["edges"]) == 9

    def test_invalid_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "cycle", "--n", "2")
        assert code == 2
        assert "n >= 3" in err

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "cycle")
        assert code == 2
        assert "--n" in err

    def test_path_dot(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "path", "--m", "1", "--format", "dot")
        assert code == 0
        assert out.startswith("graph G {")
        assert "digraph" not in out
        assert "0 -- 1;" in out


class TestPowerAndOmega:
    def test_power_squares_cycle(self, capsys):
        code, out, _ = run(
            capsys, "power", "--family", "cycle", "--n", "4", "--r", "2"
        )
        assert code == 0
        assert len(json.loads(out)["edges"]) == 6  # K_4

    def test_omega(self, capsys):
        code, out, _ = run(
            capsys, "omega", "--family", "complete", "--n", "6", "--r", "3"
        )
        assert code == 0
        data = json.loads(out)
        assert data["omega"] == 6
        assert data["witness"] == list(range(6))


class TestKappa:
    def test_formula_mode(self, capsys):
        code, out, _ = run(
            capsys, "kappa", "--family", "sunlet", "--n", "5", "--r", "2",
            "--mode", "formula",
        )
        assert code == 0
        assert json.loads(out)["formula"] == 4

    def test_both_mode_disagree(self, capsys):
        code, out, _ = run(
            capsys, "kappa", "--family", "wheel", "--n", "3", "--r", "1",
            "--mode", "both",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["formula"], data["oracle"], data["status"]) == (3, 4, "disagree")

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (("--family", "cycle", "--n", "2", "--r", "1"), "n >= 3"),
            (("--family", "path", "--m", "-3", "--r", "1"), "m >= 1"),
            (("--family", "split", "--c", "2", "--adj", "5", "--r", "2"), "outside the clique"),
        ],
    )
    def test_formula_mode_checks_bounds(self, capsys, argv, bound):
        code, out, err = run(capsys, "kappa", *argv, "--mode", "formula")
        assert (code, out) == (2, "")
        assert bound in err and err.count("\n") == 1

    def test_split_adj_parsing(self, capsys):
        code, out, _ = run(
            capsys, "kappa", "--family", "split", "--c", "2", "--adj", "0,1;1",
            "--r", "1", "--mode", "oracle",
        )
        assert code == 0
        assert json.loads(out)["oracle"] == 3


class TestLabelVerify:
    def test_round_trip_friendship_squared(self, capsys, tmp_path):
        graph_file = tmp_path / "g.json"
        label_file = tmp_path / "l.json"
        code, out, _ = run(
            capsys, "power", "--family", "friendship", "--n", "3", "--r", "2"
        )
        assert code == 0
        graph_file.write_text(out)
        code, out, _ = run(
            capsys, "label", "--family", "friendship", "--n", "3", "--r", "2",
            "--out", str(label_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(label_file)
        )
        assert code == 0
        assert json.loads(out)["is_strong"] is True

    def test_duplicate_label_exits_1(self, capsys, tmp_path):
        graph_file = tmp_path / "g.json"
        label_file = tmp_path / "l.json"
        graph_file.write_text('{"n": 2, "edges": [[0, 1]]}')
        label_file.write_text('{"s": 2, "labels": [[0, 1], [0, 1]]}')
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(label_file)
        )
        assert code == 1
        report = json.loads(out)
        assert any(f["kind"] == "vertex-collision" for f in report["failures"])

    def test_cycle_2000_labels_and_verifies_within_a_second(self, capsys, tmp_path):
        """The closed-form Sidon offsets cost linear time, so labelling C_2000
        stays near the CLI's start-up cost."""
        graph_file = tmp_path / "g.json"
        label_file = tmp_path / "l.json"
        code, out, _ = run(capsys, "gen", "--family", "cycle", "--n", "2000")
        assert code == 0
        graph_file.write_text(out)
        start = time.perf_counter()
        code, _, _ = run(capsys, "label", "--family", "cycle", "--n", "2000", "--out", str(label_file))
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0, elapsed
        code, out, _ = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(label_file)
        )
        assert code == 0
        assert json.loads(out)["is_strong"] is True

    def test_partial_labeling_exits_2(self, capsys, tmp_path):
        graph_file = tmp_path / "g.json"
        label_file = tmp_path / "l.json"
        graph_file.write_text('{"n": 3, "edges": [[0, 1]]}')
        label_file.write_text('{"s": 1, "labels": [[0], [1]]}')
        code, _, err = run(
            capsys, "verify", "--graph", str(graph_file), "--labeling", str(label_file)
        )
        assert code == 2
        assert "covers 2" in err


    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("cycle", "--n", "150", "--r", "1", "--s-label", "2"), "34dfc509db148ec3"),
            (("friendship", "--n", "40", "--r", "2", "--s-label", "3"), "3a36f0981bec6079"),
            (("kmn", "--m", "20", "--n", "30", "--r", "2", "--s-label", "4"), "1e0c6c7c7d8c0de5"),
            # degrees differ, so the greedy colouring's degree order shows in the labels
            (("fan", "--m", "3", "--n", "8", "--r", "1", "--s-label", "2"), "9212bcf1d3c29b53"),
            (("wheel", "--n", "7", "--r", "1", "--s-label", "2"), "72042b63cf51a0e2"),
        ],
    )
    def test_label_output_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "label", "--family", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.fixture(scope="module")
def friendship_150_squared(tmp_path_factory) -> Path:
    """Graph and labelling files of friendship n=150 squared (K_301, 45,150 edges),
    written by the CLI, plus ``bad.json``: the labelling with vertex 1's label
    replaced by vertex 0's."""
    directory = tmp_path_factory.mktemp("friendship_150")
    spec = ("--family", "friendship", "--n", "150", "--r", "2")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["power", *spec]) == 0
    (directory / "g.json").write_text(out.getvalue())
    assert main(["label", *spec, "--out", str(directory / "l.json")]) == 0
    labeling = json.loads((directory / "l.json").read_text())
    labeling["labels"][1] = labeling["labels"][0]
    (directory / "bad.json").write_text(json.dumps(labeling))
    return directory


@pytest.mark.parametrize(
    "labeling, exit_code, digest",
    [
        ("l.json", 0, "3752dfacec6f0e18276956d94b91bdae03f080ae465200f6d60d7eaf5c84a435"),
        ("bad.json", 1, "7d178b85cb12ac36111d33215b9061d17d10ab606e041dbabaddd3f6191b8fa3"),
    ],
    ids=["intact", "duplicated"],
)
def test_verify_dense_output_pinned(capsys, friendship_150_squared, labeling, exit_code, digest):
    code, out, _ = run(capsys, "verify", "--graph", str(friendship_150_squared / "g.json"),
                       "--labeling", str(friendship_150_squared / labeling))
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyMalformedInput:
    LABELING = '{"s": 1, "labels": [[0], [1]]}'

    @pytest.mark.parametrize(
        "graph,message",
        [
            ('{"edges": [[0, 1]]}', '"n"'),
            ('{"n": "2", "edges": [[0, 1]]}', '"n"'),
            ('{"n": 2.0, "edges": [[0, 1]]}', '"n"'),
            ('[2, [[0, 1]]]', "object"),
            ('{"n": 2}', "pairs"),
            ('{"n": 2, "edges": [[0]]}', "pairs"),
            ('{"n": 2, "edges": [[0, 1, 1]]}', "pairs"),
            ('{"n": 2, "edges": [5]}', "pairs"),
            ('{"n": 2, "edges": [["0", 1]]}', "integers"),
            ('{"n": 2, "edges": [[0, 1.0]]}', "integers"),
            ('{"n": 2, "edges": [[0, null]]}', "integers"),
            ('{"n": 2, "edges": [[0, true]]}', "integers"),
            ('{"n": 2, "edges": [[2, 0]]}', "out of range"),
        ],
    )
    def test_bad_graph_exits_2(self, capsys, tmp_path, graph, message):
        (tmp_path / "g.json").write_text(graph)
        (tmp_path / "l.json").write_text(self.LABELING)
        code, out, err = run(
            capsys, "verify", "--graph", str(tmp_path / "g.json"),
            "--labeling", str(tmp_path / "l.json"),
        )
        assert (code, out) == (2, "")
        assert message in err and err.count("\n") == 1

    def test_huge_vertex_count_rejected_before_allocation(self, capsys, tmp_path):
        (tmp_path / "g.json").write_text(json.dumps({"n": 10**12, "edges": []}))
        (tmp_path / "l.json").write_text(self.LABELING)
        code, out, err = run(
            capsys, "verify", "--graph", str(tmp_path / "g.json"),
            "--labeling", str(tmp_path / "l.json"),
        )
        assert (code, out) == (2, "")
        assert err == f"labeling covers 2 vertices, graph has {10**12}\n"

    @pytest.mark.parametrize("nested", ["graph", "labeling"])
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, nested):
        files = {"graph": '{"n": 2, "edges": [[0, 1]]}', "labeling": self.LABELING}
        files[nested] = "[" * 200000
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
        code, out, err = run(
            capsys, "verify", "--graph", str(tmp_path / "graph.json"),
            "--labeling", str(tmp_path / "labeling.json"),
        )
        assert (code, out) == (2, "")
        assert f"{nested}.json" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "labeling,message",
        [
            ('{"labels": [[0], [1]]}', '"s"'),
            ('{"s": "1", "labels": [[0], [1]]}', '"s"'),
            ('{"s": 1}', '"labels"'),
            ('{"s": 1, "labels": 3}', '"labels"'),
            ('{"s": 1, "labels": [[0], ["a"]]}', '"labels"'),
            ('{"s": 1, "labels": [[0], [1, 2]]}', "vertex 1 has 2 elements"),
            ('{"s": 2, "labels": [[0, 1], [2, 2]]}', "label of vertex 1: repeated element 2"),
            ('{"s": 2, "labels": [[1, 1], [2, 3]]}', "label of vertex 0: repeated element 1"),
            ('{"s": 1, "labels": [[0, 0], [1]]}', "label of vertex 0: repeated element 0"),
            ('{"s": 2, "labels": [[0.5, 1], [3, 7.25]]}', '"labels"'),
            ('{"s": 2, "labels": [[true, 3], [4, 9]]}', '"labels"'),
            ('{"s": 0, "labels": [[0, 1], [2, 3]]}', "label size must be >= 1, got 0"),
            ('{"s": -3, "labels": [[0, 1], [2, 3]]}', "label size must be >= 1, got -3"),
            ('{"s": 2, "labels": [[], [5, 9]]}', "label of vertex 0: IntSet must be nonempty"),
            ('{"s": 2, "labels": [[1, 2], [-5, 9]]}',
             "label of vertex 1: IntSet elements must be non-negative, got -5"),
        ],
    )
    def test_bad_labeling_exits_2(self, capsys, tmp_path, labeling, message):
        (tmp_path / "g.json").write_text('{"n": 2, "edges": [[0, 1]]}')
        (tmp_path / "l.json").write_text(labeling)
        code, out, err = run(
            capsys, "verify", "--graph", str(tmp_path / "g.json"),
            "--labeling", str(tmp_path / "l.json"),
        )
        assert (code, out) == (2, "")
        assert message in err and err.count("\n") == 1


class TestReconcile:
    def test_cycle_grid_csv(self, capsys):
        code, out, _ = run(
            capsys, "reconcile", "--family", "cycle", "--n", "3..8", "--r", "1..4",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "family,params,r,formula,oracle,status,witness"
        assert len(lines) == 1 + 6 * 4
        assert all(line.split(",")[5] == "agree" for line in lines[1:])

    def test_disagreement_still_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "reconcile", "--family", "wheel", "--n", "3", "--r", "1",
        )
        assert code == 0
        assert "disagree" in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--n", "5..3"), "empty range '5..3' for --n"),
            (("--n", "5", "--r", "3..1"), "empty range '3..1' for --r"),
            (("--n", "a..b", "--r", "1"), "cannot parse --n 'a..b': invalid literal"),
            (("--n", "3..", "--r", "1"), "cannot parse --n '3..': invalid literal"),
            (("--n", "5", "--r", "x"), "cannot parse --r 'x': invalid literal"),
        ],
    )
    def test_empty_range_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "reconcile", "--family", "cycle", *argv)
        assert (code, out) == (2, "")
        assert message in err and err.count("\n") == 1

    def test_thread_variable_is_ignored(self, capsys, monkeypatch):
        argv = ("reconcile", "--family", "cycle", "--n", "5", "--r", "1..3")
        expected = run(capsys, *argv)
        monkeypatch.setenv("NOURISH_THREADS", "abc")
        assert run(capsys, *argv) == expected
        assert expected[0] == 0

    def test_expect_golden_pass(self, capsys):
        code, _, _ = run(
            capsys, "reconcile", "--grid", "acceptance", "--format", "csv",
            "--expect-golden", str(DATA / "golden_reconcile.csv"),
        )
        assert code == 0

    def test_expect_golden_deviation_exits_1(self, capsys, tmp_path):
        tampered = tmp_path / "golden.csv"
        original = (DATA / "golden_audit.csv").read_text()
        tampered.write_text(original.replace("disagree", "agree"))
        code, _, err = run(
            capsys, "reconcile", "--grid", "audit", "--format", "csv",
            "--expect-golden", str(tampered),
        )
        assert code == 1
        assert "deviates" in err


    @pytest.mark.parametrize(
        "argv, size, digest",
        [
            (("--grid", "default", "--format", "csv"), 53910,
             "bcca0a6f7ed742a35c09f9abdd8701713bece4633c415bbc46b5578af93f858e"),
            (("--grid", "default", "--format", "json"), 345334,
             "2230e1fa638859d4bc8c90e084b8acf7e146fb2312b41ce50fd52a5e90c0eb80"),
            # a family without --r: each spec's exponents run 1..diameter+1
            (("--family", "sun", "--n", "3..12", "--format", "csv"), 2470,
             "e02fd0ab7cb0eb4f9775b6f5e0adf5f134f8a618d9f511ba77834b211758e620"),
        ],
        ids=["default-csv", "default-json", "sun-csv"],
    )
    def test_output_pinned(self, capsys, argv, size, digest):
        code, out, _ = run(capsys, "reconcile", *argv)
        assert code == 0
        assert len(out) == size
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_grid_looked_up_at_call_time(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "audit_grid", lambda: [(FamilySpec.make("cycle", n=3), (1,))])
        code, out, _ = run(capsys, "reconcile", "--grid", "audit")
        assert code == 0
        assert out.splitlines()[1:] == ["cycle,n=3,1,3,3,agree,0 1 2"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--grid", "audit", "--family", "cycle", "--n", "3", "--r", "9"),
             "--grid takes no family flags, got --family --n --r"),
            (("--grid", "default", "--s-size", "2"), "got --s-size"),
            (("--grid", "default", "--adj", "0"), "got --adj"),
            (("--family", "cycle", "--n", "3", "--adj", "0"), "only valid for split"),
            (("--grid", "acceptance", "--format", "json",
              "--expect-golden", str(DATA / "golden_reconcile.csv")), "requires --format csv"),
            (("--grid", "audit", "--expect-golden", str(DATA / "missing.csv")), "missing.csv"),
        ],
    )
    def test_usage_error_prints_nothing_on_stdout(self, capsys, argv, message):
        code, out, err = run(capsys, "reconcile", *argv)
        assert (code, out) == (2, "")
        assert message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, out",
    [
        (("omega", "--family", "sunlet", "--n", "5", "--r", "2"), "omega: 5\nwitness: 0 1 2 3 4\n"),
        (("kappa", "--family", "helm", "--n", "4", "--r", "3", "--mode", "oracle"), "oracle: 7\n"),
        (("kappa", "--family", "helm", "--n", "4", "--r", "3", "--mode", "formula"), "formula: 8\n"),
        (("kappa", "--family", "helm", "--n", "4", "--r", "3", "--mode", "both"),
         "formula: 8\noracle: 7\nstatus: disagree\n"),
        (("reconcile", "--family", "wheel", "--n", "3", "--r", "1"),
         "wheel(n=3) r=1: formula=3 oracle=4 [disagree]\n"),
        (("gen", "--family", "path", "--m", "2"), "vertices: 3\nedges (2): 0-1 1-2\n"),
        (("power", "--family", "path", "--m", "2", "--r", "2"), "vertices: 3\nedges (3): 0-1 0-2 1-2\n"),
    ],
)
def test_table_output_pinned(capsys, argv, out):
    assert run(capsys, *argv, "--format", "table") == (0, out, "")


@pytest.mark.parametrize(
    "argv, out",
    [
        (("omega", "--family", "sunlet", "--n", "5", "--r", "2"),
         '{"omega": 5, "witness": [0, 1, 2, 3, 4]}\n'),
        (("kappa", "--family", "helm", "--n", "4", "--r", "3", "--mode", "both"),
         '{"family": "helm", "params": "n=4", "r": 3, "formula": 8, "oracle": 7, '
         '"witness": [0, 1, 2, 3, 4, 5, 6], "status": "disagree"}\n'),
        (("kappa", "--family", "helm", "--n", "4", "--r", "3", "--mode", "oracle"),
         '{"family": "helm", "params": "n=4", "r": 3, "oracle": 7, "witness": [0, 1, 2, 3, 4, 5, 6]}\n'),
        (("kappa", "--family", "helm", "--n", "4", "--r", "3", "--mode", "formula"),
         '{"family": "helm", "params": "n=4", "r": 3, "formula": 8}\n'),
    ],
)
def test_json_output_pinned(capsys, argv, out):
    assert run(capsys, *argv, "--format", "json") == (0, out, "")


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("reconcile",), "reconcile needs --grid or --family with ranges"),
            (("gen", "--family", "split", "--c", "2", "--adj", "0,a"),
             "cannot parse --adj '0,a': invalid literal for int() with base 10: 'a'"),
            *(((cmd, "--family", "cycle", "--n", "5", "--r", r), f"power exponent must be >= 1, got {r}")
              for cmd in ("omega", "kappa", "reconcile") for r in ("0", "-2")),
            (("reconcile", "--family", "cycle", "--n", "3", "--r", ""),
             "cannot parse --r '': invalid literal for int() with base 10: ''"),
            (("gen", "--family", "cycle", "--n", "4", "--adj", ""),
             "cannot parse --adj '': invalid literal for int() with base 10: ''"),
            *(((cmd, "--family", "cycle", "--n", "5", "--r", r), f"power exponent must be >= 1, got {r}")
              for cmd in ("power", "label") for r in ("0", "-2")),
            # ranges of more than sys.maxsize values, which no loop could cover
            (("reconcile", "--family", "cycle", "--n", "3..99999999999999999999"),
             f"cannot parse --n '3..99999999999999999999': {OVERSIZED}"),
            (("reconcile", "--family", "kmn", "--m", "1..99999999999999999999", "--n", "1"),
             f"cannot parse --m '1..99999999999999999999': {OVERSIZED}"),
            (("reconcile", "--family", "cycle", "--n", "5", "--r", "1..99999999999999999999"),
             f"cannot parse --r '1..99999999999999999999': {OVERSIZED}"),
        ],
    )
    def test_usage_error_message_pinned(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", message + "\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("reconcile", "--grid", "audit", "--format", "csv", "--expect-golden", ""),
            ("label", "--family", "cycle", "--n", "4", "--out", ""),
            ("verify", "--graph", "", "--labeling", "l.json"),
            ("verify", "--graph", "g.json", "--labeling", ""),
        ],
    )
    def test_empty_file_name_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        """An empty file name is a given one: no file, so a usage error that names it, never '.'."""
        monkeypatch.chdir(tmp_path)
        Path("g.json").write_text('{"n": 2, "edges": [[0, 1]]}')
        Path("l.json").write_text('{"s": 1, "labels": [[0], [1]]}')
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "[Errno 2] No such file or directory: ''\n"

    def test_nonpositive_r_builds_no_graph(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(nourish, "generate", lambda spec: built.append(spec) or generate(spec))
        argv = ("omega", "--family", "complete", "--n", "1000", "--r", "0")
        assert run(capsys, *argv) == (2, "", "power exponent must be >= 1, got 0\n")
        assert built == []

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_nonpositive_label_size_builds_no_graph(self, capsys, monkeypatch, size):
        built = []
        monkeypatch.setattr(cli, "generate", lambda spec: built.append(spec) or generate(spec))
        argv = ("label", "--family", "cycle", "--n", "2500", "--r", "2", "--s-label", size)
        assert run(capsys, *argv) == (2, "", f"--s-label must be >= 1, got {size}\n")
        assert built == []

    @pytest.mark.parametrize("command", ["power", "label"])
    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_nonpositive_r_of_power_and_label_builds_no_graph(self, capsys, monkeypatch, command, r):
        built = []
        monkeypatch.setattr(cli, "generate", lambda spec: built.append(spec) or generate(spec))
        argv = (command, "--family", "ksplit", "--c", "1100", "--s-size", "2", "--r", r)
        assert run(capsys, *argv) == (2, "", f"power exponent must be >= 1, got {r}\n")
        assert built == []

    @pytest.mark.parametrize(
        "module, argv",
        [
            (cli, ("label", "--family", "cycle", "--n", "3", "--s-label", "100000000")),
            (nourish, ("reconcile", "--family", "cycle", "--n", "3..5")),
        ],
    )
    def test_out_of_memory_exits_2_with_one_line(self, capsys, monkeypatch, module, argv):
        """Only the generate that the command calls raises; nothing is allocated for real."""
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(module, "generate", exhausted)
        assert run(capsys, *argv) == (2, "", "out of memory\n")

    def test_missing_parser_args(self, capsys):
        assert run(capsys, "gen") == (2, "", "nourish gen: the following arguments are required: --family\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "nourish: the following arguments are required: command"),
            (("gen", "--n", "3"), "nourish gen: the following arguments are required: --family"),
            (("gen", "--family", "cycle", "--n", "x"), "nourish gen: argument --n: invalid int value: 'x'"),
            (("reconcile", "--grid", "nope"), "nourish reconcile: argument --grid: invalid choice: 'nope'"),
            (("gen", "--family", "cycle", "--n", "3", "--bogus"), "nourish: unrecognized arguments: --bogus"),
        ],
    )
    def test_argparse_error_is_one_stderr_line(self, capsys, argv, message):
        """Argparse's own errors take main's exit: 2, nothing on stdout, one line on stderr."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(message) and err.count("\n") == 1 and err.endswith("\n")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--help"])
        assert exc.value.code == 0
        assert "--family" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("gen", "--family", "cycle", "--n", "5", "--m", "3"), "cycle takes no --m"),
            (("label", "--family", "kmn", "--m", "2", "--n", "3", "--c", "2"), "kmn takes no --c"),
            (("reconcile", "--family", "cycle", "--n", "3..5", "--s-size", "2", "--r", "1"),
             "cycle takes no --s-size"),
        ],
    )
    def test_flag_the_family_does_not_take_exits_2(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", message + "\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "--family", "split", "--c", "1"),
            ("reconcile", "--family", "split", "--c", "1..2", "--r", "1"),
        ],
    )
    def test_split_without_adjacency_gets_one_message(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", "split requires at least one independent vertex\n")

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @pytest.mark.parametrize(
        "names", [c for k in range(5) for c in itertools.combinations("mncs", k)],
        ids=lambda names: "".join(names) or "none",
    )
    def test_cli_and_family_runs_reject_the_same_parameter(self, capsys, family, names):
        """``gen`` given these flags and ``family_runs`` given these ranges name the same
        parameter with the same verb; only the spelling differs (--s-size, parameter 's')."""
        flag = {"m": "--m", "n": "--n", "c": "--c", "s": "--s-size"}
        _, _, err = run(capsys, "gen", "--family", family, *(a for k in names for a in (flag[k], "3")))
        try:
            nourish.family_runs(family, {name: range(3, 4) for name in names}, [1])
            library = ""
        except FamilyParameterError as exc:
            library = re.sub(r"parameter '(\w)'", lambda m: flag[m[1]], str(exc)) + "\n"
        assert err == library


class TestDispatch:
    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        argv = ("gen", "--family", "cycle", "--n", "3")
        expected = run(capsys, *argv)
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__",
            lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw),
        )
        assert run(capsys, *argv) == expected
        assert built == []

    def test_handler_looked_up_at_call_time(self, capsys, monkeypatch):
        run(capsys, "gen", "--family", "cycle", "--n", "3")  # the parser exists before the patch
        seen = []
        monkeypatch.setattr(cli, "cmd_gen", lambda args: seen.append(args.n) or 0)
        assert run(capsys, "gen", "--family", "cycle", "--n", "4") == (0, "", "")
        assert seen == [4]


@pytest.mark.parametrize(
    "argv",
    [
        ("reconcile", "--grid", "default", "--format", "json"),
        ("label", "--family", "friendship", "--n", "10", "--r", "2", "--s-label", "3"),
    ],
)
def test_stdout_is_the_same_under_two_hash_seeds(argv):
    """Separate processes, so set iteration order really differs between the runs."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    program = "from nourishing.cli import main; raise SystemExit(main())"
    outputs = []
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-c", program, *argv], env=env, capture_output=True, check=True
        )
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
