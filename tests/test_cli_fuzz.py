"""Fuzzed CLI input: whatever the argv or the verify files, ``main`` ends in exit 0, 1 or 2.

Any exception escaping ``main`` is a crash, argparse's ``SystemExit``
included.  A returned 2 prints one stderr line and nothing on stdout, and the
same input twice prints the same stdout.  No value exceeds 12, so every drawn
input is small.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nourishing.cli import GRIDS, main
from nourishing.families import FAMILY_NAMES, FAMILY_PARAMS

DATA = Path(__file__).parent / "data"
COMMANDS = ("gen", "power", "omega", "kappa", "label", "verify", "reconcile")
FLAGS = ("--m", "--n", "--c", "--s-size", "--r", "--adj", "--format", "--mode", "--s-label", "--grid")
VALUES = ("", "0", "1", "2", "3", "-1", "12", "x", "1..3", "3..1", "0,1;1", ";")
CHOICES = {
    "--format": ("json", "dot", "table", "csv"),
    "--mode": ("formula", "oracle", "both"),
    "--grid": GRIDS,
}
# where --out and --expect-golden point, each under the test's tmp_path
TARGETS = ("file", "missing-dir/file", ".")

C5_GRAPH = {"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}
C5_LABELING = {"s": 2, "labels": [[11, 13], [22, 25], [44, 46], [88, 91], [143, 148]]}
JUNK = (None, True, False, 0, -1, 1.5, float("nan"), float("inf"), 10**30, -(10**30),
        "", "x", "5", [], [[]], [[[0]]], {}, {"n": 5})

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def outcome(capsys, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run."""
    capsys.readouterr()
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def check_exits_cleanly(capsys, argv: list[str]) -> int:
    code, out, err = outcome(capsys, argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "", argv
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    assert outcome(capsys, argv)[1] == out, argv
    return code


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand, maybe a family (or an unknown one), and 0-4 flags with small values.

    Each of the family's own parameters and ``--r`` is drawn with odds of three
    in four, and values the flag accepts are drawn more often, so that many
    argvs get past argparse.
    ``--out`` and ``--expect-golden`` carry a target name that the test
    resolves under its tmp_path.
    """
    argv = [draw(st.sampled_from(COMMANDS))]
    family = draw(st.sampled_from((*FAMILY_NAMES, "nosuch", None)))
    if family is not None:
        argv += ["--family", family]
    own = [f"--{'s-size' if p == 's' else p}" for p in FAMILY_PARAMS.get(family, ())] + ["--r"]
    flags = [flag for flag in own if draw(st.integers(0, 3))]
    others = [flag for flag in FLAGS if flag not in flags]
    flags += draw(st.lists(st.sampled_from(others), max_size=4 - len(flags), unique=True))
    for flag in flags:
        accepted = CHOICES.get(flag, ("1", "2", "3", "12", "1..3"))
        argv += [flag, draw(st.sampled_from(accepted * 3 + VALUES + CHOICES.get(flag, ())))]
    file_flag = {"label": "--out", "reconcile": "--expect-golden"}.get(argv[0])
    if file_flag and draw(st.booleans()):
        argv += [file_flag, draw(st.sampled_from(TARGETS))]
    return argv


@FUZZ
@given(argvs())
def test_fuzzed_argv_exits_0_1_or_2(capsys, tmp_path, argv):
    golden = tmp_path / "file"
    if not golden.exists():
        golden.write_text((DATA / "golden_audit.csv").read_text())
    argv = [str(tmp_path / word) if flag in ("--out", "--expect-golden") else word
            for flag, word in zip(["", *argv], argv)]
    check_exits_cleanly(capsys, argv)


def _paths(value, prefix: tuple = ()):
    """The path to every node of a JSON value, the root first."""
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


@st.composite
def mutated(draw, value) -> str:
    """JSON text of ``value`` after 1-3 mutations: a node dropped, renamed,
    replaced by junk, a small integer or a copy of a sibling, nested in a list
    or truncated, or the text itself cut short."""
    holder = [copy.deepcopy(value)]  # gives the root a parent, so it can be replaced too
    for _ in range(draw(st.integers(1, 3))):
        *where, key = draw(st.sampled_from(list(_paths(holder))[:0:-1]))  # leaves first, no holder
        parent = holder
        for step in where:
            parent = parent[step]
        node = parent[key]
        action = draw(st.sampled_from(("number", "copy", "drop", "rename", "junk", "nest", "truncate")))
        if action == "drop":
            del parent[key]
        elif action == "rename" and isinstance(parent, dict):
            parent[draw(st.sampled_from(("", "N", "S", "label", "edge")))] = parent.pop(key)
        elif action == "nest":
            parent[key] = [node]
        elif action == "truncate" and isinstance(node, list):
            parent[key] = node[:draw(st.integers(0, max(len(node) - 1, 0)))]
        elif action == "number":  # keeps the shape, so verify can reach its verdict
            parent[key] = draw(st.integers(-1, 150))
        elif action == "copy" and isinstance(parent, list):  # a repeated label is a collision
            parent[key] = copy.deepcopy(draw(st.sampled_from(parent)))
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(JUNK)))  # junk is shared; mutate a copy
        if not holder:
            return ""
    text = json.dumps(holder[0])
    if draw(st.sampled_from([False] * 9 + [True])):
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


@FUZZ
@given(st.one_of(
    st.tuples(mutated(C5_GRAPH), st.just(json.dumps(C5_LABELING))),
    st.tuples(st.just(json.dumps(C5_GRAPH)), mutated(C5_LABELING)),
    st.tuples(mutated(C5_GRAPH), mutated(C5_LABELING)),
))
def test_fuzzed_verify_input_exits_0_1_or_2(capsys, tmp_path, files):
    graph, labeling = tmp_path / "g.json", tmp_path / "l.json"
    graph.write_text(files[0])
    labeling.write_text(files[1])
    check_exits_cleanly(capsys, ["verify", "--graph", str(graph), "--labeling", str(labeling)])


def test_unmutated_inputs_verify_strong(capsys, tmp_path):
    """The fuzzed verify inputs start from a labeling that verify accepts."""
    graph, labeling = tmp_path / "g.json", tmp_path / "l.json"
    graph.write_text(json.dumps(C5_GRAPH))
    labeling.write_text(json.dumps(C5_LABELING))
    assert check_exits_cleanly(capsys, ["verify", "--graph", str(graph), "--labeling", str(labeling)]) == 0
