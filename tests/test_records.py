"""The value records: FamilySpec, Labeling, VerificationReport, NourishingRecord."""

from __future__ import annotations

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import nourishing
from nourishing.families import FamilyParameterError, FamilySpec
from nourishing.graphcore import Graph
from nourishing.iasi import Labeling, verify_strong_iasi
from nourishing.nourish import reconcile
from nourishing.setalg import IntSet

SPEC = FamilySpec.make("split", c=2, adj=[(0,), (0, 1)])
LABELING = Labeling((IntSet([0, 1]), IntSet([0, 2])), 2, chain_length=2)
RECORDS = [
    SPEC,
    LABELING,
    verify_strong_iasi(Graph(2, [(0, 1)]), Labeling((IntSet([1, 2]), IntSet([2, 3])), 2)),
    reconcile([(FamilySpec.make("wheel", n=3), (1,))])[0],
]


def _round_trips(record):
    yield copy.copy(record)
    yield copy.deepcopy(record)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(record, protocol))


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_record_is_an_immutable_value(record):
    for clone in _round_trips(record):
        assert type(clone) is type(record)
        assert clone == record
        assert hash(clone) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


def _forged(cls, fields):
    """A record built past its check, as only ``tuple.__new__`` can."""
    return tuple.__new__(cls, fields)


BAD_SPEC = ("cycle", (("n", 2),), ())
BAD_LABELS = ((IntSet([0, 1]), IntSet([3])), 2, 0)
SPEC_ERROR = (FamilyParameterError, "^cycle requires n >= 3, got n=2$")
LABELING_ERROR = (ValueError, '^label of vertex 1 has 1 elements, "s" is 2$')


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: FamilySpec(*BAD_SPEC), SPEC_ERROR),
        (lambda: FamilySpec(family="cycle", params=(("n", 2),)), SPEC_ERROR),
        (lambda: FamilySpec.make("cycle", n=2), SPEC_ERROR),
        (lambda: FamilySpec._make(BAD_SPEC), SPEC_ERROR),
        (lambda: FamilySpec.make("cycle", n=5)._replace(params=(("n", 2),)), SPEC_ERROR),
        (lambda: copy.copy(_forged(FamilySpec, BAD_SPEC)), SPEC_ERROR),
        (lambda: copy.deepcopy(_forged(FamilySpec, BAD_SPEC)), SPEC_ERROR),
        (lambda: pickle.loads(pickle.dumps(_forged(FamilySpec, BAD_SPEC))), SPEC_ERROR),
        (lambda: Labeling(*BAD_LABELS), LABELING_ERROR),
        (lambda: Labeling(labels=BAD_LABELS[0], label_size=2), LABELING_ERROR),
        (lambda: Labeling.from_json({"s": 2, "labels": [[0, 1], [3]]}), LABELING_ERROR),
        (lambda: Labeling._make(BAD_LABELS), LABELING_ERROR),
        (lambda: LABELING._replace(labels=BAD_LABELS[0]), LABELING_ERROR),
        (lambda: copy.copy(_forged(Labeling, BAD_LABELS)), LABELING_ERROR),
        (lambda: copy.deepcopy(_forged(Labeling, BAD_LABELS)), LABELING_ERROR),
        (lambda: pickle.loads(pickle.dumps(_forged(Labeling, BAD_LABELS))), LABELING_ERROR),
    ],
    ids=[
        "spec-positional", "spec-keywords", "spec-make", "spec-_make", "spec-_replace",
        "spec-copy", "spec-deepcopy", "spec-pickle",
        "labeling-positional", "labeling-keywords", "labeling-from_json", "labeling-_make",
        "labeling-_replace", "labeling-copy", "labeling-deepcopy", "labeling-pickle",
    ],
)
def test_every_build_path_runs_the_check(build, error):
    kind, message = error
    with pytest.raises(kind, match=message):
        build()


def test_spec_param_by_name():
    assert (SPEC.param("c"), FamilySpec.make("fan", m=2, n=3).param("n")) == (2, 3)
    with pytest.raises(KeyError):
        SPEC.param("n")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """The records are tuples, so importing the CLI pulls in neither module."""
    src = str(Path(nourishing.__file__).resolve().parents[1])
    program = (
        f"import sys; sys.path.insert(0, {src!r}); import nourishing.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", program], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
