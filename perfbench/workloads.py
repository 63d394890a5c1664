"""The workloads: seeded argv and input files, and each op's check.

Ops come in passes and a run measures whole passes.  Sizes inside a pass
are stratified over the stated range and successive passes move the strata
along the golden-ratio sequence, the same for every seed; small parameters
rotate through their values.  The seed jitters each size by up to a
twentieth of its stratum and picks the remaining parameters and the order.  Costs grow steeply with size (a label op on 160
vertices costs about thirty times one on 60), so sizes drawn freely would
make runs differ by which sizes they happened to get rather than by the
program.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import oracle

GOLDEN_RATIO = (math.sqrt(5) - 1) / 2
HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Op:
    """One call of ``nourish``: its argv, the exit it must give, and what to check."""

    argv: tuple[str, ...]
    expect_exit: int = 0
    info: dict = field(default_factory=dict, compare=False, hash=False)
    out_file: Path | None = None


def strata(lo: int, hi: int, count: int, u: float, rng: random.Random) -> list[int]:
    """``count`` integers in [lo, hi], one per equal-width stratum at offset ``u``, jittered."""
    width = (hi - lo + 1) / count
    return [min(hi, max(lo, int(lo + (i + u) * width + rng.uniform(-width, width) / 20)))
            for i in range(count)]


def offset(p: int, k: int, classes: int) -> float:
    """Stratum offset of size class ``k`` in pass ``p``."""
    return ((p + 0.5) * GOLDEN_RATIO + k / classes) % 1.0


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, call: Callable[[list[str]], tuple[int, str]], workdir: Path) -> None:
        """Build input files; ``call`` runs the CLI and returns (exit code, stdout)."""

    def warmup(self) -> list[tuple[str, ...]]:
        return []

    def passes(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def probe_ops(self) -> list[Op]:
        return []

    def check(self, op: Op, output: str) -> str | None:
        """None if ``output`` is right for ``op``, else what is wrong."""
        return None

    def extra_checks(self, call) -> list[str]:
        """Checks run once per run outside the op loop; returns the failures."""
        return []

    def counts(self, op: Op, output: str) -> dict[str, float]:
        """Per-op quantities read from the output, for the per-layer report."""
        return {}


def _witness_error(family, params, adj, r, witness, size) -> str | None:
    return oracle.clique_error(oracle.family_graph(family, params, adj), r, witness, size)


class ReconcileDefault(Workload):
    name = "reconcile-default"
    why = ("ROADMAP's headline end-to-end; distance matrix and power dominate, clique search is small, "
           "and it is the only workload that runs the thread pool")
    ARGV = ("reconcile", "--grid", "default", "--format", "csv")

    def __init__(self, seed: int):
        super().__init__(seed)
        with open(HERE / "reference" / "default_grid.csv", newline="") as f:
            self.reference = [tuple(row) for row in csv.reader(f)]

    def warmup(self):
        return [self.ARGV]

    def passes(self):
        return itertools.repeat([Op(self.ARGV)])

    def check(self, op, output):
        rows = list(csv.reader(io.StringIO(output)))
        if [tuple(row[:6]) for row in rows] != self.reference:
            return "family,params,r,formula,oracle,status columns differ from the reference"
        for family, params, r, _formula, omega, _status, witness in rows[1:]:
            p, adj = oracle.parse_params(params)
            error = _witness_error(family, p, adj, int(r), [int(v) for v in witness.split()], int(omega))
            if error:
                return f"{family} {params} r={r}: {error}"
        return None

    def extra_checks(self, call):
        failures = []
        root = HERE.parent
        for grid, golden in (("acceptance", "golden_reconcile.csv"), ("audit", "golden_audit.csv")):
            code, out = call(["reconcile", "--grid", grid, "--format", "csv"])
            if code != 0 or out != (root / "tests" / "data" / golden).read_text():
                failures.append(f"--grid {grid} does not byte-equal tests/data/{golden}")
        return failures

    def counts(self, op, output):
        return {"disagree": sum(1 for row in csv.reader(io.StringIO(output)) if row[5:6] == ["disagree"])}


def _family_argv(command: str, family: str, params: dict) -> tuple[str, ...]:
    flag = {"s": "--s-size"}
    argv = [command, "--family", family]
    for key, value in params.items():
        argv += [flag.get(key, f"--{key}"), str(value)]
    return tuple(argv)


LABEL_FAMILIES = ("cycle", "helm", "friendship", "sunlet", "kmn")


def _params_for_order(family: str, order: int, rng: random.Random) -> dict:
    """Family parameters giving a graph with about ``order`` vertices."""
    if family == "cycle":
        return {"n": order}
    if family in ("helm", "friendship"):
        return {"n": (order - 1) // 2}
    if family == "sunlet":
        return {"n": order // 2}
    m = rng.randint(order // 4, order // 2)
    return {"m": m, "n": order - m}


class Label(Workload):
    name = "label"
    why = ("Sidon offsets are nearly all of op time and neither reconcile workload calls iasi; "
           "label_span_max shows output quality")

    def prepare(self, call, workdir):
        self.out = workdir / "labeling.json"

    def warmup(self):
        return [("label", "--family", "cycle", "--n", "60", "--r", "1", "--out", str(self.out))]

    def passes(self):
        rng = random.Random(self.seed)
        k = len(LABEL_FAMILIES)
        for p in itertools.count():
            orders = strata(60, 160, k, offset(p, 0, 1), rng)
            ops = []
            # Each family meets every size stratum, exponent and label size in
            # turn, in the same rotation for every seed.
            for j, family in enumerate(LABEL_FAMILIES):
                params = _params_for_order(family, orders[(j + p) % k], rng)
                r, s = 1 + (j + 2 * p) % 3, 2 + (2 * j + p) % 3
                argv = _family_argv("label", family, params) + (
                    "--r", str(r), "--s-label", str(s), "--out", str(self.out))
                ops.append(Op(argv, info={"family": family, "params": params, "r": r, "s": s},
                              out_file=self.out))
            rng.shuffle(ops)
            yield ops

    def check(self, op, output):
        labels = json.loads(output)["labels"]
        info = op.info
        power = oracle.power_graph(oracle.family_graph(info["family"], info["params"]), info["r"])
        return oracle.labeling_error(power, labels, info["s"])

    def counts(self, op, output):
        labels = json.loads(output)["labels"]
        info = op.info
        # Translates keep a base set's differences, so the distinct difference
        # sets are the chain's base sets, one per colour.
        chain = len({frozenset(b - a for a in lab for b in lab if b > a) for lab in labels})
        omega = oracle.expected_omega(info["family"], info["params"], info["r"])
        return {"span": max(max(lab) for lab in labels), "chain_excess": chain - omega}


# An odd number of graphs puts the median op inside the middle graph's
# latencies instead of in the gap between two graphs.
VERIFY_FAMILIES = ("cycle", "kmn", "friendship", "path", "cycle")


def _verify_params(family: str, edges: int, rng: random.Random) -> tuple[dict, int]:
    """Parameters and exponent for a powered graph with about ``edges`` edges."""
    complete_order = round((1 + math.sqrt(1 + 8 * edges)) / 2)
    if family == "cycle":
        # G^r of a cycle has n*r edges while r < n/2.
        n = rng.randint(0, 10) + max(80, math.isqrt(2 * edges) + 3)
        return {"n": n}, max(1, min(n // 2 - 1, round(edges / n)))
    if family == "path":
        # G^r of a path of length m has r(m+1) - r(r+1)/2 edges, at most m(m+1)/2.
        m = rng.randint(96, 104)
        r = round(m + 0.5 - math.sqrt(max(0.0, (m + 0.5) ** 2 - 2 * edges)))
        return {"m": m}, max(1, min(m, r))
    if family == "friendship":
        return {"n": (complete_order - 1) // 2}, 2
    m = rng.randint(complete_order // 4, complete_order // 2)
    return {"m": m, "n": complete_order - m}, 2


class Verify(Workload):
    name = "verify"
    why = ("verify on dense powered graphs: sumsets and the JSON read path, unmeasured elsewhere; "
           "intact and corrupted labelings take the accept and reject paths")
    MALFORMED = 8

    def prepare(self, call, workdir):
        rng = random.Random(self.seed)
        families = VERIFY_FAMILIES
        self.pool: list[Op] = []
        self.probes: list[Op] = []
        self.expected: dict[tuple, tuple[int, Counter]] = {}
        targets = strata(2000, 5000, len(families), 0.5, rng)
        for i, (family, target) in enumerate(zip(families, targets)):
            params, r = _verify_params(family, target, rng)
            s = 2 + i % 2
            base = _family_argv("power", family, params) + ("--r", str(r))
            code, graph_text = call(list(base) + ["--format", "json"])
            lab_path = workdir / f"lab{i}.json"
            code2, _ = call(list(_family_argv("label", family, params)) + [
                "--r", str(r), "--s-label", str(s), "--out", str(lab_path)])
            if code or code2:
                raise RuntimeError(f"building verify input {base} failed with exit {code or code2}")
            graph = json.loads(graph_text)
            labels = json.loads(lab_path.read_text())["labels"]
            graph_path = workdir / f"graph{i}.json"
            graph_path.write_text(graph_text)
            variants = {"intact": labels, "duplicate": _duplicate(labels, rng),
                        "shared-difference": _share_difference(labels, graph["edges"], rng)}
            for kind in ("intact", "duplicate", "intact", "shared-difference"):
                path = workdir / f"lab{i}-{kind}.json"
                path.write_text(json.dumps({"s": s, "labels": variants[kind]}))
                argv = ("verify", "--graph", str(graph_path), "--labeling", str(path))
                self.expected[argv] = oracle.verification_outcome(graph["n"], graph["edges"], variants[kind])
                self.pool.append(Op(argv, self.expected[argv][0], {"kind": kind}))
            for j in range(self.MALFORMED // len(families) + (i < self.MALFORMED % len(families))):
                bad = dict(graph)
                if (i + j) % 2:
                    bad["n"] = str(bad["n"])
                else:
                    del bad["n"]
                bad_path = workdir / f"graph{i}-malformed{j}.json"
                bad_path.write_text(json.dumps(bad))
                self.probes.append(Op(("verify", "--graph", str(bad_path), "--labeling", str(lab_path)), 2,
                                      {"kind": "malformed"}))
        rng.shuffle(self.pool)

    def warmup(self):
        return [next(op.argv for op in self.pool if op.expect_exit == 0)]

    def passes(self):
        return itertools.repeat(self.pool)

    def probe_ops(self):
        return self.probes

    def check(self, op, output):
        if op.expect_exit == 2:
            return None
        exit_code, kinds = self.expected[op.argv]
        report = json.loads(output)
        got = Counter(f["kind"] for f in report["failures"])
        if got != kinds:
            return f"failure kinds {dict(got)}, expected {dict(kinds)}"
        collisions = kinds["vertex-collision"] + kinds["edge-collision"]
        if report["is_iasi"] != (not collisions) or report["is_strong"] != (exit_code == 0):
            return "is_iasi/is_strong flags disagree with the failures"
        return None


def _duplicate(labels: list[list[int]], rng: random.Random) -> list[list[int]]:
    a, b = rng.sample(range(len(labels)), 2)
    out = [list(x) for x in labels]
    out[b] = list(out[a])
    return out


def _share_difference(labels: list[list[int]], edges: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Move one endpoint's top element so the edge's labels share a difference."""
    u, v = rng.choice(edges)
    out = [list(x) for x in labels]
    d = out[u][1] - out[u][0]
    out[v] = out[v][:-1] + [out[v][-2] + d]
    return out


WORKLOADS = {w.name: w for w in (ReconcileDefault, Label, Verify)}
