"""Command-line front end.

Subcommands: gen, power, omega, kappa, label, verify, reconcile.  All machine
output is deterministic for fixed inputs (no timestamps).  Exit codes: 0 on
success, 1 when `verify` rejects a labeling or `reconcile --expect-golden`
sees a deviation, 2 on usage or parameter errors and on running out of memory.

Family parameters mirror the literature's letters as flags (--m, --n, --c,
--s-size, --r).  Note that ``path --m 3`` is the path of *length* 3, i.e. four
vertices.  Split adjacency is given as ``--adj "0,1;2"``: semicolon-separated
clique-neighbor lists, one per independent vertex.  Ranges for `reconcile`
accept ``LO..HI`` or a single value.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NoReturn

from nourishing.families import FAMILY_PARAMS, FamilyParameterError, FamilySpec, generate
from nourishing.graphcore import Graph, power
from nourishing.iasi import Labeling, construct_strong_iasi, verify_strong_iasi
from nourishing.nourish import (
    acceptance_grid,
    audit_grid,
    default_grid,
    family_runs,
    formula_kappa,
    reconcile,
    records_to_csv,
    records_to_json,
)

USAGE_ERROR = 2
CHECK_FAILED = 1
GRIDS = ("default", "acceptance", "audit")  # each names the function <name>_grid
PARAM_FLAGS = ("m", "n", "c", "s")  # every family parameter, in flag order


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")  # so main reports it in one line


def _add_family_args(parser: argparse.ArgumentParser, ranged: bool = False) -> None:
    kind = str if ranged else int
    hint = " (or LO..HI)" if ranged else ""
    parser.add_argument("--family", required=not ranged, choices=sorted(FAMILY_PARAMS))
    parser.add_argument("--m", type=kind, help=f"m parameter{hint}; for path, the path LENGTH")
    parser.add_argument("--n", type=kind, help=f"n parameter{hint}")
    parser.add_argument("--c", type=kind, help=f"clique size for split/ksplit{hint}")
    parser.add_argument("--s-size", type=kind, dest="s", help=f"independent-set size for ksplit{hint}")
    parser.add_argument(
        "--adj",
        help='split adjacency: clique neighbors per independent vertex, e.g. "0,1;2"',
    )


def _parse_adj(text: str | None) -> list[tuple[int, ...]]:
    if text is None:
        return []
    try:
        return [tuple(int(x) for x in part.split(",")) for part in text.split(";")]
    except ValueError as exc:
        raise FamilyParameterError(f"cannot parse --adj {text!r}: {exc}") from exc


def _flag(name: str) -> str:
    return "--s-size" if name == "s" else f"--{name}"


def _family_params(args: argparse.Namespace) -> dict:
    """The family's parameters by name; a flag it lacks or does not take is an error."""
    given = {name: getattr(args, name) for name in PARAM_FLAGS if getattr(args, name) is not None}
    FamilySpec.check_params(args.family, given, _flag)
    return given


def _spec_from_args(args: argparse.Namespace) -> FamilySpec:
    spec = FamilySpec.make(args.family, adj=_parse_adj(args.adj), **_family_params(args))
    if getattr(args, "r", 1) < 1:  # before any command builds G; gen takes no --r
        raise ValueError(f"power exponent must be >= 1, got {args.r}")
    return spec


def _parse_range(text: str, name: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
        empty = len(values) == 0  # OverflowError past sys.maxsize values, more than any loop covers
    except (ValueError, OverflowError) as exc:
        raise FamilyParameterError(f"cannot parse {_flag(name)} {text!r}: {exc}") from exc
    if empty:
        raise FamilyParameterError(f"empty range {text!r} for {_flag(name)}")
    return values


def _emit_graph(g: Graph, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(g.to_json(), separators=(",", ":")))
    elif fmt == "dot":
        print(g.to_dot())
    elif fmt == "table":
        print(f"vertices: {g.n}")
        edges = g.sorted_edges()
        print(f"edges ({len(edges)}): " + " ".join(f"{u}-{v}" for u, v in edges))


def cmd_gen(args: argparse.Namespace) -> int:
    _emit_graph(generate(_spec_from_args(args)), args.format)
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    _emit_graph(power(generate(_spec_from_args(args)), args.r), args.format)
    return 0


def cmd_omega(args: argparse.Namespace) -> int:
    (record,) = reconcile([(_spec_from_args(args), (args.r,))])
    if args.format == "json":
        print(json.dumps({"omega": record.oracle, "witness": list(record.witness)}))
    else:
        print(f"omega: {record.oracle}")
        print("witness: " + " ".join(map(str, record.witness)))
    return 0


def cmd_kappa(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    out: dict = {"family": spec.family, "params": spec.params_str(), "r": args.r}
    if args.mode == "formula":
        out["formula"] = formula_kappa(spec, args.r)
    else:
        record = reconcile([(spec, (args.r,))])[0].to_json()
        keys = ("oracle", "witness")
        if args.mode == "both":
            keys = ("formula", "oracle", "witness", "status")
        out.update((key, record[key]) for key in keys)
    if args.format == "json":
        print(json.dumps(out))
    else:
        for key in ("formula", "oracle", "status"):
            if key in out:
                print(f"{key}: {out[key]}")
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    if args.s_label < 1:
        raise ValueError(f"--s-label must be >= 1, got {args.s_label}")
    g = power(generate(_spec_from_args(args)), args.r)
    labeling = construct_strong_iasi(g, args.s_label)
    text = json.dumps(labeling.to_json())
    if args.out is not None:
        with open(args.out, "w") as file:
            print(text, file=file)
    else:
        print(text)
    return 0


def _read_json(path: str) -> object:
    try:
        with open(path) as file:  # a name as given: "" is no file, where Path("") is "."
            return json.load(file)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def cmd_verify(args: argparse.Namespace) -> int:
    labeling = Labeling.from_json(_read_json(args.labeling))
    graph = _read_json(args.graph)
    labeling.check_covers(Graph.order_from_json(graph))  # before Graph allocates n vertices
    report = verify_strong_iasi(Graph.from_json(graph), labeling)
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.is_strong else CHECK_FAILED


def _reconcile_runs(args: argparse.Namespace) -> list:
    if args.grid is not None:
        flags = ("family", *PARAM_FLAGS, "adj", "r")
        given = [_flag(name) for name in flags if getattr(args, name) is not None]
        if given:
            raise FamilyParameterError(f"--grid takes no family flags, got {' '.join(given)}")
        # looked up at call time, so a wrapped or patched grid function is the one called
        return globals()[f"{args.grid}_grid"]()
    if args.family is None:
        raise FamilyParameterError("reconcile needs --grid or --family with ranges")
    ranges = {name: _parse_range(value, name) for name, value in _family_params(args).items()}
    r_range = _parse_range(args.r, "r") if args.r is not None else None
    return family_runs(args.family, ranges, r_range, _parse_adj(args.adj))


def cmd_reconcile(args: argparse.Namespace) -> int:
    if args.expect_golden is not None:
        if args.format != "csv":
            raise FamilyParameterError("--expect-golden requires --format csv")
        with open(args.expect_golden) as file:
            golden = file.read()
    records = reconcile(_reconcile_runs(args))
    if args.format == "json":
        output = records_to_json(records)
    elif args.format == "csv":
        output = records_to_csv(records)
    else:
        lines = [
            f"{rec.spec.family}({rec.spec.params_str()}) r={rec.r}: "
            f"formula={rec.formula} oracle={rec.oracle} [{rec.status}]"
            for rec in records
        ]
        output = "\n".join(lines) + "\n"
    sys.stdout.write(output)
    if args.expect_golden is not None and output != golden:
        print("reconciliation output deviates from the golden table", file=sys.stderr)
        return CHECK_FAILED
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``nourish`` parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="nourish",
        description="Strong set-indexer labelings, graph powers, and nourishing numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named family graph")
    _add_family_args(p)
    p.add_argument("--format", choices=("json", "dot", "table"), default="json")

    p = sub.add_parser("power", help="r-th power of a family graph")
    _add_family_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot", "table"), default="json")

    p = sub.add_parser("omega", help="exact clique number with witness")
    _add_family_args(p)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("kappa", help="nourishing number: formula, oracle, or both")
    _add_family_args(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--mode", choices=("formula", "oracle", "both"), default="both")
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("label", help="construct a strong set-indexer labeling")
    _add_family_args(p)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s-label", type=int, default=2, help="label cardinality (default 2)")
    p.add_argument("--out", help="write the labeling JSON to this file")

    p = sub.add_parser("verify", help="verify a labeling against a graph")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--labeling", required=True, help="labeling JSON file")

    p = sub.add_parser("reconcile", help="formula-vs-oracle reconciliation grid")
    p.add_argument("--grid", choices=tuple(GRIDS))
    _add_family_args(p, ranged=True)
    p.add_argument("--r", help="power range, e.g. 1..4 (default: 1..diameter+1)")
    p.add_argument("--format", choices=("csv", "json", "table"), default="csv")
    p.add_argument("--expect-golden", help="golden CSV; exit 1 on any deviation")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up at call time, like the grids, so a wrapped or patched handler is the one called
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:  # FamilyParameterError and JSONDecodeError included
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except MemoryError:  # e.g. a --s-label or family size too large for the machine
        print("out of memory", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
