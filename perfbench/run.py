"""Benchmark of the ``nourish`` CLI, driven in-process through ``nourishing.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  Each workload is a closed loop, one client sending the next op only
after the previous one returned.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` every input runs once
untraced and once traced, and the line holds the per-layer metrics derived
from spans around the program's public functions.  Every op's output is
checked after the loop; the exit code is 1 when any check fails.  See
``perfbench/SPEC.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import stats
import tracing
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, span, field of the span's aggregate row).  Unless
# named otherwise a metric is per traced op: ".ms" is inclusive span time,
# ".self_ms" self time, ".calls" the call count; other fields are counts taken
# at the span boundary.  Metrics without a span are derived in layer_metrics.
PER_LAYER = {
    "graphcore.all_pairs_distance.ms": ("ms", "graphcore.all_pairs_distance", "ns"),
    "graphcore.all_pairs_distance.calls": ("count", "graphcore.all_pairs_distance", "calls"),
    "graphcore.power.ms": ("ms", "graphcore.power", "ns"),
    "graphcore.power.edges_out": ("count", "graphcore.power", "edges"),
    "graphcore.diameter.ms": ("ms", "graphcore.diameter", "ns"),
    "graphcore.max_clique.ms": ("ms", "graphcore.max_clique", "ns"),
    "graphcore.max_clique.calls": ("count", "graphcore.max_clique", "calls"),
    "graphcore.max_clique.shortcut_ratio": ("ratio", None, None),
    "graphcore.max_clique.omega_sum": ("count", "graphcore.max_clique", "omega"),
    "families.generate.ms": ("ms", "families.generate", "ns"),
    "families.generate.calls": ("count", "families.generate", "calls"),
    "families.generate.edges": ("count", "families.generate", "edges"),
    "nourish.default_grid.ms": ("ms", "nourish.default_grid", "ns"),
    "nourish.reconcile.self_ms": ("ms", "nourish.reconcile", "self_ns"),
    "nourish.oracle_kappa.ms": ("ms", "nourish.oracle_kappa", "ns"),
    "nourish.formula_kappa.ms": ("ms", "nourish.formula_kappa", "ns"),
    "nourish.records_to_csv.ms": ("ms", "nourish.records_to_csv", "ns"),
    "nourish.status.disagree": ("count", None, None),
    "iasi.sidon_sequence.ms": ("ms", "iasi.sidon_sequence", "ns"),
    "iasi.sidon_sequence.max_term": ("int", "iasi.sidon_sequence", "max_term"),
    "iasi.greedy_coloring.ms": ("ms", "iasi.greedy_coloring", "ns"),
    "iasi.greedy_coloring.colors": ("count", "iasi.greedy_coloring", "colors"),
    "iasi.chain_excess": ("count", None, None),
    "setalg.make_difference_chain.ms": ("ms", "setalg.make_difference_chain", "ns"),
    "iasi.construct_strong_iasi.self_ms": ("ms", "iasi.construct_strong_iasi", "self_ns"),
    "iasi.verify_strong_iasi.self_ms": ("ms", "iasi.verify_strong_iasi", "self_ns"),
    "iasi.induced_edge_labels.ms": ("ms", "iasi.induced_edge_labels", "ns"),
    "iasi.verify.edges": ("count", "iasi.verify_strong_iasi", "edges"),
    "iasi.verify.failures": ("count", "iasi.verify_strong_iasi", "failures"),
    "cli.self_ms": ("ms", None, None),
    "cli.out_bytes": ("bytes", None, None),
    "cli.exceptions": ("count", None, None),
    "error_rate": ("ratio", None, None),
    "label_span_max": ("int", None, None),
    "trace.overhead_ms": ("ms", None, None),
    "trace.absent_spans": ("count", None, None),
}

# Layers of the three pipelines, for the self-time shares; a span belongs to
# the layer with the longest matching name prefix.
LAYERS = {
    "op": "cli", "cli.": "cli",
    "families.": "generate",
    "graphcore.": "distance/power",
    "graphcore.max_clique": "clique", "graphcore.is_complete": "clique",
    "graphcore.clique_number": "clique",
    "nourish.": "formula/compare",
    "nourish.records_to_": "csv/json",
    "iasi.greedy_coloring": "coloring",
    "setalg.make_difference_chain": "difference chain",
    "iasi.sidon_sequence": "sidon offsets",
    "iasi.construct_strong_iasi": "translation",
    "iasi.verify_strong_iasi": "verifier",
    "iasi.induced_edge_labels": "edge sumsets", "setalg.": "edge sumsets",
}


def layer_of(span: str) -> str:
    best = max((p for p in LAYERS if span == p or span.startswith(p)), key=len, default=None)
    return LAYERS[best] if best else span


def fresh_import():
    """Import ``nourishing.cli`` from this checkout's ``src``, dropping earlier imports."""
    for name in [m for m in sys.modules if m == "nourishing" or m.startswith("nourishing.")]:
        del sys.modules[name]
    cli = importlib.import_module("nourishing.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"nourishing imported from {cli.__file__}, not from {SRC}")
    return cli


class Runner:
    def __init__(self, cli):
        self.cli = cli

    def run(self, op: Op, tracer: tracing.Tracer | None = None):
        """Run one op; returns (exit code, exception, output text, seconds, stdout bytes)."""
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            root = tracer.open_root() if tracer else None
            start = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # classified as an exception outcome
                exc = e
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.close_root(root)
        text = out.getvalue()
        if op.out_file is not None and code == 0:
            text = op.out_file.read_text()
        return code, exc, text, elapsed, len(out.getvalue()) + (len(text) if op.out_file else 0)

    def call(self, argv: list[str]) -> tuple[int, str]:
        code, exc, text, _, _ = self.run(Op(tuple(argv)))
        if exc is not None:
            raise exc
        return code, text


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "nourishing").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def setup(workload, workdir: Path) -> tuple[Runner, float]:
    start = time.perf_counter()
    runner = Runner(fresh_import())
    workload.prepare(runner.call, workdir)
    for argv in workload.warmup():
        code, _ = runner.call(list(argv))
        if code != 0:
            raise RuntimeError(f"warm-up {' '.join(argv)} exited {code}")
    gc.collect()
    return runner, time.perf_counter() - start


def check_all(workload, records) -> tuple[list[str], dict]:
    """Classify every op; outputs of a repeated input must equal its first output."""
    first: dict[tuple, tuple[str, str | None]] = {}
    outcomes, errors = [], []
    counts: dict[str, float] = defaultdict(float)
    for op, (code, exc, text, _, _) in records:
        error = None
        if exc is None and code == op.expect_exit:
            if op.argv not in first:
                try:
                    first[op.argv] = (text, workload.check(op, text))
                except (ValueError, KeyError, TypeError, IndexError) as e:
                    first[op.argv] = (text, f"unreadable output: {type(e).__name__}: {e}")
            seen_text, error = first[op.argv]
            if seen_text != text:
                error = "output differs from an earlier run of the same input"
            if code == 0 and not error:
                for key, value in workload.counts(op, text).items():
                    counts[key] = max(counts[key], value) if key == "span" else counts[key] + value
        outcome = stats.classify(op.expect_exit, code, exc, error)
        outcomes.append(outcome)
        if outcome != stats.OK and len(errors) < 5:
            errors.append(f"{outcome}: {' '.join(op.argv)}: {error or exc or f'exit {code}'}")
    return outcomes, {"errors": errors, "counts": counts, "distinct": len(first)}


def loop(workload, runner: Runner, seconds: float, tracer: tracing.Tracer | None):
    """Closed loop over whole passes, starting none after ``seconds``.

    In trace mode each input runs untraced, then traced.
    """
    records, traced, layer = [], [], defaultdict(lambda: defaultdict(float))
    passes = workload.passes()
    gc.freeze()
    start = time.perf_counter()
    while not records or time.perf_counter() < start + seconds:
        for op in next(passes):
            # Each op starts from a collected heap, as a fresh process would.
            gc.collect()
            records.append((op, runner.run(op)))
            if tracer is None:
                continue
            gc.collect()
            tracer.install()
            try:
                result = runner.run(op, tracer)
            finally:
                tracer.remove()
            traced.append((op, result))
            for name, row in tracing.aggregate(tracer.take()).items():
                for key, value in row.items():
                    layer[name][key] += value
    return records, time.perf_counter() - start, traced, layer


def layer_metrics(layer, traced, untraced, outcomes, extra, absent) -> dict[str, float]:
    n = len(traced)
    metrics = {}
    for metric, (_unit, span, key) in PER_LAYER.items():
        if span is not None:
            value = layer.get(span, {}).get(key, 0.0)
            metrics[metric] = value / 1e6 / n if key in ("ns", "self_ns") else value / n
    clique = layer.get("graphcore.max_clique", {})
    metrics["graphcore.max_clique.shortcut_ratio"] = (
        clique.get("shortcut", 0) / clique["calls"] if clique.get("calls") else 0.0)
    metrics["cli.self_ms"] = sum(row["self_ns"] for name, row in layer.items()
                                 if layer_of(name) == "cli") / 1e6 / n
    counts = extra["counts"]
    checked = len(traced) + len(untraced)
    metrics["nourish.status.disagree"] = counts.get("disagree", 0) / checked
    metrics["iasi.chain_excess"] = counts.get("chain_excess", 0) / checked
    metrics["label_span_max"] = counts.get("span", 0)
    metrics["cli.out_bytes"] = statistics.fmean(r[4] for _, r in traced)
    metrics["cli.exceptions"] = sum(1 for o in outcomes if o.startswith(stats.EXCEPTION))
    metrics["error_rate"] = stats.error_rate(outcomes)
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(r[3] for _, r in traced)
                                          - statistics.median(r[3] for _, r in untraced))
    metrics["trace.absent_spans"] = len(absent)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nourishing" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'nourishing' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads_env = os.environ.pop("NOURISH_THREADS", None)

    workload = WORKLOADS[args.workload](args.seed)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(1 if args.trace else SETUPS):
            runner, seconds = setup(workload, workdir)
            setups.append(seconds)
        tracer = None
        absent = []
        if args.trace:
            tracer = tracing.Tracer()
            present = tracer.public_functions()
            absent = sorted({span for _, span, _ in PER_LAYER.values() if span} - set(present))
        records, wall, traced, layer = loop(workload, runner, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = [(op, runner.run(op)) for op in workload.probe_ops()]
        extra_failures = workload.extra_checks(runner.call)
        outcomes, extra = check_all(workload, records + traced)
        probe_outcomes, probe_extra = check_all(workload, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    timed = outcomes[:len(records)]
    latencies = [r[3] * 1e3 for _, r in records]
    tail_value, tail_pct, beyond = stats.tail(latencies)
    correct = all(o == stats.OK for o in outcomes) and not extra_failures

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps({
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "NOURISH_THREADS": "unset" if threads_env is None else f"unset for the run (was {threads_env!r})",
        "commit": commit(),
        "src_sha256": src_digest(),
        "seed": args.seed,
        "ops_timed": len(records),
        "ops_traced": len(traced),
        "ops_probe": len(probes),
        "distinct_inputs": extra["distinct"],
        "setups": [round(s, 4) for s in setups],
        "op_tail_ms_percentile": round(tail_pct, 2),
        "op_tail_ms_samples_beyond": beyond,
    }))
    print(f"outcomes of timed and traced ops {json.dumps(stats.outcome_counts(outcomes))}")
    for line in extra["errors"] + extra_failures:
        print(f"check failed: {line}")
    if probes:
        print("outcomes of the malformed-input probe (expected exit 2; untimed, not in 'failed') "
              + json.dumps(stats.outcome_counts(probe_outcomes)))
        for line in probe_extra["errors"]:
            print(f"probe: {line}")
    sent = outcomes + probe_outcomes
    print(f"error_rate {stats.error_rate(sent):.6g} ratio ({len(sent) - sent.count(stats.OK)} failed "
          f"/ {len(sent)} attempted, probe included)")

    if args.trace:
        metrics = layer_metrics(layer, traced, records, outcomes + probe_outcomes, extra, absent)
        metrics = {name: metrics[name] for name in PER_LAYER}
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        report_layers(layer, traced, metrics, absent)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "op_p50_ms": statistics.median(latencies),
            "op_tail_ms": tail_value,
            "ops_per_s": len(records) / wall,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        if "span" in extra["counts"]:
            print(f"label_span_max {extra['counts']['span']:.0f} int")
    for name, value in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{tail_pct:.2f}: {beyond} of {len(latencies)} samples beyond)"
        print(f"metric {name} {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for o in timed if o != stats.OK),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def report_layers(layer, traced, metrics, absent) -> None:
    n = len(traced)
    op_ms = statistics.fmean(r[3] for _, r in traced) * 1e3
    shares: dict[str, float] = defaultdict(float)
    for name, row in layer.items():
        shares[layer_of(name)] += row["self_ns"] / 1e6 / n
    total = sum(shares.values())
    print(f"layers self ms/op: sum {total:.4g} vs traced op {op_ms:.4g} "
          f"(diff {total - op_ms:+.3g}; tracing overhead {metrics['trace.overhead_ms']:.4g} ms at p50)")
    for name, ms in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"layer {name:<18} {ms:10.4g} ms/op  {100 * ms / total:5.1f}%")
    for name, row in sorted(layer.items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"span {name:<36} calls/op {row['calls'] / n:10.4g}  ms/op {row['ns'] / 1e6 / n:10.4g}"
              f"  self ms/op {row['self_ns'] / 1e6 / n:10.4g}")
    if absent:
        print("absent spans: " + " ".join(absent))


if __name__ == "__main__":
    sys.exit(main())
