#!/usr/bin/env python3
"""Pipeline benchmark for latticecell: corpus files in, documents per second out.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1 --out BENCH_1.json

Each run generates its corpora from ``--seed``, then repeats whole rounds
of the workload's top-level calls for ``--seconds`` seconds, in one
process and without a worker pool (``all`` runs each workload in a process
of its own, one after another). With ``--trace 0`` the rounds run
untraced and the end-to-end metrics are reported; with ``--trace 1``
untraced and traced rounds alternate and the per-layer metrics are
reported, with the tracing overhead. Every run checks the outputs against
the reference computations afterwards. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# name -> (unit, better); every workload reports each of them
END_TO_END = {
    "docs_per_s": ("docs/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

# Per-layer metrics printed by a traced run: the layers every workload
# calls. Layers only some workloads call (saves, loads and the DOT file,
# the split, the baselines, the other three similarity measures) would
# read 0 elsewhere; they are written to the --out record only.
PER_LAYER = {
    "textprep.load_corpus_s": "s",
    "textprep.candidate_terms_s": "s",
    "textprep.select_features_s": "s",
    "textprep.vectorize_s": "s",
    "textprep.build_context_s": "s",
    "textprep.candidates": "count",
    "textprep.information_gain_calls": "count",
    "textprep.vectorize_calls": "count",
    "backend.merge_s": "s",
    "backend.merge_calls": "count",
    "backend.merge_pairs": "count",
    "backend.merge_distinct": "count",
    "backend.merge_yield": "ratio",
    "backend.covers_s": "s",
    "lattice.build_s": "s",
    "lattice.concepts": "count",
    "lattice.cover_edges": "count",
    "compiler.compile_s": "s",
    "compiler.distribution_s": "s",
    "compiler.rules": "count",
    "classify.activate_s": "s",
    "classify.activate_inner_s": "s",
    "classify.vote_s": "s",
    "classify.docs": "count",
    "classify.activated": "count",
    "classify.activation_yield": "ratio",
    "classify.unclassifiable": "count",
    "engine.inference_s": "s",
    "engine.cycles": "count",
    "engine.fired": "count",
    "trace.overhead_s": "s",
}

SETUP_REPEATS = 15
# Timed in a fresh interpreter, in CPU time: import the package, load the
# corpora. Each sample is scaled by a speed probe run just before it.
SETUP_CODE = """
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import latticecell
n = sum(len(latticecell.load_corpus(p)) for p in sys.argv[2:])
print(time.process_time() - t0, n, latticecell.__file__)
"""


def measure_setup(roots: list[Path], expected_docs: int) -> float:
    """Median set-up time over fresh interpreters, after one warm-up, in
    reference seconds."""
    from perfbench.workloads import PROBE_REF_S, probe

    samples = []
    for _ in range(SETUP_REPEATS + 1):
        speed = PROBE_REF_S / probe()
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *map(str, roots)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, n, path = proc.stdout.splitlines()[-1].split()
        if int(n) != expected_docs or not Path(path).is_relative_to(SRC):
            raise RuntimeError(f"set-up loaded {n} documents from {path}")
        samples.append(float(seconds) * speed)
    return statistics.median(samples[1:])


def layer_metrics(rec) -> dict[str, float]:
    """Self seconds per span name, counters, and the derived ratios."""
    total, own = rec.times()
    out: dict[str, float] = {f"{name}_s": s for name, s in own.items()}
    out.update({f"{name}_total_s": s for name, s in total.items()})
    out.update({name: int(v) for name, v in rec.counters.items()})
    out["classify.activate_s"] = sum(
        s for name, s in own.items() if name.startswith("classify.activate_"))
    pairs = rec.counters.get("backend.merge_pairs", 0)
    out["backend.merge_yield"] = (
        rec.counters.get("backend.merge_distinct", 0) / pairs if pairs else 0.0)
    scored = rec.counters.get("classify.intents_scored", 0)
    out["classify.activation_yield"] = (
        rec.counters.get("classify.activated", 0) / scored if scored else 0.0)
    for name, unit in PER_LAYER.items():
        out.setdefault(name, 0 if unit == "count" else 0.0)
    return out


def stage_seconds(rounds) -> dict[str, float]:
    """Median over rounds of the reference seconds spent in each kind of
    top-level call."""
    per_round = []
    for rnd in rounds:
        sums: dict[str, float] = defaultdict(float)
        for name, _, cpu in rnd.calls:
            sums[name] += cpu * rnd.speed
        per_round.append(sums)
    names = sorted({name for sums in per_round for name in sums})
    return {name: statistics.median(s.get(name, 0.0) for s in per_round)
            for name in names}


def stage_metrics(workload, stages: dict[str, float]) -> dict[str, float]:
    """The per-call view: evaluate docs/s, train seconds, classify docs/s."""
    out = {}
    if "evaluate.run_experiment" in stages:
        out["evaluate_docs_per_s"] = workload.documents / stages["evaluate.run_experiment"]
    if "cli.build" in stages:
        out["train_s"] = stages["cli.build"] + stages["cli.compile"]
        for m in workload.measures:
            out[f"classify_{m}_docs_per_s"] = (
                workload.corpora * workload.shape.unlabeled
                / stages[f"cli.classify_{m}"])
    return out


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    from latticecell import active_backend

    from perfbench import spans

    corpora = workload.generate(work, seed)
    setup_s = None
    if not trace:
        setup_s = measure_setup([c.root for c in corpora],
                                workload.corpora * workload.shape.labeled)

    first = None
    fingerprints = None
    plain, traced, layers = [], [], []
    captured = {}
    attempted = failed = repeats = 0
    errors: list[str] = []      # calls that raised or exited nonzero
    mismatches: list[str] = []  # outputs that differ from the first round
    start = time.perf_counter()
    while True:
        tracing = trace and len(plain) > len(traced)
        if tracing:
            rec = spans.Recorder()
            with spans.instrument(rec):
                rnd = workload.run_round(corpora, work, seed, rec)
            layers.append(layer_metrics(rec))
            if not captured:
                captured = rec.captured
            traced.append(rnd)
        else:
            rnd = workload.run_round(corpora, work, seed)
            plain.append(rnd)
        attempted += workload.ops_per_round()
        failed += sum(workload.ops_of_call(name) for _, name in rnd.failed_calls)
        errors += rnd.errors
        prints = [workload.fingerprint(o) for o in rnd.outputs]
        if first is None:
            first, fingerprints = rnd, prints
        else:
            rnd.outputs = []  # only the first round is checked in full
        if prints == fingerprints:
            repeats += 1
        elif not rnd.failed_calls:
            failed += workload.ops_per_round()
            mismatches.append(f"round {len(plain) + len(traced)}: outputs "
                              "differ from the first round")
        done = time.perf_counter() - start >= seconds
        if done and (not trace or traced):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdict = workload.check(corpora, first, captured, seed)
    # the verdict speaks for every round that repeated the first one
    failed += verdict.failed * repeats
    problems = errors + mismatches + verdict.problems
    # a call that raised or exited nonzero, a wrong output and a round
    # that did not repeat the first all make the run incorrect
    correct = not errors and not mismatches and not verdict.problems

    stages = stage_seconds(plain)
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "backend": active_backend(),
        "python": platform.python_version(),
        "corpora": workload.corpora,
        "documents_per_round": workload.documents,
        "shape": vars(workload.shape) | {"features": workload.features},
        "rounds": {"untraced": [r.seconds for r in plain],
                   "traced": [r.seconds for r in traced],
                   "untraced_cpu": [r.cpu_seconds for r in plain],
                   "untraced_speed": [r.speed for r in plain]},
        "stages_s": stages,
        "stages": stage_metrics(workload, stages),
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "problems": problems,
    }
    if trace:
        per_layer = {name: statistics.median(m.get(name, 0) for m in layers)
                     for name in sorted({k for m in layers for k in m})}
        per_layer["trace.overhead_s"] = (
            statistics.median(r.seconds for r in traced)
            - statistics.median(r.seconds for r in plain))
        record["per_layer"] = per_layer
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        # Work done over time taken, across all rounds, in reference
        # seconds: each round's CPU time scaled by its speed probes. On a
        # shared VM wall time also counts steal time, and CPU time moves
        # with the speed the host gives this CPU for minutes at a time;
        # each swung ten-run sets by up to 0.3 of their median. Wall and
        # unscaled CPU throughput are kept in the record.
        docs_per_s = (workload.documents * len(plain)
                      / sum(r.cpu_seconds * r.speed for r in plain))
        record["cpu_docs_per_s"] = (workload.documents * len(plain)
                                    / sum(r.cpu_seconds for r in plain))
        record["wall_docs_per_s"] = (workload.documents * len(plain)
                                     / sum(r.seconds for r in plain))
        values = {"docs_per_s": docs_per_s, "setup_s": setup_s,
                  "peak_rss_mib": peak_rss_mib}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    record["metrics"] = metrics
    return record


def print_record(record: dict) -> None:
    w = record["workload"]
    print(f"[{w}] seed {record['seed']}, backend {record['backend']}, "
          f"{record['corpora']} corpora, {record['documents_per_round']} "
          f"documents per round, rounds untraced "
          f"{len(record['rounds']['untraced'])} traced "
          f"{len(record['rounds']['traced'])}")
    for name, metric in record["metrics"].items():
        print(f"[{w}] {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in record["stages"].items():
        print(f"[{w}] (untraced, per call, reference time) {name} = {value:.6g}")
    print(f"[{w}] attempted {record['attempted']}, failed {record['failed']}, "
          f"correct {str(record['correct']).lower()}")
    for problem in record["problems"]:
        print(f"[{w}] problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="train-wide, cli-classify, evaluate-text or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the full record(s) as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "latticecell" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'latticecell'}; run from "
              "the root of a latticecell checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import latticecell

    if not Path(latticecell.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported latticecell from {latticecell.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work",
                                     prefix=f"{args.workload}-") as work:
        record = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), Path(work))
    print_record(record)
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n",
                            encoding="utf-8")
    return 0


def run_all(names: list[str], args) -> int:
    """Each workload in its own process, one after another, so that each
    peak resident memory is that workload's alone."""
    records = []
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.json"
            code = subprocess.run(
                [sys.executable, __file__, "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--out", str(out)]).returncode
            if code:
                return code
            records.append(json.loads(out.read_text("utf-8")))
    if args.out:
        args.out.write_text(json.dumps(records, indent=2) + "\n",
                            encoding="utf-8")
    return 0

if __name__ == "__main__":
    sys.exit(main())
