"""The benchmark's workloads: what one round calls, and how it is checked.

A round runs the same top-level calls on every corpus of the workload and
times each call, in wall time and in CPU time of the process, each
followed by the speed probe. ``check`` then compares the first round's
outputs with the reference computations in ``reference``; later rounds
must repeat the first round's outputs exactly. Each workload generates
several corpora from the run's seed and reports the round's totals, so
one unlucky corpus moves a run's figures less.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import reference as ref
from .corpus import CATEGORIES, CorpusShape, GeneratedCorpus, generate

STOPWORDS_FILE = (Path(__file__).resolve().parents[1] / "src" / "latticecell"
                  / "data" / "stopwords_fr.txt")
# concepts per lattice whose upper covers are recomputed in full
COVER_SAMPLE = 40
# baselines every run_experiment workload runs, and their report rows
BASELINES = ("nb", "knn")
BASELINE_ROWS = ["naive-bayes", "knn"]
# The speed probe: a fixed task of the benchmark's own (the intersection
# closure of 300 seeded rows), run after every top-level call, once per
# started PROBE_EVERY_S of the call's CPU time. Its CPU time tracks the
# speed the machine gives this process at that moment; times scaled by
# PROBE_REF_S over it read as on a machine where the probe takes 20 ms.
_PROBE_RNG = random.Random("perfbench-probe")
PROBE_ROWS = [_PROBE_RNG.getrandbits(30) & _PROBE_RNG.getrandbits(30)
              & _PROBE_RNG.getrandbits(30) for _ in range(300)]
PROBE_EVERY_S = 0.5
PROBE_REF_S = 0.02


@dataclass
class Round:
    """Timed calls of one round and what they produced."""

    calls: list[tuple[str, float, float]] = field(default_factory=list)  # name, wall s, CPU s
    probes: list[float] = field(default_factory=list)  # CPU s of each speed probe
    outputs: list = field(default_factory=list)     # one entry per corpus
    failed_calls: set[tuple[int, str]] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(wall for _, wall, _ in self.calls)

    @property
    def cpu_seconds(self) -> float:
        return sum(cpu for _, _, cpu in self.calls)

    @property
    def speed(self) -> float:
        """Scale from this round's CPU seconds to reference seconds."""
        return PROBE_REF_S / statistics.fmean(self.probes)


@dataclass
class Verdict:
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, ops: int, problem: str) -> None:
        self.failed += ops
        self.problems.append(problem)


def probe() -> float:
    """CPU seconds of one run of the speed probe, with the collector off
    so that the program's heap does not weigh on it."""
    gc.disable()
    try:
        c0 = time.process_time()
        ref.concepts(PROBE_ROWS, 30)
        return time.process_time() - c0
    finally:
        gc.enable()


def _timed(rnd: Round, rec, name: str, fn):
    """Run ``fn``; record its wall and CPU time, and a span when tracing;
    then run the speed probe."""
    span = rec.span(name) if rec is not None else contextlib.nullcontext()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with span:
            return fn()
    finally:  # a call that raises is timed too
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rnd.calls.append((name, wall, cpu))
        for _ in range(1 + int(cpu / PROBE_EVERY_S)):
            rnd.probes.append(probe())


def _mask(index: dict[str, int], names) -> int:
    mask = 0
    for name in names:
        mask |= 1 << index[name]
    return mask


# --------------------------------------------------------------------------
# reference model of one corpus


@dataclass
class Expected:
    objects: list[str]
    labels: list[str]
    categories: list[str]
    vocab: list[str]
    gains: dict[str, float]
    rows: list[int]
    concepts: list[tuple[int, int]]
    rules: list[tuple[int, tuple[Fraction, ...]]]


def expected_model(docs, n_features: int, stopwords) -> Expected:
    """Vocabulary, context, concepts and rules for labeled (id, cat, text)."""
    term_sets = [ref.terms_of(text, stopwords) for _, _, text in docs]
    labels = [cat for _, cat, _ in docs]
    gains = ref.information_gains(term_sets, labels)
    vocab = ref.select_top(gains, n_features)
    rows = [ref.row(terms, vocab) for terms in term_sets]
    categories = sorted(set(labels))
    concepts = ref.concepts(rows, len(vocab))
    return Expected([d[0] for d in docs], labels, categories, vocab, gains,
                    rows, concepts, ref.rules(concepts, labels, categories))


def check_lattice(exp: Expected, objects, attributes, concepts, covers,
                  top: int, bottom: int, rnd: random.Random) -> list[str]:
    """Concept set, order and cover edges against the references."""
    if list(objects) != exp.objects:
        return ["lattice objects differ from the corpus order"]
    if list(attributes) != exp.vocab:
        return ["lattice attributes differ from the reference top-N terms"]
    if list(concepts) != exp.concepts:
        return [f"lattice has {len(concepts)} concepts, the intersection "
                f"closure has {len(exp.concepts)} (or they differ)"]
    problems = []
    if (top, bottom) != (len(concepts) - 1, 0):
        problems.append(f"top/bottom indices {top}/{bottom} are not last/first")
    if covers is None:  # a lattice object that does not carry its covers
        return problems
    parents: dict[int, set[int]] = {}
    for child, parent in covers:
        if not (0 <= child < len(concepts) and 0 <= parent < len(concepts)):
            return [f"cover edge {child}->{parent} is out of range"]
        ec, ep = concepts[child][0], concepts[parent][0]
        if ec == ep or ec & ~ep:
            problems.append(f"cover edge {child}->{parent} is not a strict "
                            "extent inclusion")
        parents.setdefault(child, set()).add(ep)
    columns = ref.columns_of(exp.rows, len(exp.vocab))
    for i in rnd.sample(range(len(concepts)), min(COVER_SAMPLE, len(concepts))):
        extent, intent = concepts[i]
        want = ref.upper_cover_extents(extent, intent, exp.rows, columns)
        if parents.get(i, set()) != want:
            problems.append(f"upper covers of concept {i} differ from the "
                            "minimal closures of extent + {o}")
    return problems


def check_rules(exp: Expected, rules) -> list[str]:
    """Rules as (intent mask, distribution) in rule order."""
    if len(rules) != len(exp.rules):
        return [f"{len(rules)} rules, expected {len(exp.rules)}"]
    bad = [k for k, (got, want) in enumerate(zip(rules, exp.rules)) if got != want]
    if bad:
        return [f"{len(bad)} rules differ (first: rule {bad[0]}) in intent or "
                "recounted distribution"]
    return []


def check_vocabulary(exp: Expected, vocabulary) -> list[str]:
    """A captured Vocabulary against the recounted information gains."""
    if list(vocabulary.terms) != exp.vocab:
        return ["selected features differ from the top-N by recounted "
                "information gain"]
    off = [t for t, s in zip(vocabulary.terms, vocabulary.ig_scores)
           if abs(s - exp.gains[t]) > 1e-12]
    return [f"information gain of {off[0]!r} differs"] if off else []


def check_captured(exps: list[Expected], captured, seed: int) -> list[str]:
    """Intermediate products kept by the traced round, one per corpus."""
    problems = []
    rnd = random.Random(seed)
    for exp, lat in zip(exps, captured.get("lattice", [])):
        problems += check_lattice(
            exp, lat.context.object_ids, lat.context.attribute_names,
            [(c.extent, c.intent) for c in lat.concepts],
            getattr(lat, "covers", None), lat.top_index, lat.bottom_index, rnd)
    for exp, model in zip(exps, captured.get("model", [])):
        problems += check_rules(exp, [
            (mask, dist.fractions)
            for (_, mask), (_, dist) in zip(model.intent_facts,
                                            model.extent_facts)])
    for exp, vocabulary in zip(exps, captured.get("vocabulary", [])):
        problems += check_vocabulary(exp, vocabulary)
    return problems


# --------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    shape: CorpusShape
    corpora: int
    features: int

    def generate(self, work: Path, seed: int) -> list[GeneratedCorpus]:
        return [generate(work / f"corpus{i}", self.shape, f"{self.name}/{seed}/{i}")
                for i in range(self.corpora)]

    @property
    def documents(self) -> int:
        """Documents of all corpora of one round."""
        per_corpus = self.shape.labeled + self.shape.unlabeled
        return self.corpora * per_corpus


@dataclass(frozen=True)
class ExperimentWorkload(Workload):
    """``run_experiment`` once per corpus, on a seeded split, with the
    ``nb`` and ``knn`` baselines."""

    measures: tuple[str, ...] = ("inner",)
    split: float = 2 / 3

    def _row_names(self) -> list[str]:
        return list(self.measures) + BASELINE_ROWS

    def _n_test(self) -> int:
        n = self.shape.docs_per_category
        n_train = min(max(int(n * self.split + 0.5), 1), n - 1)
        return CATEGORIES * (n - n_train)

    def ops_per_round(self) -> int:
        """One call plus one operation per document classified per row."""
        return self.corpora * self.ops_of_call("evaluate.run_experiment")

    def ops_of_call(self, name: str) -> int:
        return 1 + self._n_test() * len(self._row_names())

    def run_round(self, corpora, work: Path, seed: int, rec=None) -> Round:
        from latticecell import PipelineConfig, run_experiment

        rnd = Round()
        config = PipelineConfig(measures=self.measures, features=self.features,
                                split=self.split, seed=seed,
                                baselines=BASELINES, jobs=1)
        for i, corpus in enumerate(corpora):
            try:
                report = _timed(rnd, rec, "evaluate.run_experiment",
                                lambda: run_experiment(corpus.root, config))
            except Exception as exc:  # a failed call is counted, not fatal
                rnd.failed_calls.add((i, "evaluate.run_experiment"))
                rnd.errors.append(f"corpus {i}: run_experiment raised {exc!r}")
                report = None
            rnd.outputs.append(report)
        return rnd

    def fingerprint(self, output) -> str:
        if output is None:
            return "failed"
        return json.dumps(output.to_json_dict(), sort_keys=True)

    def check(self, corpora, first: Round, captured, seed: int) -> Verdict:
        verdict = Verdict()
        stopwords = ref.read_stopwords(STOPWORDS_FILE)
        per_row = self._n_test()
        exps = []
        for i, (corpus, report) in enumerate(zip(corpora, first.outputs)):
            train, test = ref.stratified_split(ref.read_labeled(corpus.root),
                                               self.split, seed)
            exp = expected_model(train, self.features, stopwords)
            exps.append(exp)
            if report is None:
                continue
            test_terms = [ref.terms_of(text, stopwords) for _, _, text in test]
            test_rows = [ref.row(t, exp.vocab) for t in test_terms]
            truth = [cat for _, cat, _ in test]
            cats = exp.categories
            predicted = {m: [ref.predict(exp.rules, r, m, cats)[0]
                             for r in test_rows] for m in self.measures}
            predicted["naive-bayes"] = ref.naive_bayes(
                exp.rows, exp.labels, test_rows, len(exp.vocab), cats)
            predicted["knn"] = ref.knn(exp.rows, exp.labels, test_rows, cats)
            if (list(report.categories) != cats or report.n_train != len(train)
                    or report.n_test != len(test)):
                verdict.fail(1, f"corpus {i}: report header differs")
            names = [row.name for row in report.rows]
            if names != self._row_names():
                verdict.fail(1, f"corpus {i}: report rows {names}")
                continue
            for row in report.rows:
                want = ref.macro_metrics(truth, predicted[row.name], cats)
                got = {k: getattr(row.metrics, k) for k in want}
                unclassified = sum(p is None for p in predicted[row.name])
                if (got != want or row.unclassified != unclassified
                        or got["accuracy"] + got["error"] != 1):
                    verdict.fail(per_row, f"corpus {i}: row {row.name} differs "
                                 "from the metrics of the reference predictions")
        for problem in check_captured(exps, captured, seed):
            verdict.fail(1, problem)
        return verdict


@dataclass(frozen=True)
class CliWorkload(Workload):
    """``latticecell build`` (with ``--dot``), ``compile`` and one
    ``classify`` per measure, through ``cli.main``."""

    measures: tuple[str, ...] = ref.MEASURES

    def ops_per_round(self) -> int:
        """build, compile, and per measure one call plus its documents."""
        return self.corpora * (2 + len(self.measures) * (1 + self.shape.unlabeled))

    def ops_of_call(self, name: str) -> int:
        return 1 + self.shape.unlabeled if name.startswith("cli.classify") else 1

    def run_round(self, corpora, work: Path, seed: int, rec=None) -> Round:
        from latticecell.cli import main

        rnd = Round()
        for i, corpus in enumerate(corpora):
            # every round starts from an empty directory, so a call that
            # writes nothing cannot pass on an earlier round's files
            out = work / f"out{i}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            labels = out / "labels.csv"
            labels.write_text("".join(f"{doc},{cat}\n" for doc, cat
                                      in sorted(corpus.labels.items())),
                              encoding="utf-8")
            argvs = [("cli.build", ["build", str(corpus.root), "-o",
                                    str(out / "lattice.json"), "--dot",
                                    str(out / "hasse.dot"), "--features",
                                    str(self.features)]),
                     ("cli.compile", ["compile", str(out / "lattice.json"),
                                      str(labels), "-o", str(out / "model.json")])]
            for m in self.measures:
                argvs.append((f"cli.classify_{m}", [
                    "classify", str(out / "model.json"), str(corpus.unlabeled),
                    "--similarity", m, "-o", str(out / f"predictions_{m}.jsonl")]))
            printed = {}
            for name, argv in argvs:
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = _timed(rnd, rec, name, lambda: main(argv))
                except Exception as exc:  # a failed call is counted, not fatal
                    code = repr(exc)
                if code != 0:
                    rnd.failed_calls.add((i, name))
                    rnd.errors.append(f"corpus {i}: {name} returned {code}")
                printed[name] = buf.getvalue()
            rnd.outputs.append({"printed": printed, "files": {
                p.name: p.read_bytes() for p in sorted(out.iterdir())}})
        return rnd

    def fingerprint(self, output) -> str:
        digest = hashlib.sha256()
        for name, data in output["files"].items():
            digest.update(name.encode() + b"\0" + data)
        return json.dumps(output["printed"], sort_keys=True) + digest.hexdigest()

    def check(self, corpora, first: Round, captured, seed: int) -> Verdict:
        verdict = Verdict()
        stopwords = ref.read_stopwords(STOPWORDS_FILE)
        rnd = random.Random(seed)
        exps = []
        docs_per_call = self.shape.unlabeled
        for i, (corpus, output) in enumerate(zip(corpora, first.outputs)):
            exp = expected_model(ref.read_labeled(corpus.root), self.features,
                                 stopwords)
            exps.append(exp)
            failed = {name for j, name in first.failed_calls if j == i}
            files, printed = output["files"], output["printed"]
            checks = {
                "cli.build": lambda: self._check_build(
                    exp, files, printed["cli.build"], rnd),
                "cli.compile": lambda: self._check_compile(
                    exp, files, printed["cli.compile"]),
            }
            for name, check in checks.items():
                if name in failed:
                    continue
                try:
                    problems = check()
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
                if problems:
                    verdict.fail(1, f"corpus {i}: {name}: {problems[0]}")
            docs = ref.read_unlabeled(corpus.unlabeled)
            rows = [ref.row(ref.terms_of(text, stopwords), exp.vocab)
                    for _, text in docs]
            for m in self.measures:
                name = f"cli.classify_{m}"
                if name in failed:
                    continue
                try:
                    records = [json.loads(line) for line in
                               files[f"predictions_{m}.jsonl"].decode().splitlines()]
                    ids = [r["id"] for r in records]
                except (KeyError, TypeError, ValueError) as exc:
                    verdict.fail(docs_per_call, f"corpus {i}: {name}: "
                                 f"unreadable output: {exc!r}")
                    continue
                if ids != [d[0] for d in docs]:
                    verdict.fail(docs_per_call, f"corpus {i}: {name} ids differ")
                    continue
                wrong = 0
                for record, r in zip(records, rows):
                    category, mean, chosen = ref.predict(exp.rules, r, m,
                                                         exp.categories)
                    want = {
                        "id": record["id"],
                        "category": category or "UNCLASSIFIABLE",
                        "distribution": ([round(float(f), 12) for f in mean]
                                         if mean else None),
                        "activated_intents": [2 * k for k in chosen],
                        "fired_vertices": [2 * k + 1 for k in chosen],
                    }
                    # fields the record adds beyond these are not checked
                    wrong += {k: record.get(k) for k in want} != want
                if wrong:
                    verdict.fail(wrong, f"corpus {i}: {name}: {wrong} predictions "
                                 "differ from reading the lattice directly")
        for problem in check_captured(exps, captured, seed):
            verdict.fail(1, problem)
        return verdict

    @staticmethod
    def _check_build(exp: Expected, files, printed: str, rnd) -> list[str]:
        data = json.loads(files["lattice.json"])
        oidx = {o: i for i, o in enumerate(data["objects"])}
        aidx = {a: j for j, a in enumerate(data["attributes"])}
        concepts = [(_mask(oidx, c["extent"]), _mask(aidx, c["intent"]))
                    for c in data["concepts"]]
        covers = {(a, b) for a, b in data["covers"]}
        problems = check_lattice(exp, data["objects"], data["attributes"],
                                 concepts, covers, data["top"], data["bottom"],
                                 rnd)
        dot = files["hasse.dot"].decode().splitlines()
        edges = sum(1 for line in dot if "->" in line)
        nodes = sum(1 for line in dot if "[label=" in line)
        if (edges, nodes) != (len(covers), len(concepts)):
            problems.append(f"DOT has {edges} edges and {nodes} nodes for "
                            f"{len(covers)} covers and {len(concepts)} concepts")
        n, e = len(concepts), len(covers)
        if printed != f"{n} concept{'s' * (n != 1)}, {e} edge{'s' * (e != 1)}\n":
            problems.append(f"build printed {printed!r}")
        return problems

    @staticmethod
    def _check_compile(exp: Expected, files, printed: str) -> list[str]:
        data = json.loads(files["model.json"])
        if data["categories"] != exp.categories or data["vocabulary"] != exp.vocab:
            return ["model categories or vocabulary differ"]
        facts = data["facts"]
        rules = []
        for rule in data["rules"]:
            premise, conclusion = facts[rule["premise"]], facts[rule["conclusion"]]
            if premise["kind"] != "intent" or conclusion["kind"] != "extent":
                return ["rule wiring does not join an intent to an extent fact"]
            rules.append((sum(1 << a for a in premise["attributes"]),
                          tuple(Fraction(n, d)
                                for n, d in conclusion["distribution"])))
        problems = check_rules(exp, rules)
        want = f"{len(facts)} facts, {len(data['rules'])} rules\n"
        if printed != want or len(facts) != 2 * len(rules):
            problems.append(f"compile printed {printed!r}")
        return problems


# Sizes are set so that one round takes a few seconds on the pure-Python
# kernels of a 2-core machine; README.md gives the make-up and timings.
# Why each workload exists is stated in BENCHMARK.json, which gates on the
# first two only (see README.md); evaluate-text runs when asked for.
WORKLOADS = {
    w.name: w for w in (
        # wide lattice: merge, Hasse covers and compile dominate
        ExperimentWorkload(
            name="train-wide",
            shape=CorpusShape(docs_per_category=70, unlabeled=0,
                              background=2000,
                              doc_tokens=38, topic_share=0.35),
            corpora=4, features=100, measures=("inner",), split=0.9),
        # per-document classify and engine dominate; lattice/model file I/O
        CliWorkload(
            name="cli-classify",
            shape=CorpusShape(docs_per_category=60, unlabeled=60,
                              background=2000,
                              doc_tokens=38, topic_share=0.35),
            corpora=4, features=60),
        # thousands of candidate terms: text preparation and baselines dominate
        ExperimentWorkload(
            name="evaluate-text",
            shape=CorpusShape(docs_per_category=320, unlabeled=0,
                              background=8000,
                              doc_tokens=30, topic_share=0.3),
            corpora=1, features=20, measures=ref.MEASURES),
    )
}
