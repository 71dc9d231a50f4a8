"""In-memory spans and counters for the benchmark's traced run.

``instrument`` wraps the package's public functions under every name its
modules look them up by (``latticecell.backend.merge_concept_pairs``,
``latticecell.classify.activate``, ``latticecell.evaluate.build_vocabulary``
and so on) and restores the originals on exit. Each wrapped call records
one span (name, start, end, parent) and may bump counters from its
arguments and result. Nothing is written until the benchmark ends; the
package itself is not changed.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Recorder:
    """Spans and counters of one traced round.

    ``captured`` keeps the results of a few calls (lattices, models,
    vocabularies) so the traced run can also check intermediate products
    against the references.
    """

    spans: list[tuple[str, float, float, int]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(int))
    captured: dict[str, list] = field(default_factory=lambda: defaultdict(list))
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def capture(self, name: str, value) -> None:
        self.captured[name].append(value)

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children do not overlap.
        """
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(total), dict(own)


def _activate_name(args, kwargs) -> str:
    measure = args[2] if len(args) > 2 else kwargs.get("measure", "inner")
    return f"classify.activate_{measure}"


def _targets():
    """(module, function, span name or None for count-only, after-hook)."""
    # the package re-exports a function named ``classify``, so fetch the
    # modules themselves rather than package attributes
    backend, classify, compiler, engine, evaluate, lattice, textprep = (
        importlib.import_module(f"latticecell.{name}")
        for name in ("backend", "classify", "compiler", "engine", "evaluate",
                     "lattice", "textprep"))

    def candidates(rec, args, kwargs, result):
        rec.count("textprep.candidates", len(result))

    def merge(rec, args, kwargs, result):
        rec.count("backend.merge_calls")
        rec.count("backend.merge_pairs", len(args[0]) * len(args[2]))
        rec.count("backend.merge_distinct", len(result[0]))

    def built(rec, args, kwargs, result):
        rec.count("lattice.concepts", len(result.concepts))
        rec.capture("lattice", result)

    def covered(rec, args, kwargs, result):
        # counted where the program computes them, so the count never
        # makes the program compute covers it would skip
        rec.count("lattice.cover_edges", len(result))

    def compiled(rec, args, kwargs, result):
        rec.count("compiler.rules", result.engine_template.n_rules)
        rec.capture("model", result)

    def selected(rec, args, kwargs, result):
        rec.capture("vocabulary", result)

    def activated(rec, args, kwargs, result):
        rec.count("classify.intents_scored", len(args[0].intent_facts))
        rec.count("classify.activated", len(result))

    def classified(rec, args, kwargs, result):
        rec.count("classify.docs")
        rec.count("classify.unclassifiable", result.category is None)

    def inferred(rec, args, kwargs, result):
        rec.count("engine.runs")
        rec.count("engine.cycles", result.cycles)
        rec.count("engine.fired", result.er.bit_count())

    def counted(name):
        return lambda rec, args, kwargs, result: rec.count(name)

    return [
        (textprep, "load_corpus", "textprep.load_corpus", None),
        (textprep, "load_documents", "textprep.load_documents", None),
        (textprep, "build_vocabulary", "textprep.build_vocabulary", None),
        (textprep, "candidate_terms", "textprep.candidate_terms", candidates),
        (textprep, "select_features", "textprep.select_features", selected),
        (textprep, "information_gain", None,
         counted("textprep.information_gain_calls")),
        (textprep, "vectorize", "textprep.vectorize",
         counted("textprep.vectorize_calls")),
        (textprep, "build_context", "textprep.build_context", None),
        (backend, "merge_concept_pairs", "backend.merge", merge),
        (backend, "lower_covers", "backend.covers", covered),
        (lattice, "build_lattice", "lattice.build", built),
        (lattice, "save_lattice", "lattice.save", None),
        (lattice, "load_lattice", "lattice.load", None),
        (lattice, "lattice_to_dot", "lattice.dot", None),
        (compiler, "compile_model", "compiler.compile", compiled),
        (compiler, "distribution_of", "compiler.distribution", None),
        (compiler, "save_model", "compiler.save", None),
        (compiler, "load_model", "compiler.load", None),
        (classify, "classify", "classify.classify", classified),
        (classify, "activate", _activate_name, activated),
        (classify, "vote", "classify.vote", None),
        (engine, "run_inference", "engine.inference", inferred),
        (evaluate, "split_corpus", "evaluate.split", None),
        (evaluate, "baseline_naive_bayes", "evaluate.nb", None),
        (evaluate, "baseline_knn", "evaluate.knn", None),
        (evaluate, "metrics", "evaluate.metrics", None),
    ]


def _wrap(rec: Recorder, fn, name, after):
    if name is None:
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(rec, args, kwargs, result)
            return result
        return counting

    def traced(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        with rec.span(span_name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(rec, args, kwargs, result)
        return result
    return traced


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Wrap every target under each name a ``latticecell`` module binds it to."""
    patches = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "latticecell" or n.startswith("latticecell."))]
    for module, attr, name, after in _targets():
        fn = getattr(module, attr, None)
        if fn is None:  # a function the package no longer has reads 0
            continue
        wrapper = _wrap(rec, fn, name, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    patches.append((mod, key, value))
                    setattr(mod, key, wrapper)
    try:
        yield rec
    finally:
        for mod, key, value in reversed(patches):
            setattr(mod, key, value)
