"""Command-line interface.

Subcommands wire the pipeline together: ``build`` turns a context CSV (or
a labeled corpus directory) into a lattice file, ``compile`` turns a
lattice plus labels into a model file, ``classify`` scores documents or
vector rows against a model, ``evaluate`` runs the end-to-end experiment,
and ``inspect`` summarizes a context, lattice, model or report file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .classify import MEASURES, classify, parse_activation
from .compiler import (CellularModel, compile_model, load_fixture_model,
                       load_model, model_from_dict, save_model)
from .context import load_context_csv
from .errors import FormatError, LatticeCellError, read_converted, write_json
from .evaluate import BASELINES, PipelineConfig, run_experiment
from .lattice import (ConceptLattice, build_lattice, lattice_from_dict,
                      lattice_to_dot, load_lattice, save_lattice)
from .textprep import (DEFAULT_FEATURE_COUNT, DocumentVector, Vocabulary,
                       build_context, default_stopwords, load_corpus,
                       load_documents, load_stopwords, train_vectors,
                       vectorize)

UNCLASSIFIABLE = "UNCLASSIFIABLE"


def _count(n: int, noun: str) -> str:
    """``n`` and ``noun``, plural unless ``n`` is 1: "1 rule", "7 rules"."""
    return f"{n} {noun}{'s' * (n != 1)}"


def _stopwords(args) -> frozenset[str]:
    if args.stopwords:
        return load_stopwords(args.stopwords)
    return default_stopwords()


def _labels_from_csv(path: Path) -> dict[str, str]:
    import csv

    labels: dict[str, str] = {}
    try:
        # utf-8-sig drops the byte-order mark some spreadsheets write
        with path.open(newline="", encoding="utf-8-sig") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                if len(row) != 2:
                    raise FormatError(
                        f"{path}: row {lineno}: expected 'object_id,category'")
                if not row[1]:
                    raise FormatError(f"{path}: row {lineno}: object "
                                      f"{row[0]!r} has an empty category")
                if row[0] in labels:
                    raise FormatError(
                        f"{path}: row {lineno}: repeated object id {row[0]!r}")
                labels[row[0]] = row[1]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return labels


def cmd_build(args) -> int:
    source = Path(args.input)
    if source.is_dir():
        docs = load_corpus(source)
        vocab, vectors = train_vectors(docs, args.features,
                                       stopwords=_stopwords(args))
        ctx = build_context(vectors, vocab)
    else:
        ctx = load_context_csv(source)
    lattice = build_lattice(ctx)
    save_lattice(lattice, args.output)
    if args.dot:
        Path(args.dot).write_text(lattice_to_dot(lattice), encoding="utf-8")
    print(f"{_count(len(lattice.concepts), 'concept')}, "
          f"{_count(len(lattice.covers), 'edge')}")
    return 0


def cmd_compile(args) -> int:
    if args.paper_fixture:
        model = load_fixture_model()
    else:
        if not args.lattice or not args.labels:
            raise LatticeCellError("compile needs LATTICE and LABELS "
                                   "(or --paper-fixture)")
        lattice = load_lattice(Path(args.lattice))
        labels = _labels_from_csv(Path(args.labels))
        categories = sorted({labels[o] for o in lattice.context.object_ids
                             if o in labels})
        model = compile_model(lattice, labels, categories)
    save_model(model, args.output)
    print(f"{_count(model.n_facts, 'fact')}, {_count(model.n_rules, 'rule')}")
    return 0


def _vectors_from_csv(path: Path, vocabulary) -> list[DocumentVector]:
    """Rows of precomputed bits; header must carry the model vocabulary."""
    ctx = load_context_csv(path)
    if ctx.attribute_names != tuple(vocabulary):
        raise LatticeCellError(
            f"{path}: columns do not match the model vocabulary")
    return [DocumentVector(row, ctx.n_attributes, None, oid)
            for oid, row in zip(ctx.object_ids, ctx.rows)]


def _input_vectors(args, model) -> list[DocumentVector]:
    vectors: list[DocumentVector] = []
    stopwords = _stopwords(args)
    vocab = Vocabulary(model.vocabulary)  # builds its token map once
    for item in args.inputs:
        path = Path(item)
        if path.suffix.lower() == ".csv":
            vectors.extend(_vectors_from_csv(path, model.vocabulary))
        else:
            for doc in load_documents(path):
                vectors.append(vectorize(doc, vocab, stopwords=stopwords))
    return vectors


def cmd_classify(args) -> int:
    if args.paper_fixture and args.model is not None:
        # with --paper-fixture the positional MODEL slot is really an input
        args.inputs = [args.model, *args.inputs]
    elif not args.paper_fixture and args.model is None:
        raise LatticeCellError("classify needs MODEL (or --paper-fixture)")
    # checked here too, as ``classify`` checks the policy only per document
    parse_activation(args.activation)
    model = load_fixture_model() if args.paper_fixture else load_model(args.model)
    vectors = _input_vectors(args, model)
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for v in vectors:
            trace: list[str] | None = [] if args.trace else None
            pred = classify(model, v, args.similarity, args.activation, trace)
            record = {
                "id": v.doc_id,
                "category": (UNCLASSIFIABLE if pred.category is None
                             else pred.category),
                "distribution": ([round(c / pred.distribution.total, 12)
                                  for c in pred.distribution.counts]
                                 if pred.distribution else None),
                "activated_intents": list(pred.activated_intents),
                "fired_vertices": list(pred.fired_vertices),
            }
            print(json.dumps(record, ensure_ascii=False), file=out)
            if args.trace and trace:
                for cycle, snap in enumerate(trace):
                    head = "initial state" if cycle == 0 else f"after cycle {cycle}"
                    print(f"# --- {v.doc_id or 'document'}: {head} ---",
                          file=sys.stderr)
                    print(snap, file=sys.stderr)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_evaluate(args) -> int:
    measures = tuple(MEASURES) if args.similarity == "all" else tuple(
        m.strip() for m in args.similarity.split(",") if m.strip())
    baselines = tuple(b.strip() for b in (args.baselines or "").split(",")
                      if b.strip())
    config = PipelineConfig(
        measures=measures,
        activation=args.activation,
        features=args.features,
        stopwords_path=Path(args.stopwords) if args.stopwords else None,
        split=args.split,
        seed=args.seed,
        baselines=baselines,
    )
    report = run_experiment(Path(args.corpus), config)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "report.json", report.to_json_dict())
    (outdir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    write_json(outdir / "timings.json", report.timings)
    print(report.to_text())
    t = report.timings
    print(f"lattice build: {t['lattice_build_s']:.6f}s  "
          f"compile: {t['compile_s']:.6f}s")
    for name, row in t["rows"].items():
        print(f"classify[{name}]: total {row['classify_total_s']:.6f}s, "
              f"per document {row['per_document_s']:.6f}s")
    return 0


def cmd_inspect(args) -> int:
    path = Path(args.file)
    if path.suffix.lower() == ".csv":
        ctx = load_context_csv(path)
        print(f"context: {_count(ctx.n_objects, 'object')} x "
              f"{_count(ctx.n_attributes, 'attribute')}")
        density = sum(r.bit_count() for r in ctx.rows)
        print(f"incidence ones: {density}")
        return 0
    item = read_converted(path, _inspected)
    if isinstance(item, ConceptLattice):
        ctx = item.context
        print(f"lattice: {_count(len(item.concepts), 'concept')}, "
              f"{_count(len(item.covers), 'edge')}, "
              f"{_count(ctx.n_objects, 'object')} x "
              f"{_count(ctx.n_attributes, 'attribute')}")
    elif isinstance(item, CellularModel):
        print(f"model: {_count(item.n_facts, 'fact')}, "
              f"{_count(item.n_rules, 'rule')}, "
              f"categories: {', '.join(item.categories)}, "
              f"{_count(len(item.vocabulary), 'vocabulary term')}")
    elif isinstance(item, dict) and "averaging" in item:
        # timings.json has "rows" too
        try:
            n_rows, categories = len(item["rows"]), ", ".join(item["categories"])
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: malformed report document: {exc}") from exc
        print(f"report: {_count(n_rows, 'configuration')}, "
              f"categories: {categories}")
    else:
        print("unrecognized file")
        return 1
    return 0


def _inspected(data):
    """A lattice or model document as the lattice or model it holds; any
    other JSON value as is."""
    if isinstance(data, dict):
        if "concepts" in data:
            return lattice_from_dict(data)
        if "facts" in data:
            return model_from_dict(data)
    return data


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stopwords", metavar="FILE",
                        help="stopword list, one term per line "
                             "(default: bundled French list)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticecell",
        description="Concept-lattice text categorization with a Boolean "
                    "cellular rule engine")
    parser.add_argument("--version", action="version", version=f"latticecell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a concept lattice")
    p.add_argument("input", help="context CSV or labeled corpus directory")
    p.add_argument("-o", "--output", required=True, help="lattice JSON path")
    p.add_argument("--dot", metavar="FILE", help="also write a DOT diagram")
    p.add_argument("--features", type=int, default=DEFAULT_FEATURE_COUNT,
                   help="vocabulary size when building from a corpus")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("compile", help="compile a lattice into a model")
    p.add_argument("lattice", nargs="?", help="lattice JSON path")
    p.add_argument("labels", nargs="?",
                   help="CSV mapping object_id,category")
    p.add_argument("-o", "--output", required=True, help="model JSON path")
    p.add_argument("--paper-fixture", action="store_true",
                   help="emit the bundled reference model instead")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("classify", help="classify documents against a model")
    p.add_argument("model", nargs="?", help="model JSON path")
    p.add_argument("inputs", nargs="+",
                   help="text files, directories, or vector CSVs")
    p.add_argument("--paper-fixture", action="store_true",
                   help="use the bundled reference model")
    p.add_argument("--similarity", choices=MEASURES, default="inner")
    p.add_argument("--activation", default="max",
                   help="max, topk:K, or threshold:T")
    p.add_argument("--trace", action="store_true",
                   help="dump per-cycle engine snapshots to stderr")
    p.add_argument("-o", "--output", help="write JSON lines here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="run the end-to-end experiment")
    p.add_argument("corpus", help="corpus root (category dirs, or train/ + test/)")
    p.add_argument("-o", "--output", required=True, help="report directory")
    p.add_argument("--similarity", default="all",
                   help="comma list of measures, or 'all'")
    p.add_argument("--activation", default="max")
    p.add_argument("--features", type=int, default=DEFAULT_FEATURE_COUNT)
    p.add_argument("--baselines", default="",
                   help=f"comma list from: {', '.join(BASELINES)}")
    p.add_argument("--split", type=float, default=2 / 3,
                   help="train fraction for the seeded random split")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect", help="summarize a context, lattice, model "
                                       "or report file")
    p.add_argument("file")
    p.set_defaults(func=cmd_inspect)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses. Building one takes about a
    millisecond, and it is full of reference cycles, garbage that only a
    full collection frees."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (LatticeCellError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
