"""Every committed ``BENCH_*.json`` holds the records of correct perfbench
runs: ``perfbench/run.py --out`` writes one record for one workload and a
list of records for ``--workload all``. Every ``BENCH_*_pairs.jsonl`` holds
alternating parent/change pairs of such runs, one JSON line per run."""

import json
import numbers
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
PAIRS_FILES = sorted(ROOT.glob("BENCH_*_pairs.jsonl"))
END_TO_END = ("docs_per_s", "setup_s", "peak_rss_mib")


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_records_correct_runs_with_per_layer_tables(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    records = data if isinstance(data, list) else [data]
    assert records
    for record in records:
        assert record["correct"] is True, record["workload"]
        assert record["failed"] == 0, record["workload"]
        table = record["per_layer"]
        assert isinstance(table, dict) and table, record["workload"]
        assert all(isinstance(v, numbers.Real) for v in table.values())


@pytest.mark.parametrize("path", PAIRS_FILES, ids=lambda p: p.name)
def test_pairs_file_alternates_parent_and_change_runs(path):
    """Each (workload, pair) is one ``parent`` and one ``change`` run with
    the same seed, run length and side run first; each workload runs
    either side first in some pair."""
    sides = defaultdict(dict)
    for line in path.read_text(encoding="utf-8").splitlines():
        run = json.loads(line)
        assert run["correct"] is True and run["failed"] == 0, run
        assert all(isinstance(run[m], numbers.Real) for m in END_TO_END), run
        key = run["workload"], run["pair"]
        assert run["side"] in ("parent", "change") and \
            run["side"] not in sides[key], run
        sides[key][run["side"]] = run
    assert sides
    firsts = defaultdict(set)
    for (workload, _), pair in sides.items():
        assert pair.keys() == {"parent", "change"}, (workload, pair)
        parent, change = pair["parent"], pair["change"]
        assert all(parent[k] == change[k] for k in ("seed", "first", "seconds"))
        assert parent["first"] in ("parent", "change")
        firsts[workload].add(parent["first"])
    assert all(first == {"parent", "change"} for first in firsts.values())
