"""Every committed ``BENCH_*.json`` holds the records of correct perfbench
runs: ``perfbench/run.py --out`` writes one record for one workload and a
list of records for ``--workload all``."""

import json
import numbers
from pathlib import Path

import pytest

BENCH_FILES = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))


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
