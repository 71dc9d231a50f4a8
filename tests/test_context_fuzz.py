"""Fuzzing the context CSV reader: mutated bytes of the demo context either
load, and then survive a save/load round trip unchanged, or raise
FormatError."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import DATA
from latticecell import FormatError, load_context_csv, save_context_csv

DEMO_CSV = (DATA / "context.csv").read_bytes()

# bytes the reader treats specially, a few that are not UTF-8 on their own,
# and any byte at all
special_bytes = st.sampled_from(list(b',01"\r\n x')
                                + [0x00, 0x80, 0xc3, 0xe2, 0xff])
any_byte = special_bytes | st.integers(0, 255)


@st.composite
def mutated_csvs(draw):
    data = bytearray(DEMO_CSV)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(("insert", "delete", "replace",
                                       "duplicate-line")))
        if action == "insert":
            data[at:at] = bytes(draw(st.lists(any_byte, min_size=1,
                                              max_size=3)))
        elif action == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        elif action == "replace" and at < len(data):
            data[at] = draw(any_byte)
        elif action == "duplicate-line":
            start = data.rfind(b"\n", 0, at) + 1
            end = data.find(b"\n", at)
            end = len(data) if end < 0 else end + 1
            data[start:start] = data[start:end]
    return bytes(data)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root / "mutated.csv", root / "saved.csv"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=mutated_csvs())
def test_mutated_context_csv_loads_or_raises_format_error(paths, data):
    mutated, saved = paths
    mutated.write_bytes(data)
    try:
        ctx = load_context_csv(mutated)
    except FormatError:
        return
    save_context_csv(ctx, saved)
    assert load_context_csv(saved) == ctx
