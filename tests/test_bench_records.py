"""Each committed ``BENCH_<pr>.json`` benchmark record is well formed.

A record parses as JSON, its ``pr`` is the number in its file name, its
``parent_commit`` is a full 40-digit hex commit id, and it holds the
``change``, ``machine`` and ``perfbench`` entries that make records
comparable.  Only the files are read, no git history, so a shallow checkout
runs these tests too.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_well_formed(path):
    name = re.fullmatch(r"BENCH_([0-9]+)\.json", path.name)
    assert name, f"{path.name} is not BENCH_<pr>.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    assert type(record["pr"]) is int and record["pr"] == int(name.group(1))
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"])
    for key in ("change", "machine", "perfbench"):
        assert key in record, key
