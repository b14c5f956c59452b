"""Verdicts, witnesses, sample counts and error texts match the golden records.

The records are written by ``tools/golden_checks.py``; see its docstring for
what they cover and when they may be regenerated.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import golden_checks  # noqa: E402


def test_batch_checks_match_golden_records():
    with open(golden_checks.OUT, encoding="utf-8") as fh:
        expected = json.load(fh)["records"]
    # a JSON round trip turns tuples into lists, as in the file
    actual = json.loads(json.dumps(golden_checks.records()))
    assert list(actual) == list(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"{len(changed)} records differ, first: {changed[:5]}"
