#!/usr/bin/env python3
"""Time the syntax layer on the packaged proof scripts.

- ``parse`` runs on every formula line (hypotheses and numbered lines) of the
  packaged certificates and L* fixtures;
- ``match_schema`` runs on every (schema, formula, bindings) call that
  ``check_proof`` makes while checking those scripts.

Each call is timed on its own (best of ``REPEAT`` rounds of ``NUMBER``
runs). The output is one JSON object: per function, the number of calls, the
median and the 90th percentile of the per-call times in microseconds, and
their sum in milliseconds (one pass over all the calls). Run from the
repository root:

    python3 tools/syntax_timing.py
"""

from __future__ import annotations

import json
import pathlib
import platform
import re
import statistics
import sys
import timeit

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sqmv.proofkit import checker, parse_script, standard_registry  # noqa: E402
from sqmv.syntax import Sig, match_schema, parse  # noqa: E402

FIXTURES = ROOT / "src" / "sqmv" / "fixtures"
# the formula of a hypothesis or of a numbered proof line
_FORMULA = re.compile(r"^\s*(?:hyp:|\d+\.)\s*(.+?)\s*(?:;|$)")
NUMBER = 20  # runs per timing round
REPEAT = 3  # rounds per call; the best counts


def scripts() -> list[str]:
    return [p.read_text(encoding="utf-8")
            for sub in ("derived", "lstar") for p in sorted((FIXTURES / sub).glob("*.sqlp"))]


def match_calls(texts: list[str]) -> list[tuple]:
    """The ``match_schema`` calls that ``check_proof`` makes on ``texts``."""
    registry = standard_registry()
    calls = []

    def recording(pattern, ground, bindings=None):
        calls.append((pattern, ground, dict(bindings) if bindings else None))
        return match_schema(pattern, ground, bindings)

    checker.match_schema = recording
    try:
        for text in texts:
            checker.check_proof(parse_script(text), registry)
    finally:
        checker.match_schema = match_schema
    return calls


def per_call_us(fn, calls: list[tuple]) -> dict:
    times = [1e6 * min(timeit.repeat(lambda: fn(*args), number=NUMBER, repeat=REPEAT)) / NUMBER
             for args in calls]
    return {"calls": len(calls),
            "median_us": round(statistics.median(times), 3),
            "p90_us": round(statistics.quantiles(times, n=10)[-1], 3),
            "sum_ms": round(sum(times) / 1000, 3)}


def main() -> int:
    texts = scripts()
    lines = [(m[1], Sig.W) for text in texts
             for m in map(_FORMULA.match, text.splitlines()) if m]
    matches = match_calls(texts)
    kept = [parse(*line) for line in lines]  # noqa: F841  live nodes, as while a script is checked
    report = {
        "python": platform.python_version(),
        "scripts": len(texts),
        "parse": per_call_us(parse, lines),
        "match_schema": per_call_us(match_schema, matches),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
