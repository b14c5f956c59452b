#!/usr/bin/env python3
"""Time the syntax layer on the packaged proof scripts.

- ``parse`` runs on every formula line (hypotheses and numbered lines) of the
  packaged certificates and L* fixtures, and ``print_term`` on each line's term;
- ``match_schema`` runs on every (schema, formula, bindings) call that
  ``check_proof`` makes while checking those scripts;
- ``parse_script`` runs on each whole script.

Each ``parse``, ``print_term`` and ``match_schema`` call is timed on its own
(best of ``REPEAT`` rounds of ``NUMBER`` runs). The output is one JSON object:
per function, the number of calls, the median and the 90th percentile of the
per-call times in microseconds, and their sum in milliseconds (one pass over
all the calls). Under ``parse_script`` it gives, per script, the median of
``FRESH`` first parses (``first_ms``: the script's first ``parse_script``
call in a fresh process, which parses the scripts once each, in order) and
the median of ``NUMBER`` repeats in this process while one parse of the
script is kept live (``repeat_ms``), and both sums over all the scripts. Run
from the repository root:

    python3 tools/syntax_timing.py
"""

from __future__ import annotations

import json
import pathlib
import platform
import re
import statistics
import subprocess
import sys
import time
import timeit

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sqmv.proofkit import checker, parse_script, standard_registry  # noqa: E402
from sqmv.syntax import Sig, match_schema, parse, print_term  # noqa: E402

FIXTURES = ROOT / "src" / "sqmv" / "fixtures"
# the formula of a hypothesis or of a numbered proof line
_FORMULA = re.compile(r"^\s*(?:hyp:|\d+\.)\s*(.+?)\s*(?:;|$)")
NUMBER = 20  # runs per timing round
REPEAT = 3  # rounds per call; the best counts
FRESH = 5  # fresh processes that time each script's first parse


def script_paths() -> list[pathlib.Path]:
    return [p for sub in ("derived", "lstar") for p in sorted((FIXTURES / sub).glob("*.sqlp"))]


def scripts() -> list[str]:
    return [p.read_text(encoding="utf-8") for p in script_paths()]


def first_parses_ms() -> list[float]:
    """Each script's first ``parse_script`` call in this process, in order,
    in milliseconds; each parse is dropped before the next one starts."""
    times = []
    for text in scripts():
        start = time.perf_counter()
        parse_script(text)
        times.append(1000 * (time.perf_counter() - start))
    return times


def parse_script_ms() -> dict:
    """Per script: the median first parse over ``FRESH`` fresh processes,
    and the median of ``NUMBER`` repeats here with one parse kept live."""
    code = "import json, syntax_timing; print(json.dumps(syntax_timing.first_parses_ms()))"
    fresh = [json.loads(subprocess.run([sys.executable, "-c", code], cwd=ROOT / "tools",
                                       check=True, capture_output=True, text=True).stdout)
             for _ in range(FRESH)]
    report = {}
    for path, text, firsts in zip(script_paths(), scripts(), zip(*fresh)):
        kept = parse_script(text)  # noqa: F841  live nodes, as in a process that checks it
        repeats = timeit.repeat(lambda: parse_script(text), number=1, repeat=NUMBER)
        report[path.stem] = {"first_ms": round(statistics.median(firsts), 3),
                             "repeat_ms": round(1000 * statistics.median(repeats), 3)}
    return {"scripts": report,
            "first_sum_ms": round(sum(r["first_ms"] for r in report.values()), 3),
            "repeat_sum_ms": round(sum(r["repeat_ms"] for r in report.values()), 3)}


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
    kept = [parse(*line) for line in lines]  # live nodes, as while a script is checked
    report = {
        "python": platform.python_version(),
        "scripts": len(texts),
        "parse": per_call_us(parse, lines),
        "print_term": per_call_us(print_term, [(t,) for t in kept]),
        "match_schema": per_call_us(match_schema, matches),
        "parse_script": parse_script_ms(),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
