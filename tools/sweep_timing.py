#!/usr/bin/env python3
"""Time exhaustive sweeps on finite models, by carrier size and variable count.

- ``sweeps``: ``check_equation`` with ``Exhaustive()`` on ``chain:n`` for n in
  ``SIZES`` (2n+1 elements) and k = 2 or 3 variables, once per variable order
  of two forms: the sum permutation ``(a (+) b) (+) c = c (+) (b (+) a)``,
  which is valid and sweeps every valuation, and the associativity instance
  ``a (+) (b (+) c) = (a (+) b) (+) c``, which fails at an early witness.
  With k = 2 the orders are those of ``x, y, x``.
- ``batteries``: each of the four classification batteries (quasi, strong,
  flat, star) on each catalog view of at most 25 elements and on the 49-
  and 81-element product models in both signatures, as ``classify`` runs
  them (``models._battery`` with the model's battery cache emptied before
  each run): one sweep of one tape per battery where a sweep over all its
  variables has at most ``models.WIDE`` valuations.  Otherwise, on a
  product, the battery runs on each factor, and one exhaustive
  ``check_equation`` runs on the product for each equation that fails on a
  factor; on any other model, one runs per equation.

Each entry is the median over ``REPEAT`` runs, in milliseconds. The formulas
are parsed once and kept alive, so their tapes are compiled once and every
run times the sweep itself. The script re-executes itself with glibc's
malloc thresholds fixed as ``bench/run.py`` fixes them, so that the large
arrays come from a heap that is never trimmed and the times do not depend on
when glibc raised its thresholds. The output is one JSON line. Run from the
repository root:

    python3 tools/sweep_timing.py
"""

from __future__ import annotations

import itertools
import json
import os
import pathlib
import platform
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from sqmv import models  # noqa: E402
from sqmv.semantics import Exhaustive, Verdict, check_equation  # noqa: E402
from sqmv.syntax import Sig, parse  # noqa: E402

SIZES = (20, 40, 70)
REPEAT = 7  # runs per entry; the median counts
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
              "MALLOC_TRIM_THRESHOLD_": str(2**30)}
PRODUCT_49 = "product:chain:3,flatten:chain:3:0"
PRODUCT_81 = "product:(product:chain:1,flatten:chain:1:0),(product:chain:1,flatten:chain:1:0)"
FORMS = {
    "sum": "({0} (+) {1}) (+) {2} = {2} (+) ({1} (+) {0})",
    "assoc": "{0} (+) ({1} (+) {2}) = ({0} (+) {1}) (+) {2}",
}


def median_ms(fn) -> float:
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        times.append(1000 * (time.perf_counter() - start))
    return round(statistics.median(times), 3)


def sweeps() -> dict:
    report = {}
    for n, k in itertools.product(SIZES, (2, 3)):
        m = models.resolve(f"chain:{n}")
        names = ("x", "y", "z")[:k]
        orders = dict.fromkeys(itertools.permutations(names + names[:3 - k]))
        entry = report[f"n={n} k={k}"] = {}
        for form, text in FORMS.items():
            for order in orders:
                lhs, rhs = (parse(side, Sig.MV) for side in text.format(*order).split(" = "))
                verdict = check_equation(lhs, rhs, m, Exhaustive()).verdict
                if form == "sum" and verdict is not Verdict.VALID_EXHAUSTIVE:
                    raise AssertionError(f"{text.format(*order)} fails on chain:{n}")
                entry[f"{form} {''.join(order)}"] = median_ms(
                    lambda: check_equation(lhs, rhs, m, Exhaustive()))
    return report


def batteries() -> dict:
    views = [v for name in models.FINITE_CATALOG for v in (name, name + "@w")
             if len(models.resolve(v).elements) <= 25]
    report = {}
    for view in views + [PRODUCT_49, PRODUCT_49 + "@w", PRODUCT_81, PRODUCT_81 + "@w"]:
        m = models.resolve(view)
        entry = report[view] = {}
        for name in models._BATTERIES:
            def run():
                m._batteries.pop(name, None)
                models._battery(m, name)
            entry[name] = median_ms(run)
    return report


def main() -> int:
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **MALLOC_ENV})
    report = {"python": platform.python_version(), "numpy": np.__version__,
              "repeat": REPEAT, "sweeps": sweeps(), "batteries": batteries()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
