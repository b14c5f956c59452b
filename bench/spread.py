"""Run workloads over several seeds and report each metric's median,
quartiles and spread (q3 - q1) / median.

    python3 bench/spread.py --workload finite-exhaustive --seeds 1 10 --seconds 22
    python3 bench/spread.py --workload sampled-standard cli-cold --out bench/BENCH_1.json

Runs are sequential, one process at a time.  The per-run result lines are
appended to ``bench/out/spread-<workload>.jsonl``.  ``--out`` merges the
summary, with the environment of the runs, into a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(results: list[dict]) -> dict:
    """Median, quartiles and relative spread of each metric over runs."""
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3, "unit": first["unit"],
                     "spread": (q3 - q1) / med if med else None}
    return out


def run_seeds(workload: str, seeds: range, seconds: float, trace: int) -> list[dict]:
    os.makedirs(os.path.join(ROOT, "bench", "out"), exist_ok=True)
    log = os.path.join(ROOT, "bench", "out", f"spread-{workload}.jsonl")
    results = []
    with open(log, "a", encoding="utf-8") as fh:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=900)
            if proc.returncode != 0:
                raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            result["environment"] = json.loads(lines[-2])["environment"]
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return results


def write_summary(path: str, workload: str, results: list[dict], seconds: float) -> None:
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    env = dict(results[0]["environment"])
    env.pop("seed", None)
    data.setdefault("workloads", {})[workload] = {
        "environment": env, "seconds": seconds,
        "seeds": [r["environment"]["seed"] for r in results],
        "correct": all(r["correct"] for r in results),
        "metrics": summarize(results),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, nargs="+")
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 10), metavar=("FIRST", "LAST"))
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="JSON file to merge the summaries into")
    args = ap.parse_args(argv)

    ok = True
    for workload in args.workload:
        results = run_seeds(workload, range(args.seeds[0], args.seeds[1] + 1),
                            args.seconds, args.trace)
        ok = ok and all(r["correct"] for r in results)
        print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, row in summarize(results).items():
            spread = row["spread"] if row["spread"] is not None else float("nan")
            print(f"{name:44s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                  f"{spread:8.3f}")
        if args.out:
            write_summary(args.out, workload, results, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
