"""sqmv benchmark: one workload per run, closed loop, one client, no threads.

    python3 bench/run.py --workload sampled-standard --seed 1 --seconds 22 --trace 0

With ``--trace 0`` the run sets up, warms up, then runs operations until
their summed wall time reaches ``--seconds`` and reports the end-to-end
metrics over the passes that completed, with every time scaled to a
nominal host speed by reference work timed in between (``speed``).  With
``--trace 1`` it times the workload's first ``trace_ops`` operations twice,
untraced and traced with a span around every sqmv call, flipping which of
the two runs first from one pass to the next, and derives the per-layer
metrics from the spans.  The
last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
full report (environment, error rate, sample counts), also written to
``bench/out/``.

``--check-determinism`` runs the traced op set in two fresh processes with
the same seed and compares their verdicts and counts.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from importlib import metadata

import spans as tr
import speed
import workloads as wl

SETUP_REPEATS = 7
WARMUP_SECONDS = 0.5
CLI_STARTUP_REPEATS = 5
STANDARD_W = ("square@w", "disk@w", "interval@w", "flat-standard@w")
# glibc raises its mmap and trim thresholds as a process frees large blocks,
# so array timings and peak memory depend on when that happened in a run.
# Fixed thresholds at the top of glibc's range put every run in the state a
# warm process reaches: arrays come from the heap, which is not trimmed, and
# the peak resident size is the heap's high-water mark.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
              "MALLOC_TRIM_THRESHOLD_": str(2**30)}


def op_stream(workload, seed: int, first: int = 0, passes: int | None = None):
    """The seeded operation sequence; pass ``p`` depends only on (seed, p)."""
    p = first
    while passes is None or p < first + passes:
        rng = random.Random(f"{workload.name}:{seed}:{p}")
        for op in workload.make_pass(rng, p):
            op.pass_no = p
            yield op
        p += 1


class Outcome:
    """Per-operation results.  Verdict records and input keys are kept only
    with ``detail``: a timed run keeps a few bytes per operation, so that its
    peak memory barely depends on how many operations fit in the window."""

    def __init__(self, detail: bool = False):
        self.detail = detail
        self.latencies = array("d")  # time inside sqmv calls, per op
        self.walls = array("d")      # wall time, per op
        self.passes = array("l")
        self.kinds: list[str] = []
        self.records: list = []
        self.keys: list = []
        self.errors: list[str] = []
        self.busy = 0.0

    def whole_pass_ops(self) -> int:
        """Operations in the passes that completed: the run stops inside the
        last one.  Every pass has the same mix, so metrics over whole passes
        do not depend on where a run happens to stop."""
        last = self.passes[-1]
        whole = sum(1 for p in self.passes if p != last)
        return whole or len(self.passes)


def run_one(op, rec: tr.Recorder, out: Outcome) -> None:
    """Run one operation and record its verdict and times in ``out``."""
    t0 = time.perf_counter()
    with rec.operation(op.kind):
        try:
            record = op.fn(rec)
        except wl.Mismatch as exc:
            record = "MISMATCH"
            out.errors.append(f"{op.kind}: {exc}")
        except Exception:  # every failure is counted and reported, never fatal
            record = "ERROR"
            out.errors.append(f"{op.kind}: {traceback.format_exc(limit=4)}")
    out.walls.append(time.perf_counter() - t0)
    out.busy += out.walls[-1]
    out.latencies.append(rec.op_time)
    out.passes.append(op.pass_no)
    out.kinds.append(op.kind)
    if out.detail:
        out.records.append([op.kind, record])
        out.keys.append(op.key)


def run_ops(ops, rec: tr.Recorder, seconds: float | None = None,
            max_ops: int | None = None, before=None, detail: bool = False) -> Outcome:
    """Run operations in order until their wall time reaches ``seconds``;
    ``before(out)``, if given, is called before each operation."""
    out = Outcome(detail)
    for op in ops:
        if seconds is not None and out.busy >= seconds:
            break
        if max_ops is not None and len(out.latencies) >= max_ops:
            break
        if before is not None:
            before(out)
        run_one(op, rec, out)
    return out


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy_version, "git_commit": commit, "seed": seed,
        "platform": platform.platform(),
    }


def setup_time(name: str) -> tuple[float, float]:
    """Set-up time (import sqmv + the workload's one-off set-up) in a fresh
    process, measured inside that process, and the mean time of the start-up
    reference timed just before and just after that process."""
    up = speed.START_UP.time()
    proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                           "--setup-child", "--workload", name],
                          capture_output=True, text=True, cwd=wl.ROOT, timeout=120)
    up = (up + speed.START_UP.time()) / 2
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed in a fresh process:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1]), up


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics


def untraced_run(workload, seed: int, seconds: float) -> tuple[dict, dict, Outcome]:
    """End-to-end metrics, with every time scaled to the nominal host speed
    (see ``speed``); the report keeps the unscaled values."""
    workload.setup()
    ref = workload.speed_reference
    ref.median_s()  # warm the reference up with the operations
    run_ops(op_stream(workload, seed, first=-1, passes=1), tr.Recorder(),
            seconds=WARMUP_SECONDS)
    track = speed.Track(ref)
    setups = []

    def before(out):
        track.maybe_sample(len(out.latencies), out.busy)
        # A fresh process's set-up time drifts with the machine's load over
        # seconds, so the set-up runs are spread evenly over the timed phase
        # instead of running back to back.
        if len(setups) < SETUP_REPEATS and len(setups) * seconds / SETUP_REPEATS <= out.busy:
            setups.append(setup_time(workload.name))

    out = run_ops(op_stream(workload, seed), tr.Recorder(), seconds=seconds, before=before)
    track.sample(len(out.latencies))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(workload.name))
    peak_rss_mb = workload.peak_rss_mb()
    n = out.whole_pass_ops()
    raw_ms = [x * 1000 for x in out.latencies[:n]]
    lat_ms = [track.scaled(i, ms) for i, ms in enumerate(raw_ms)]
    setup_raw = [s for s, _ in setups]

    def timings(lat, setup):
        return {
            "setup_s": metric(statistics.median(setup), "s"),
            "ops_per_s": metric(1000 * n / sum(lat), "1/s"),
            "op_ms.p50": metric(statistics.median(lat), "ms"),
            "op_ms.p90": metric(percentile(lat, 90), "ms"),
        }

    # set-up is import work in a fresh process, which the start-up reference follows
    metrics = timings(lat_ms, [speed.START_UP.scale(s, u) for s, u in setups])
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    kinds: dict = {}
    for kind, ms in zip(out.kinds, lat_ms):
        kinds.setdefault(kind, []).append(ms)
    refs_ms = [1000 * x for x in track.seconds]
    report = {
        "error_rate": len(out.errors) / len(out.latencies),
        "samples": {"op_ms.p50": n, "op_ms.p90": n, "beyond_p90": sum(
            1 for x in lat_ms if x > metrics["op_ms.p90"]["value"]),
            "setup_s": len(setups)},
        "ops_run": len(out.latencies),
        "whole_passes": len(set(out.passes[:n])),
        "unscaled": timings(raw_ms, setup_raw),
        "speed": {"reference": ref.name, "nominal_ms": ref.nominal_ms, "runs": len(refs_ms),
                  "ms": dict(zip(("q1", "median", "q3"), statistics.quantiles(refs_ms, n=4))),
                  "setup_start_up_ms": [1000 * u for _, u in setups]},
        "setup_runs_s": setup_raw,
        "timed_s": out.busy,
        "by_kind": {k: {"count": len(v), "share": len(v) / n,
                        "median_ms": statistics.median(v)} for k, v in sorted(kinds.items())},
    }
    return metrics, report, out


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics


def designated_probe() -> list[dict]:
    """A first and a repeated designated_set call on each standard W view."""
    api = wl.load_sqmv()
    rec = tr.Recorder(tracing=True)
    with rec.operation("designated-probe"):
        for name in STANDARD_W:
            m = api.md.resolve(name)
            rec.call("semantics.designated_set.first", api.sem.designated_set, m)
            rec.call("semantics.designated_set.repeat", api.sem.designated_set, m)
    return rec.spans


def cli_startup_probe() -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(wl.SRC))
    rec = tr.Recorder(tracing=True)
    with rec.operation("cli-startup-probe"):
        for _ in range(CLI_STARTUP_REPEATS):
            for name, code in (("cli.interpreter", "pass"), ("cli.import", "import sqmv.cli")):
                # run_child waits without polling, which would round the time up
                status, _, _ = rec.call(name, wl.run_child, [sys.executable, "-c", code], "", env)
                if status != 0:
                    raise RuntimeError(f"{code!r} failed with exit code {status}")
    return rec.spans


def paired_run(workload, seed: int, rec: tr.Recorder) -> tuple[Outcome, Outcome]:
    """The first ``trace_ops`` operations twice, from two copies of the
    seeded sequence: untraced, and traced with ``rec``.  The two copies of an
    operation run back to back; the untraced one runs first in even passes
    and second in odd ones, so that over an even number of passes each
    operation slot runs first as often in either phase."""
    plain, traced = Outcome(), Outcome(detail=True)
    plain_rec = tr.Recorder()
    pairs = zip(op_stream(workload, seed), op_stream(workload, seed))
    for a, b in itertools.islice(pairs, workload.trace_ops):
        order = [(a, plain_rec, plain), (b, rec, traced)]
        for op, r, out in order if a.pass_no % 2 == 0 else order[::-1]:
            run_one(op, r, out)
    return plain, traced


def traced_run(workload, seed: int) -> tuple[dict, dict, Outcome, list[dict]]:
    """Per-layer metrics from the workload's own operations only; the
    designated_set and CLI start-up probes give the metrics named after them.
    Layers the workload does not reach report 0."""
    workload.setup()
    probes = designated_probe()
    # a whole warm-up pass, so that the heap has reached its high-water mark
    # before the pairs start: otherwise the first phase to run pays for it
    run_ops(op_stream(workload, seed, first=-1, passes=1), tr.Recorder())
    rec = tr.Recorder(tracing=True, peak_memory_of=workload.peak_memory_of)
    plain, traced = paired_run(workload, seed, rec)
    tr.merge(probes, cli_startup_probe())
    metrics = layer_metrics(rec.spans, traced.keys)
    metrics.update(probe_metrics(probes))
    metrics["trace.overhead_ratio"] = metric(plain.busy / traced.busy, "ratio")
    summary = tr.summarize(rec.spans)
    spans = list(rec.spans)
    tr.merge(spans, probes)
    outcome = Outcome()  # every operation of the run, for attempted and failed
    for part in (plain, traced):
        outcome.latencies += part.latencies
        outcome.errors += part.errors
    report = {
        "error_rate": len(outcome.errors) / max(len(outcome.latencies), 1),
        "ops_traced": len(traced.latencies),
        "untraced_s": plain.busy, "traced_s": traced.busy,
        "layers": summary["by_layer"], "spans_by_name": summary["by_name"],
    }
    return metrics, report, outcome, spans


def probe_metrics(spans: list[dict]) -> dict:
    by: dict = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def mean_ms(name):
        return 1000 * statistics.fmean(s["end"] - s["start"] for s in by[name])

    def median_ms(name):
        return 1000 * statistics.median(s["end"] - s["start"] for s in by[name])

    return {
        "semantics.designated_set.first_ms": metric(
            mean_ms("semantics.designated_set.first"), "ms"),
        "semantics.designated_set.repeat_ms": metric(
            mean_ms("semantics.designated_set.repeat"), "ms"),
        "cli.interpreter_ms": metric(median_ms("cli.interpreter"), "ms"),
        "cli.import_ms": metric(median_ms("cli.import"), "ms"),
    }


def layer_metrics(spans: list[dict], keys: list) -> dict:
    by: dict = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)

    def dur(ss):
        return sum(s["end"] - s["start"] for s in ss)

    def mean_ms(ss):
        return 1000 * dur(ss) / len(ss) if ss else 0.0

    def total(ss, attr):
        return sum(s.get(attr, 0) for s in ss)

    def rate(ss, attr):
        d = dur(ss)
        return total(ss, attr) / d if d else 0.0

    def prefixed(prefix):
        return [s for s in spans if s["name"].startswith(prefix)]

    m = {}
    parse = by.get("syntax.parse", [])
    m["syntax.parse.ms"] = metric(mean_ms(parse), "ms")
    m["syntax.parse.nodes_per_s"] = metric(rate(parse, "nodes"), "1/s")
    m["models.build.ms"] = metric(mean_ms(prefixed("models.build.")), "ms")
    cls = by.get("models.classify", [])
    m["models.classify.ms"] = metric(mean_ms(cls), "ms")
    m["models.classify.valuations"] = metric(total(cls, "valuations"), "count")
    m["models.classify.valuations_per_s"] = metric(rate(cls, "valuations"), "1/s")
    eqs = by.get("semantics.check_equation", [])
    m["semantics.check_equation.ms"] = metric(mean_ms(eqs), "ms")
    m["semantics.check_equation.valuations"] = metric(total(eqs, "valuations"), "count")
    m["semantics.check_equation.valuations_per_s"] = metric(rate(eqs, "valuations"), "1/s")
    m["semantics.check_equation.peak_mb"] = metric(
        max((s.get("peak_bytes", 0) for s in eqs), default=0) / 2**20, "MB")
    ents = by.get("semantics.check_entailment", [])
    m["semantics.check_entailment.ms"] = metric(mean_ms(ents), "ms")
    m["semantics.check_entailment.valuations"] = metric(total(ents, "valuations"), "count")
    checks = eqs + ents
    cex = [s for s in checks if s.get("countermodel")]
    m["semantics.countermodel_share"] = metric(len(cex) / len(checks) if checks else 0.0, "ratio")
    sized = [s["valuations"] / s["space"] for s in cex if s.get("space")]
    m["semantics.witness_prefix_share"] = metric(
        statistics.fmean(sized) if sized else 0.0, "ratio")
    m["transform.round_trip.ms"] = metric(mean_ms(by.get("transform.round_trip", [])), "ms")
    ps = by.get("proofkit.script.parse_script", [])
    m["proofkit.script.parse_script.ms"] = metric(mean_ms(ps), "ms")
    m["proofkit.script.lines_per_s"] = metric(rate(ps, "lines"), "1/s")
    m["proofkit.registry.register.ms"] = metric(
        mean_ms(by.get("proofkit.registry.register", [])), "ms")
    cp = by.get("proofkit.checker.check_proof", [])
    m["proofkit.checker.check_proof.ms"] = metric(mean_ms(cp), "ms")
    m["proofkit.checker.lines_per_s"] = metric(rate(cp, "lines"), "1/s")
    lift = by.get("proofkit.transforms.lift", [])
    dereg = by.get("proofkit.transforms.deregularize", [])
    m["proofkit.transforms.lift.ms"] = metric(mean_ms(lift), "ms")
    m["proofkit.transforms.deregularize.ms"] = metric(mean_ms(dereg), "ms")
    m["proofkit.transforms.lines_out"] = metric(total(lift + dereg, "lines_out"), "count")
    m["proofkit.input_repeat_share"] = metric(repeat_share(keys), "ratio")
    for verb in wl.CLI_VERBS:
        m[f"cli.verb.{verb}.ms"] = metric(mean_ms(by.get("cli.verb." + verb, [])), "ms")
    layers = tr.summarize(spans)["by_layer"]
    for layer in ("bench",) + tr.LAYERS:
        row = layers.get(layer, {"calls": 0, "self_s": 0.0})
        m[f"{layer}.self_ms"] = metric(1000 * row["self_s"], "ms")
        m[f"{layer}.calls"] = metric(row["calls"], "count")
    return m


def repeat_share(keys: list) -> float:
    """Share of keyed inputs already seen earlier in the run."""
    seen, repeats, total = set(), 0, 0
    for key in keys:
        if key is None:
            continue
        total += 1
        repeats += key in seen
        seen.add(key)
    return repeats / total if total else 0.0


# ---------------------------------------------------------------------------


def record_run(workload, seed: int) -> dict:
    """Verdicts and counts of the traced op set, untraced, for the
    determinism check."""
    workload.setup()
    out = run_ops(op_stream(workload, seed), tr.Recorder(), max_ops=workload.trace_ops,
                  detail=True)
    return {"records": out.records, "errors": out.errors}


def check_determinism(name: str, seed: int) -> int:
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--record",
                               "--workload", name, "--seed", str(seed)],
                              capture_output=True, text=True, cwd=wl.ROOT, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 2
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    a, b = runs
    same = a["records"] == b["records"]
    print(json.dumps({"workload": name, "seed": seed, "ops": len(a["records"]),
                      "identical": same, "errors": len(a["errors"]) + len(b["errors"])}))
    return 0 if same and not a["errors"] and not b["errors"] else 1


def main(argv=None) -> int:
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        argv = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv],
                  {**os.environ, **MALLOC_ENV})
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-determinism", action="store_true")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]()

    if args.setup_child:
        t0 = time.perf_counter()
        workload.setup()
        print(time.perf_counter() - t0)
        return 0
    if args.record:
        print(json.dumps(record_run(workload, args.seed)))
        return 0
    if args.check_determinism:
        return check_determinism(args.workload, args.seed)

    env = environment(args.seed)
    try:
        if args.trace:
            metrics, report, out, spans = traced_run(workload, args.seed)
        else:
            metrics, report, out = untraced_run(workload, args.seed, args.seconds)
            spans = None
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    attempted, failed = len(out.latencies), len(out.errors)
    full = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "environment": env, "metrics": metrics, **report,
            "failures": out.errors[:20]}
    out_dir = wl.ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    for err in out.errors[:5]:
        print("FAILED " + err, file=sys.stderr)
    print(json.dumps(full, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
