"""PixelsDB end-to-end benchmark: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload analyst_session --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
rounds, then one extra round with every layer wrapped in spans, and
prints the per-layer metrics.  The last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).  The
exit code is non-zero when any result digest, the ledger reconciliation
or the simulated outcome of a round does not match.  Workloads, metrics
and predictions are described in ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(HERE, "state")
TRACE_DIR = os.path.join(HERE, "traces")

WORKLOADS = ("analyst_session", "fleet_dashboards", "fleet_observed")
#: Every run measures at least this many rounds, whatever ``--seconds`` says.
MIN_ROUNDS = 2
#: Set-ups without a measured phase, run first so ``setup_s`` is a median
#: of at least MIN_ROUNDS + EXTRA_SETUPS set-ups.
EXTRA_SETUPS = 3

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("query_wall_geomean_ms", "ms"),
    ("query_wall_p95_ms", "ms"),
    ("immediate_on_time_ratio", "ratio"),
    ("relaxed_within_grace_ratio", "ratio"),
    ("billed_usd_per_query", "usd"),
    ("provider_usd_per_query", "usd"),
    ("success_rate", "ratio"),
    ("nl2sql_accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_hash() -> str:
    """Hash of the program's and the benchmark's own Python sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for folder, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()[:16]


def check_recorded(workload: str, seed: int, outcome: dict) -> list[str]:
    """Compare the simulated outcome with the one an earlier run of the
    same program and seed recorded; record it if there is none."""
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"{workload}-{seed}-{source_hash()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
        if recorded != outcome:
            return [f"simulated outcome differs from the earlier run recorded in {path}"]
        return []
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(outcome, handle, sort_keys=True)
    return []


def wall_metrics(rounds, setups: list[float], cal_key: str) -> dict[str, float]:
    """setup, throughput and closed-loop latency from calibrated ("cal")
    or raw wall times; ``setups`` are the extra set-up times of that kind."""
    from summary import class_geomean_of_medians, percentile

    classes: dict[str, list[float]] = {}
    for r in rounds:
        for name, values in getattr(r, f"class_{cal_key}").items():
            classes.setdefault(name, []).extend(values)
    samples = [v for values in classes.values() for v in values]
    return {
        "setup_s": statistics.median(setups + [getattr(r, f"setup_{cal_key}_s") for r in rounds]),
        "throughput_qps": statistics.median(
            r.phase_queries / getattr(r, f"phase_{cal_key}_s") for r in rounds
        ),
        "query_wall_geomean_ms": class_geomean_of_medians(classes) * 1e3,
        "query_wall_p95_ms": percentile(samples, 0.95) * 1e3,
        "samples": len(samples),
    }


def measure(workload, seconds: float, cal) -> tuple[list, list, object, list[str]]:
    """Extra set-ups, then rounds until ``seconds`` have passed.  Returns
    (rounds, extra set-ups as (calibrated, raw) seconds, last db, errors)."""
    from harness import Round

    started = time.perf_counter()
    setups = []
    for _ in range(EXTRA_SETUPS):
        gc.collect()
        extra = Round()
        workload.set_up(cal, extra)
        setups.append((extra.setup_cal_s, extra.setup_raw_s))
    rounds, db, errors = [], None, []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        db = None
        gc.collect()
        result, db = workload.run_round(cal)
        rounds.append(result)
        errors.extend(result.errors)
        if result.simulated != rounds[0].simulated:
            errors.append(f"round {len(rounds)} simulated outcome differs from round 1")
    return rounds, setups, db, errors


def traced_layers(workload, cal, rounds, raw: dict, errors: list[str], path: str) -> dict:
    """Run one more round with every layer wrapped in spans; write the
    spans to ``path`` and return the per-layer metrics."""
    import layers
    from spans import SpanRecorder

    gc.collect()
    recorder = SpanRecorder()
    mark = {}

    def on_measured() -> None:
        mark["span"] = len(recorder)
        mark["events"] = recorder.counts["sim.events"]

    layers.install(recorder)
    try:
        traced, _ = workload.run_round(cal, on_measured)
    finally:
        recorder.uninstall()
    errors.extend(traced.errors)
    if traced.simulated != rounds[0].simulated:
        errors.append("the traced round's simulated outcome differs from round 1")
    untraced_s = statistics.median(r.setup_cal_s + r.measured_cal_s for r in rounds)
    metrics = layers.per_layer(
        recorder,
        measured_from=mark["span"],
        traced_wall_s=traced.measured_raw_s,
        traced_queries=traced.terminal,
        events=recorder.counts["sim.events"] - mark["events"],
        counters=rounds[0].counters,
        vm_waits=[w for r in rounds for w in r.counters["vm_queue_waits"]],
    )
    metrics["host.calibration_us"] = cal.median_us()
    for key in ("setup_s", "throughput_qps", "query_wall_geomean_ms", "query_wall_p95_ms"):
        metrics[f"raw.{key}"] = raw[key]
    metrics["trace.overhead_ratio"] = (traced.setup_cal_s + traced.measured_cal_s) / untraced_s
    os.makedirs(os.path.dirname(path), exist_ok=True)
    recorder.dump(path)
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source (src/repro) is not next to {HERE}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from calib import Calibrator
    from digests import load_expected
    from harness import make_workload
    import layers

    workload = make_workload(args.workload, args.seed, load_expected())
    cal = Calibrator()
    rounds, setups, db, errors = measure(workload, args.seconds, cal)
    outcome = dict(rounds[0].simulated)
    outcome["nl2sql_accuracy"] = accuracy = workload.accuracy(db)
    db = None
    errors.extend(check_recorded(args.workload, args.seed, outcome))
    attempted = sum(r.attempted for r in rounds)
    succeeded = sum(r.succeeded for r in rounds)

    wall = wall_metrics(rounds, [cal_s for cal_s, _ in setups], "cal")
    raw = wall_metrics(rounds, [raw_s for _, raw_s in setups], "raw")
    sim = rounds[0].simulated
    metrics = {
        **{key: wall[key] for key in ("setup_s", "throughput_qps", "query_wall_geomean_ms",
                                      "query_wall_p95_ms")},
        "immediate_on_time_ratio": sim["immediate_on_time"] / sim["immediate"],
        "relaxed_within_grace_ratio": sim["relaxed_within_grace"] / sim["relaxed"],
        "billed_usd_per_query": sim["billed_nanodollars"] / 1e9 / sim["queries"],
        "provider_usd_per_query": sim["provider_usd"] / sim["queries"],
        "success_rate": succeeded / attempted,
        "nl2sql_accuracy": accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END)
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"p95 samples={wall['samples']} kernel={cal.median_us():.1f}us "
          f"raw: setup={raw['setup_s']:.4g}s throughput={raw['throughput_qps']:.4g}/s "
          f"geomean={raw['query_wall_geomean_ms']:.4g}ms p95={raw['query_wall_p95_ms']:.4g}ms")
    if args.trace:
        for name, value in metrics.items():
            print(f"{name:34s} {value:16.6g} {units[name]}")
        trace_path = os.path.join(TRACE_DIR, f"{args.workload}-{args.seed}.jsonl")
        metrics = traced_layers(workload, cal, rounds, raw, errors, trace_path)
        units = dict(layers.PER_LAYER)
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6g} {units[name]}")
    for error in errors[:20]:
        print(f"MISMATCH {error}", file=sys.stderr)
    correct = not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": attempted - succeeded,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
