"""maxac benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; maxac is imported from its ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics and writes its spans to ``perfbench/out/``.  The lines
before it are a human-readable summary, including ``error_rate`` and the
percentile behind ``op_tail_ms``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

from harness import (LAYERS, ROOT, MissingSource, Speedometer, latency_summary, load_package,
                     median, run_ops)
from workloads import CHECKS, Cli, Game, Search, Telescope

WORKLOADS = {w.name: w for w in (Search(), Telescope(), Game(), Cli())}
SETUP_PROBES = 5

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mb": "MB", "setup_s": "s"}


class NothingMeasured(RuntimeError):
    """Every op of the run failed, so there is no time to report."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [
        "enumeration.count_maximal.self_s", "enumeration.enumerate_maximal.self_s",
        "enumeration.grids", "enumeration.grids_per_s",
        "normalize.normalize.self_s", "normalize.normalize.calls", "normalize.steps",
        "normalize.steps_per_s", "normalize.peel.self_s",
        "core.from_json_obj.self_s", "rowform.to_intervals.self_s",
        "rowform.check_characterization.self_s",
        "game.play.self_s", "game.play.calls", "game.moves", "game.moves_per_s",
        "game.safe_moves.self_s", "core.flip_creates_containment.self_s",
        *(f"verification.{name}.self_s" for name in CHECKS),
        "enumeration.brute_force_maximal.self_s", "enumeration.brute_force.subsets_per_s",
        "enumeration.brute_force.hit_ratio", "core.is_maximal.self_s",
        "counting.extend_by_two.self_s", "counting.project_last.self_s",
        *(f"cli.main.{verb}.self_s" for verb in
          ("size", "count", "enumerate", "game", "normalize", "peel", "extend", "project",
           "verify")),
        "cli.startup_s",
        *(f"{layer}.failed" for layer in LAYERS),
        "trace.overhead_frac",
    ]
    units = {}
    for name in names:
        if name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("hit_ratio", "overhead_frac")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from the files; or
    "unknown" when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> str:
    try:
        load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    except OSError:
        load = "unknown"
    return (f"# python {platform.python_version()}, commit {git_commit()}, "
            f"nproc {os.cpu_count()}, loadavg {load}")


def monotonic() -> float:
    """System-wide clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(args) -> tuple[float, float]:
    """Median, over fresh processes, of the time from spawning the
    interpreter to having imported maxac and generated the inputs: as
    measured, and at the reference speed."""
    raw, scaled = [], []
    speed = Speedometer()
    for _ in range(SETUP_PROBES):
        speed.sample()
        start, spawned = time.perf_counter(), monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
        raw.append(float(proc.stdout.split()[-1]) - spawned)
        speed.sample()
        scaled.append(raw[-1] * speed.factor(start, time.perf_counter()))
    return median(raw), median(scaled)


def prepare(args):
    """Everything a run does before its first timed op."""
    workload = WORKLOADS[args.workload]
    lib = load_package()
    ops = workload.plan(args.seed, args.seconds)
    return workload, workload.bind(lib), ops


def timed_run(args) -> dict:
    workload, fx, ops = prepare(args)
    outcome = run_ops(ops, lambda index, op: workload.call(fx, op), workload.check,
                      args.seconds)
    if not outcome.latencies:
        raise NothingMeasured(f"none of {outcome.attempted} ops completed")
    who = resource.RUSAGE_CHILDREN if workload is WORKLOADS["cli"] else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB
    setup_raw, setup_scaled = measure_setup(args)

    def summary(latencies, setup):
        lat = latency_summary(latencies)
        return lat, {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": lat["p50"] * 1e3,
            "op_tail_ms": lat["tail"] * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup,
        }

    lat, metrics = summary(outcome.scaled, setup_scaled)
    _, raw = summary(outcome.latencies, setup_raw)
    print(f"# {outcome.attempted} ops attempted, {len(outcome.latencies)} completed "
          f"in {sum(outcome.latencies):.3f} s of op time")
    print(f"# {'metric':<12} {'at reference speed':>20} {'as measured':>14}")
    for name, value in metrics.items():
        note = (f"  (p{lat['tail_percentile']:.2f} of {lat['ops']} ops)"
                if name == "op_tail_ms" else "")
        print(f"{name:<14} {value:20.6f} {raw[name]:14.6f} {END_TO_END[name]}{note}")
    print(f"{'error_rate':<14} {outcome.failed / outcome.attempted:20.6f} ratio"
          f"  ({outcome.failed} of {outcome.attempted} ops failed)")
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def traced_run(args) -> dict:
    workload = WORKLOADS[args.workload]
    tracer, outcome, overhead, measured = workload.trace(args.seed, args.seconds)
    units = per_layer_units()
    totals = tracer.totals()
    values = dict.fromkeys(units, 0)
    for name in units:
        span, _, kind = name.rpartition(".")
        if kind in ("self_s", "calls") and span in totals:
            values[name] = totals[span][0 if kind == "self_s" else 1]
    values.update(measured)
    values.update({f"{layer}.failed": count for layer, count in tracer.failures.items()})
    values["trace.overhead_frac"] = overhead
    out = ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(out)
    print(f"# {len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    for name, value in values.items():
        if value:
            print(f"{name:<44} {value:16.6f} {units[name]}")
    return {"correct": outcome.failed == 0, "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            prepare(args)
            print(monotonic())
            return 0
        print(f"# maxac benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        print(environment())
        result = traced_run(args) if args.trace else timed_run(args)
    except (MissingSource, NothingMeasured) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
