"""The repository benchmark: one workload per process, end-to-end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload changes --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1                  # every workload, both modes

With ``--workload NAME`` the run builds the workload's inputs from the
seed (the timed set-up, repeated, median reported as ``setup_s``),
computes the reference outputs, repeats rounds of identical work for
``--seconds`` seconds, checks every output and prints one JSON object as
its last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of
:mod:`layertrace` with ``--trace 1``.  A wrong output stops the run with
``"correct": false`` and exit code 1.

Without ``--workload`` every workload runs in its own fresh process,
untraced and then traced, and a table shows the end-to-end metrics, each
layer's share of the traced self time and the tracing overhead.

The benchmark imports the program from ``src/`` next to this directory
and nowhere else; without it the run exits non-zero before measuring.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("changes", "sweep", "serve")

#: The set-up is built at least this many times, and until this many
#: seconds have gone into it; ``setup_s`` is the median build.
SETUP_BUILDS = 3
SETUP_SECONDS = 1.0

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "verified_fraction": "fraction",
}

#: Per-layer counters that come from reports and ``/healthz`` rather than
#: spans (``--trace 1``), with their units.
LAYER_COUNTERS = {
    "snapshots.distinct_graphs": "count",
    "verifier.checks.naive": "count",
    "verifier.checks.executed": "count",
    "verifier.checks.cached": "count",
    "verifier.dedup_ratio": "ratio",
    "verifier.runtime.retries": "count",
    "verifier.runtime.pool_rebuilds": "count",
    "verifier.failed_checks": "count",
    "persist.journal_bytes": "bytes",
    "serve.wait_s": "s",
    "serve.pool.pools_created": "count",
    "serve.pool.pool_rebuilds": "count",
    "serve.pool.bypassed_requests": "count",
    "serve.pool.context_payload_sends": "count",
    "serve.pool.context_misses": "count",
    "serve.admission.rejected": "count",
    "trace.units_per_s": "1/s",
}


def percentile(samples: list[float], quantile: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(quantile * len(ordered)) - 1)]


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def make_workload(name: str, scratch: Path, trace: bool, daemon_args: list[str]):
    import workloads

    if name == "changes":
        return workloads.Changes()
    if name == "sweep":
        return workloads.Sweep(scratch)
    return workloads.Serve(SRC, scratch, trace, daemon_args)


def run_workload(args: argparse.Namespace) -> int:
    import_program()
    from layertrace import Tracer
    from workloads import WrongOutput, peak_rss_mb

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench"))
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = make_workload(args.workload, scratch, bool(args.trace), args.daemon_arg)
    inputs = None
    try:
        setups = []
        while len(setups) < SETUP_BUILDS or sum(setups) < SETUP_SECONDS:
            if inputs is not None and hasattr(inputs, "close"):
                inputs.close()
            started = time.perf_counter()
            inputs = workload.build(args.seed, args.size)
            setups.append(time.perf_counter() - started)
        reference = workload.prepare(inputs, args.plant_wrong_expectation)
        gc.collect()
        if tracer is not None:
            tracer.reset()
        try:
            window = workload.measure(inputs, reference, args.seconds)
        except WrongOutput as error:
            print(f"perfbench: wrong output: {error}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
            return 1
    finally:
        if inputs is not None and hasattr(inputs, "close"):
            inputs.close()
        shutil.rmtree(scratch, ignore_errors=True)

    # A shared machine runs at one speed most of the time and, for tens of
    # seconds at a stretch, up to 40% faster.  The run reports its slower
    # rounds, which move with the program and not with the neighbours: the
    # rate of the slowest round, and latency over the slower half of rounds.
    by_rate = sorted(window.rounds, key=lambda this: len(this.latencies) / this.seconds)
    units_per_s = len(by_rate[0].latencies) / by_rate[0].seconds
    if args.trace:
        metrics = layer_metrics(tracer.snapshot(), window, units_per_s)
    else:
        slower = by_rate[: (len(by_rate) + 1) // 2]
        # A failed unit never got its verdict: it counts as a whole round.
        samples = [latency for this in slower for latency in this.latencies]
        samples += [this.seconds for this in slower for _ in range(this.failed)]
        values = {
            "setup_s": statistics.median(setups),
            "units_per_s": units_per_s,
            "verdict_p50_ms": percentile(samples, 0.5) * 1000.0,
            "verdict_p90_ms": percentile(samples, 0.9) * 1000.0,
            "peak_rss_mb": window.peak_rss_mb or peak_rss_mb(),
            "verified_fraction": (window.attempted - window.failed) / window.attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(
        f"{args.workload}: {window.attempted} units ({window.failed} failed) "
        f"in {window.wall_s:.2f}s, {len(window.rounds)} rounds",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": window.attempted,
                "failed": window.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def layer_metrics(local_spans: dict, window, units_per_s: float) -> dict:
    from layertrace import span_metrics

    spans = local_spans
    remote = window.remote_spans
    if remote is not None:
        spans = {
            name: {key: value + remote[name].get(key, 0) for key, value in stats.items()}
            for name, stats in local_spans.items()
        }
    metrics = span_metrics(spans)
    counters = dict(window.counters)
    executed = counters.get("verifier.checks.executed", 0)
    counters["verifier.dedup_ratio"] = counters.get("verifier.checks.naive", 0) / max(1, executed)
    if remote is not None:
        host_s = remote["serve.host.advance"]["total_s"]
        latency_s = sum(sum(this.latencies) for this in window.rounds)
        counters["serve.wait_s"] = latency_s - host_s
    counters["trace.units_per_s"] = units_per_s
    for name, unit in LAYER_COUNTERS.items():
        metrics[name] = {"value": counters.get(name, 0), "unit": unit}
    return metrics


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process, untraced then traced, as a table."""
    from layertrace import layer_shares

    print(f"seed {args.seed}, {args.seconds}s per run")
    header = "".join(f"{name:>19}" for name in END_TO_END)
    print(f"{'workload':<10}{header}")
    status = 0
    for name in WORKLOADS:
        results = []
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--size", args.size,
            ]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            if done.returncode != 0 or not result["correct"]:
                status = 1
            results.append(result)
        plain, traced = (result["metrics"] for result in results)
        cells = "".join(
            f"{plain[metric]['value']:>15.4g} {unit:<3}" if metric in plain else f"{'-':>19}"
            for metric, unit in END_TO_END.items()
        )
        print(f"{name:<10}{cells}")
        if "units_per_s" in plain and "trace.units_per_s" in traced:
            overhead = plain["units_per_s"]["value"] / traced["trace.units_per_s"]["value"] - 1
            shares = layer_shares(
                {
                    metric[: -len(".self_s")]: {"self_s": value["value"]}
                    for metric, value in traced.items()
                    if metric.endswith(".self_s")
                }
            )
            print(
                f"{'':<10}tracing overhead {overhead * 100:+.1f}%; self-time shares: "
                + ", ".join(f"{layer} {share * 100:.1f}%" for layer, share in shares.items())
            )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="seed the inputs are generated from")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the measured window")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: report per-layer metrics instead of end-to-end ones",
    )
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny inputs, for the benchmark's own tests",
    )
    parser.add_argument(
        "--plant-wrong-expectation", action="store_true",
        help="corrupt one reference output; the run must then fail",
    )
    parser.add_argument(
        "--daemon-arg", action="append", default=[],
        help="extra 'repro serve' flag for the serve workload (repeatable)",
    )
    args = parser.parse_args(argv)
    # Let a SIGTERM unwind through the clean-up that stops the daemon.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
