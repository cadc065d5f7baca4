"""Benchmark of the posauction pipeline: sample, encode as an action-graph
game, enumerate pure Nash equilibria, compare mechanisms.

    python3 perfbench/run.py --workload desk-main --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see ``workloads.py``): ``desk-main``, ``paper-scan`` and
``oracle-check``; ``all`` runs the three in turn.  Each runs in its own fresh,
single-threaded child process that imports the program from ``src/``.  The
run is closed-loop: one caller, each call waits for the previous one.

With ``--trace 0`` the command prints the end-to-end metrics of each
workload by name and unit.  The machine this was written on drifts in speed
by up to 1.6 times for seconds to minutes at a time, so the gated times are
*normalized* (``_norm_`` in their names): a time measured in a run times a
speed factor, the nominal over the measured time of a fixed reference kernel
sampled all along the run (``refclock.py``).  Wall and CPU time take the
factor of their round, each latency sample that of the kernel samples
around it, and ``setup_s`` that of samples taken right after each set-up.
The raw times are printed beside them.  With ``--trace 1`` it prints the per-layer
metrics of a traced run, measured by spans around the program's public
functions, and writes the spans to ``.bench_out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output check
passed; it is 2, with no JSON line, when the program cannot be run at all.

This script uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
BASELINE = os.path.join(HERE, "baseline.json")

sys.path.insert(0, HERE)
from tracing import (local_speed_factors, quantile, round_wall,  # noqa: E402
                     speed_factor, tail_latency)

WORKLOADS = ("desk-main", "paper-scan", "oracle-check")
SETUP_PROBES = 5
LATENCY_WINDOW = 8
SETUP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0

# printed but not gated: the raw times, and the normalized median latency.
# On desk-main the median instance falls on the edge between the cheap half
# of the instances (no-externality encoders, tens of milliseconds) and the
# GIM half (hundreds), and moved by about a fifth from seed to seed; the
# gated central latency is the mean.
PRINTED = {
    "wall_s": "s",
    "cpu_s": "s",
    "instances_per_s": "1/s",
    "instance_s_p50": "s",
    "instance_s_p90": "s",
    "instance_norm_s_p50": "s",
}

END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "cpu_norm_s": "s",
    "instances_per_norm_s": "1/s",
    "instance_norm_s_mean": "s",
    "instance_norm_s_p90": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "models.sample.calls": "count",
    "models.sample.busy_s": "s",
    "mechanisms.optimize.busy_s": "s",
    "mechanisms.vcg.calls": "count",
    "mechanisms.vcg.busy_s": "s",
    "mechanisms.simulate.calls": "count",
    "mechanisms.simulate.busy_s": "s",
    "mechanisms.simulate.us_per_call": "us",
    "encoders.noext.calls": "count",
    "encoders.noext.busy_s": "s",
    "encoders.gim.calls": "count",
    "encoders.gim.busy_s": "s",
    "encoders.table_entries": "count",
    "encoders.table_bytes": "computed_bytes",
    "encoders.gim.us_per_entry": "us",
    "agg.evaluate.calls": "count",
    "agg.evaluate.busy_s": "s",
    "agg.evaluate.us_per_profile": "us",
    "solver.prune.busy_s": "s",
    "solver.scan.calls": "count",
    "solver.scan.busy_s": "s",
    "solver.scan.profiles": "count",
    "solver.scan.ns_per_profile": "ns",
    "solver.equilibria": "count",
    "solver.scan.useful_ratio": "eq/profile",
    "solver.scan.unsolved": "count",
    "metrics.metric_vector.calls": "count",
    "metrics.metric_vector.busy_s": "s",
    "metrics.bounds.busy_s": "s",
    "stats.classify.calls": "count",
    "stats.classify.busy_s": "s",
    "stats.resamples": "count",
    "experiments.run_instance.busy_s": "s",
    "experiments.emit.self_s": "s",
    "experiments.bytes_written": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], timeout: float) -> tuple[float, str]:
    """Start the worker, return the seconds until it printed READY and the
    rest of its standard output.  The worker is killed at the timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "READY" or code != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited with code {code}")
    return setup, rest


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; ``setup_samples`` holds ``(seconds, speed factor)``
    of each set-up, from the set-up probes and the run itself."""
    started = time.perf_counter()
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    for _ in range(SETUP_PROBES):
        setup, rest = run_child(common + ["--setup-only"], SETUP_TIMEOUT_S)
        probe = json.loads(rest.strip().splitlines()[-1])
        setups.append((setup, speed_factor(probe["ref_s"], probe["ref_nominal_s"])))
    setup, rest = run_child(common + ["--trace", str(trace)],
                            RUN_LIMIT_S - (time.perf_counter() - started))
    result = json.loads(rest.strip().splitlines()[-1])
    nominal = result["ref_nominal_s"]
    for row in result["rounds"]:
        row["speed"] = speed_factor(row["ref_s"], nominal)
    rounds = [r for r in result["rounds"] if not r["traced"]]
    result["speed"] = speed_factor([s for r in rounds for s in r["ref_s"]], nominal)
    result["setup_samples"] = setups + [(setup, result["speed"])]
    return result


def latencies(result: dict, normalized: bool = False) -> list[float]:
    """Latency samples of the untraced rounds; when ``normalized``, each
    scaled by the speed factor of the kernel samples around it."""
    out = []
    for r in result["rounds"]:
        if r["traced"]:
            continue
        factors = (local_speed_factors(r["ref_s"], len(r["latency_s"]),
                                       result["ref_nominal_s"], LATENCY_WINDOW)
                   if normalized else [1.0] * len(r["latency_s"]))
        out += [s * f for s, f in zip(r["latency_s"], factors)]
    return out


def end_to_end(result: dict) -> dict[str, float]:
    """The raw and the normalized end-to-end figures of an untraced run:
    wall and CPU time by the speed factor of their round, latencies by that
    of the samples around each."""
    rounds = [r for r in result["rounds"] if not r["traced"]]
    factors = [r["speed"] for r in rounds]
    wall = round_wall(rounds)
    wall_norm = round_wall(rounds, factors=factors)
    raw_lat, norm_lat = latencies(result), latencies(result, normalized=True)
    return {
        "wall_s": wall,
        "cpu_s": round_wall(rounds, "cpu_s"),
        "instances_per_s": result["units_per_round"] / wall,
        "instance_s_p50": quantile(raw_lat, 0.5),
        "instance_s_p90": tail_latency(raw_lat)[1],
        "speed": result["speed"],
        "setup_s": statistics.median(s * f for s, f in result["setup_samples"]),
        "wall_norm_s": wall_norm,
        "cpu_norm_s": round_wall(rounds, "cpu_s", factors),
        "instances_per_norm_s": result["units_per_round"] / wall_norm,
        "instance_norm_s_mean": statistics.fmean(norm_lat),
        "instance_norm_s_p50": quantile(norm_lat, 0.5),
        "instance_norm_s_p90": tail_latency(norm_lat)[1],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def metadata(versions: dict, loadavg: list[float]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = 0
    for dirpath, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"commit": commit, **versions, "nproc": os.cpu_count(),
            "loadavg": loadavg, "src_lines": src_lines}


def report(name: str, result: dict, trace: int) -> dict[str, dict]:
    """Print one workload's metrics; return the gated ones by name."""
    if trace:
        values, units = result["per_layer"], PER_LAYER
        for layer, share in result["layer_shares"].items():
            print(f"{name:13s} share.{layer:26s} {share:8.1%} of traced wall")
    else:
        values, units = end_to_end(result), END_TO_END
    metrics = {}
    for metric, unit in units.items():
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"{name:13s} {metric:32s} {values[metric]:14.6g} {unit}")
    if not trace:
        samples = len(latencies(result))
        q = tail_latency(latencies(result))[0]
        print(f"{name:13s} {'':32s} {samples} latency samples, p90 is the "
              f"{q:.3f} quantile")
        for metric, unit in PRINTED.items():
            print(f"{name:13s} {metric:32s} {values[metric]:14.6g} {unit} (not gated)")
        kernel = result["ref_nominal_s"] / values["speed"]
        print(f"{name:13s} {'speed':32s} {values['speed']:14.6g} 1 (reference "
              f"kernel {kernel * 1e3:.3f} ms, nominal "
              f"{result['ref_nominal_s'] * 1e3:g} ms)")
        # printed but not gated metrics: both are 0 in a correct run, and a
        # failure already makes the run incorrect
        games = result["games"]
        for metric, part, whole, what in (
                ("failed_frac", result["failed"], result["attempted"], "checks"),
                ("unsolved_frac", result["unsolved"], games, "games")):
            print(f"{name:13s} {metric:32s} {part / whole if whole else 0.0:14.6g} 1 "
                  f"({part} of {whole} {what})")
    for failure in result["failures"]:
        print(f"{name:13s} FAILED {failure}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "posauction", "__init__.py")):
        print(f"error: no posauction package under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seed is None:
        with open(BASELINE) as fh:
            args.seed = json.load(fh)["default_seed"]
    loadavg = list(os.getloadavg())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except (ChildFailed, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    meta = metadata(next(iter(results.values()))["versions"], loadavg)
    print(f"# seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"meta={json.dumps(meta, sort_keys=True)}")
    metrics = {}
    for name, result in results.items():
        for metric, value in report(name, result, args.trace).items():
            metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not any(r["failures"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
