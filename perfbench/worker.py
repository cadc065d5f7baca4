"""One benchmark workload in a fresh, single-threaded process.

``run.py`` starts this script; it is not meant to be run by hand.  The
worker imports ``posauction`` from the checkout's ``src/``, resolves the
workload's inputs from the seed and prints ``READY``; the time until then is
the set-up time.  With ``--setup-only`` it stops there.

Otherwise it runs *rounds* for about ``--seconds`` seconds, at least the
workload's ``min_rounds`` (three where a round is short, so that the median
of each group's pass times drops one slow pass; one for ``desk-main``, whose
single round is all distinct inputs) and at least two with ``--trace 1``.
A round runs one timed pass over each input group of the workload; every
round repeats the same inputs, so each group's output must not change.
After a single timed round the first group runs once more, untimed, to
check that.
Checks run outside the timed passes.  Before each latency unit the worker
times a fixed reference kernel (``refclock.py``), outside the unit's span,
and takes the kernel's time out of the pass.  The worker prints one JSON
line with the raw measurements and the kernel samples of each round.  With ``--trace 1`` untraced and traced rounds
alternate, and the traced ones yield the per-layer figures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BASELINE = os.path.join(HERE, "baseline.json")
ROUND_CAP_S = 150.0
SETUP_SAMPLES = 50


def _import_program():
    """Import ``posauction`` from the checkout's ``src/`` with numeric
    libraries limited to one thread."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    if not os.path.isfile(os.path.join(SRC, "posauction", "__init__.py")):
        raise SystemExit(f"error: no posauction package under {SRC}")
    sys.path.insert(0, SRC)
    import posauction

    if not os.path.abspath(posauction.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: posauction imported from {posauction.__file__}, "
                         f"not from {SRC}")


def _per_layer(tracer, traced_rounds: int, bytes_written: int, traced_wall: float,
               untraced_wall: float) -> dict[str, float]:
    """Per-layer figures per round, from the spans of the traced rounds."""
    from tracing import span_totals

    totals = span_totals(tracer.spans)
    counts = tracer.counts

    def per_round(value):
        return value / traced_rounds

    def calls(name):
        return per_round(totals.get(name, {}).get("calls", 0))

    def busy(name):
        return per_round(totals.get(name, {}).get("busy_s", 0.0))

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    profiles = per_round(counts["solver.scan.profiles"])
    equilibria = per_round(counts["solver.equilibria"])
    return {
        "models.sample.calls": calls("models.sample"),
        "models.sample.busy_s": busy("models.sample"),
        "mechanisms.optimize.busy_s": busy("mechanisms.optimize"),
        "mechanisms.vcg.calls": calls("mechanisms.vcg"),
        "mechanisms.vcg.busy_s": busy("mechanisms.vcg"),
        "mechanisms.simulate.calls": calls("mechanisms.simulate"),
        "mechanisms.simulate.busy_s": busy("mechanisms.simulate"),
        "mechanisms.simulate.us_per_call": ratio(
            busy("mechanisms.simulate"), calls("mechanisms.simulate"), 1e6),
        "encoders.noext.calls": calls("encoders.noext"),
        "encoders.noext.busy_s": busy("encoders.noext"),
        "encoders.gim.calls": calls("encoders.gim"),
        "encoders.gim.busy_s": busy("encoders.gim"),
        "encoders.table_entries": per_round(counts["encoders.table_entries"]),
        "encoders.table_bytes": per_round(counts["encoders.table_bytes"]),
        "encoders.gim.us_per_entry": ratio(
            busy("encoders.gim"), per_round(counts["encoders.gim.entries"]), 1e6),
        "agg.evaluate.calls": calls("agg.evaluate"),
        "agg.evaluate.busy_s": busy("agg.evaluate"),
        "agg.evaluate.us_per_profile": ratio(
            busy("agg.evaluate"), calls("agg.evaluate"), 1e6),
        "solver.prune.busy_s": busy("solver.prune"),
        "solver.scan.calls": calls("solver.scan"),
        "solver.scan.busy_s": busy("solver.scan"),
        "solver.scan.profiles": profiles,
        "solver.scan.ns_per_profile": ratio(busy("solver.scan"), profiles, 1e9),
        "solver.equilibria": equilibria,
        "solver.scan.useful_ratio": ratio(equilibria, profiles),
        "solver.scan.unsolved": per_round(counts["solver.scan.unsolved"]),
        "metrics.metric_vector.calls": calls("metrics.metric_vector"),
        "metrics.metric_vector.busy_s": busy("metrics.metric_vector"),
        "metrics.bounds.busy_s": busy("metrics.bounds"),
        "stats.classify.calls": calls("stats.classify"),
        "stats.classify.busy_s": busy("stats.classify"),
        "stats.resamples": per_round(counts["stats.resamples"]),
        "experiments.run_instance.busy_s": busy("experiments.run_instance"),
        "experiments.emit.self_s": per_round(
            totals.get("experiments.run_experiment", {}).get("self_s", 0.0)),
        "experiments.bytes_written": float(bytes_written),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import numpy

    import workloads
    from refclock import NOMINAL_S, RefClock, sampling
    from tracing import Tracer, layer_self_times, patched, round_wall

    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    print("READY", flush=True)
    if args.setup_only:
        # the machine's speed at set-up, for run.py to scale the set-up time
        clock = RefClock(workload.ref_kernel)
        for _ in range(SETUP_SAMPLES):
            clock.sample()
        print(json.dumps({"ref_s": clock.samples,
                          "ref_nominal_s": NOMINAL_S[workload.ref_kernel]}))
        return 0

    os.makedirs(OUT, exist_ok=True)
    scratch = os.path.join(OUT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    rounds: list[dict] = []
    checks: list[list[dict]] = []
    traced = Tracer()
    started = time.perf_counter()
    try:
        while True:
            # with --trace 1, untraced and traced rounds alternate, the
            # first untraced one warming caches
            is_traced = bool(args.trace) and len(rounds) % 2 == 1
            row = {"traced": is_traced, "wall_s": [], "cpu_s": [], "latency_s": []}
            clock = RefClock(workload.ref_kernel)
            row_checks = []
            for g, group in enumerate(workload.groups):
                tracer = traced if is_traced else Tracer()
                targets = workload.traced_targets if is_traced else workload.latency_targets
                out_dir = os.path.join(scratch, f"round{len(rounds)}", f"group{g}")
                first_span = len(tracer.spans)
                gc.collect()
                ref_wall, ref_cpu = clock.wall_s, clock.cpu_s
                with patched(tracer, targets), sampling(
                        clock, workload.latency_targets, workload.ref_samples):
                    wall0, cpu0 = time.perf_counter(), time.process_time()
                    result = workload.run_pass(group, out_dir)
                    wall = time.perf_counter() - wall0 - (clock.wall_s - ref_wall)
                    cpu = time.process_time() - cpu0 - (clock.cpu_s - ref_cpu)
                row["wall_s"].append(wall)
                row["cpu_s"].append(cpu)
                if not is_traced:
                    row["latency_s"] += [(end - start) / 1e9 for name, start, end, _
                                         in tracer.spans[first_span:]
                                         if name == workload.latency_span]
                row_checks.append(workload.check(group, out_dir, result))
            row["ref_s"] = clock.samples
            rounds.append(row)
            checks.append(row_checks)
            if len(rounds) > 1:
                shutil.rmtree(os.path.join(scratch, f"round{len(rounds) - 1}"),
                              ignore_errors=True)
            elapsed = time.perf_counter() - started
            if len(rounds) >= max(workload.min_rounds, 1 + args.trace) and \
                    elapsed + sum(row["wall_s"]) > min(args.seconds, ROUND_CAP_S):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if len(checks) == 1:
            repeat_dir = os.path.join(scratch, "repeat")
            repeat = workload.run_pass(workload.groups[0], repeat_dir)
            checks.append([workload.check(workload.groups[0], repeat_dir, repeat)])
        flat = [c for row_checks in checks for c in row_checks]
        failures = [f for c in flat for f in c["failures"]]
        attempted = sum(c["attempted"] for c in flat)
        failed = sum(c["failed"] for c in flat)
        for g in range(len(workload.groups)):
            passes = [row_checks[g] for row_checks in checks if g < len(row_checks)]
            digests = {c["digest"] for c in passes}
            attempted += len(passes) - 1
            if len(digests) != 1:
                failed += len(digests) - 1
                failures.append(f"{args.workload}: group {g} gave {len(digests)} "
                                f"different output digests over {len(passes)} passes")
        digest = hashlib.sha256("".join(
            c["digest"] for c in checks[0][:workload.pinned_groups]).encode()).hexdigest()
        with open(BASELINE) as fh:
            baseline = json.load(fh)
        if args.seed == baseline["default_seed"]:
            pinned = baseline["digests"].get(args.workload)
            attempted += 1
            if pinned != digest:
                failed += 1
                failures.append(f"{args.workload}: output digest {digest} differs "
                                f"from the pinned {pinned}")
        if workload.spot_check is not None:
            spot_attempted, spot_failures = workload.spot_check(
                [os.path.join(scratch, "round0", f"group{g}")
                 for g in range(len(workload.groups))])
            attempted += spot_attempted
            failed += len(spot_failures)
            failures += spot_failures
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "units_per_round": workload.units_per_round,
        "ref_nominal_s": NOMINAL_S[workload.ref_kernel],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "games": sum(c["games"] for c in flat),
        "unsolved": sum(c["unsolved"] for c in flat),
        "digest": digest,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        untraced_rounds = [r for r in rounds[1:] if not r["traced"]] or rounds[:1]
        traced_wall = round_wall(traced_rounds)
        out["per_layer"] = _per_layer(
            traced, len(traced_rounds), sum(c["bytes"] for c in checks[0]),
            traced_wall, round_wall(untraced_rounds))
        traced_total = sum(sum(r["wall_s"]) for r in traced_rounds)
        out["layer_shares"] = {layer: own / traced_total for layer, own in
                               sorted(layer_self_times(traced.spans).items())}
        with open(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"),
                  "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_rounds": len(traced_rounds),
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": traced.spans}, fh, separators=(",", ":"))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
