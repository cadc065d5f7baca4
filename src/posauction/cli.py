"""Command-line harness.

``posauction run`` executes an experiment described by a JSON config file
and/or a named preset and writes CSV summaries, relation matrices, and
per-instance artifacts under the output directory.  ``posauction describe``
prints a readable report of a serialized instance.

Exit codes: 0 success, 2 configuration or input error, 3 when per-instance
failures were recorded (results for the remaining instances are emitted).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .experiments import (PRESETS, PROFILES, ExperimentConfig, config_from_dict,
                          describe_instance, run_experiment)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posauction",
        description="Sample position-auction games, enumerate their pure "
                    "equilibria, and compare mechanisms statistically.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    run.add_argument("--config", metavar="<file>",
                     help="JSON experiment config (fields override the preset)")
    run.add_argument("--preset", choices=list(PRESETS),
                     help="named experiment preset")
    scales = " or ".join(
        f"{name} (n={p['n']}, m={p['m']}, k={p['k']}, {p['instances']} instances)"
        for name, p in PROFILES.items())
    run.add_argument("--profile", choices=list(PROFILES), default="desk",
                     help=f"problem scale: {scales}; default: %(default)s")
    run.add_argument("--seed", type=int, help="master seed override")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel instance workers (default: %(default)s)")
    run.add_argument("--out", metavar="DIR", default="out",
                     help="output directory (default: %(default)s)")
    run.add_argument("--quiet", action="store_true", help="suppress progress lines")

    desc = sub.add_parser("describe", help="print a report of an instance file")
    desc.add_argument("instance", metavar="<instance.json>")
    return parser


def _load_config(args) -> ExperimentConfig:
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{args.config} must hold a JSON object of config fields")
    if args.preset:
        doc["preset"] = args.preset
    if "profile" not in doc:
        doc["profile"] = args.profile
    if args.seed is not None:
        doc["seed"] = args.seed
    return config_from_dict(doc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "describe":
        try:
            sys.stdout.write(describe_instance(args.instance))
        except json.JSONDecodeError as exc:
            print(f"error: {args.instance} is not valid JSON at byte {exc.pos}: "
                  f"{exc.msg}", file=sys.stderr)
            return 2
        except (OSError, KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    try:
        cfg = _load_config(args)
        problems = cfg.validate()
        if args.jobs < 1:
            problems.append(f"--jobs must be at least 1, got {args.jobs}")
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return 2
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use --out {args.out} as the output directory: "
              f"{exc.strerror}", file=sys.stderr)
        return 2

    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    report = run_experiment(cfg, args.out, jobs=args.jobs, progress=progress)
    if report.failures:
        print(f"{len(report.failures)} instance failure(s) recorded in "
              f"{report.out_dir}/failures.json", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
