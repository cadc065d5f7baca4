"""The benchmark's three workloads.

Each workload turns a workload seed into inputs for the program (resolved
``ExperimentConfig`` objects or generated settings), split into groups.  A
pass runs one group; a round runs every group once.  Rounds repeat the same
inputs, so each group must give the same output digest in every round.
``check`` counts the operations attempted and the failures seen in a pass.
A workload runs at least ``min_rounds`` rounds; the output digest of its
first ``pinned_groups`` groups is pinned for the default seed.  Before each
latency unit the worker times ``ref_samples`` runs of the reference kernel
``ref_kernel`` (see ``refclock.py``).

* ``desk-main``: the ``main`` preset at the ``desk`` profile through
  ``run_experiment``, as one experiment of three instances per distribution
  for every five seconds of the run, all distinct, in a single round; many
  small games, GIM encoding dominates.  Many distinct instances keep the
  work per run alike across seeds.
* ``paper-scan``: the ``main`` preset at the ``paper`` profile on the
  no-externality distributions, one instance per experiment and about one
  experiment per second of the run, all distinct, in a single round, with
  experiment seeds drawn from the workload seed until the instance's pruned
  profile lattice falls in a fixed band.  Lattice size sets the cost of the PSNE
  scan, and at paper scale it spans four orders of magnitude, so the band
  keeps the scan dominant and the work per run alike across seeds.
* ``oracle-check``: every bid profile of n=3, k=5 games across the uniform
  models, auction families, tie rules and roundings, comparing
  ``evaluate_profile`` with ``simulate_outcome`` within 1e-9.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os

import numpy as np

from posauction.agg import ConfigTable, evaluate_profile, size_stats
from posauction.encoders import encode
from posauction.experiments import preset_config, run_experiment
from posauction.mechanisms import MechanismSpec, simulate_outcome
from posauction.models import (DistributionSpec, normalize_setting, sample_setting,
                               setting_from_json_dict)
from posauction.solver import prune_dominated

DESK_SECONDS_PER_GROUP = 5.0
DESK_MIN_GROUPS = 2
DESK_INSTANCES = 3

PAPER_DISTRIBUTIONS = ("v-ln", "bhn-uni", "eos-ln")
PAPER_PER_DISTRIBUTION = 3
PAPER_SECONDS_PER_INSTANCE = 1.0
PAPER_LATTICE_BAND = (80_000, 88_000)
PAPER_CANDIDATES = 200_000

ORACLE_MODELS = ("eos-uni", "v-uni", "bhn-uni", "bss", "cascade-uni",
                 "hybrid-uni", "gim-uni")
ORACLE_AUCTIONS = (("gfp", "unit"), ("gsp", "unit"), ("gsp", "quality"))
ORACLE_TIES = ("uniform", "lexicographic")
ORACLE_ROUNDINGS = ("up", "down", "nearest", "up_plus_one")
ORACLE_N, ORACLE_K = 3, 5
ORACLE_TOL = 1e-9

# An equilibrium found on the AGG tables (1e-9 best-response tolerance) is
# re-checked on the independent simulator; allow for both tolerances.
SPOT_TOL = 1e-8
SPOT_CHECKS = 40


def tree_digest(root: str) -> tuple[str, int]:
    """sha256 over the relative paths and bytes of every file under root,
    and the total bytes."""
    digest = hashlib.sha256()
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(os.path.relpath(path, root).encode() + b"\0")
            digest.update(len(data).to_bytes(8, "little") + data)
            total += len(data)
    return digest.hexdigest(), total


# --------------------------------------------------------------------------
# counters recorded at layer boundaries in a traced pass

def _count_tables(kind: str):
    def count(tracer, game, _args, _kwargs):
        entries = size_stats(game)["total_table_entries"]
        nbytes = sum(t.data.nbytes if isinstance(t, ConfigTable) else 8 * len(t)
                     for t in game.tables.values())
        tracer.counts[f"{kind}.entries"] += entries
        tracer.counts["encoders.table_entries"] += entries
        tracer.counts["encoders.table_bytes"] += nbytes
    return count


def _count_scan(tracer, es, _args, _kwargs):
    tracer.counts["solver.scan.profiles"] += es.scanned
    tracer.counts["solver.equilibria"] += len(es)
    tracer.counts["solver.scan.unsolved"] += not es.solved


def _count_resamples(tracer, _relation, _args, kwargs):
    tracer.counts["stats.resamples"] += kwargs.get("resamples", 20_000)


ENCODER_TARGETS = [
    ("posauction.encoders", "encode_gfp", "encoders.noext", _count_tables("encoders.noext")),
    ("posauction.encoders", "encode_gsp", "encoders.noext", _count_tables("encoders.noext")),
    ("posauction.encoders", "encode_gim_gsp", "encoders.gim", _count_tables("encoders.gim")),
]


# --------------------------------------------------------------------------
# desk-main and paper-scan: run_experiment on resolved configs

class RunWorkload:
    """One group per resolved config; a pass runs ``run_experiment`` on one."""

    latency_span = "experiments.run_instance"

    def __init__(self, name: str, configs, min_rounds: int, pinned_groups: int,
                 ref_kernel: str = "interp", ref_samples: int = 1):
        self.name = name
        self.groups = configs
        self.min_rounds = min_rounds
        self.pinned_groups = pinned_groups
        self.ref_kernel = ref_kernel
        self.ref_samples = ref_samples
        self.units_per_round = sum(c.instances * len(c.distributions) for c in configs)
        self.latency_targets = [
            ("posauction.experiments", "run_instance", self.latency_span, None)]
        self.traced_targets = self.latency_targets + [
            (__name__, "run_experiment", "experiments.run_experiment", None),
            ("posauction.experiments", "sample_setting", "models.sample", None),
            ("posauction.experiments", "normalize_setting", "models.sample", None),
            ("posauction.experiments", "max_welfare", "mechanisms.optimize", None),
            ("posauction.experiments", "max_clicks", "mechanisms.optimize", None),
            ("posauction.experiments", "vcg", "mechanisms.vcg", None),
            ("posauction.experiments", "simulate_outcome", "mechanisms.simulate", None),
            ("posauction.experiments", "prune_dominated", "solver.prune", None),
            ("posauction.experiments", "encode", "encoders.encode", None),
            *ENCODER_TARGETS,
            ("posauction.experiments", "enumerate_psne", "solver.scan", _count_scan),
            ("posauction.metrics", "metric_vector", "metrics.metric_vector", None),
            ("posauction.metrics", "bounds_for_unsolved", "metrics.bounds", None),
            ("posauction.experiments", "classify_pair", "stats.classify", _count_resamples),
        ]

    def run_pass(self, cfg, out_dir: str):
        return run_experiment(cfg, out_dir, jobs=1)

    @staticmethod
    def _records(cfg, out_dir: str):
        for dist in cfg.distributions:
            folder = os.path.join(out_dir, dist, "instances")
            for name in sorted(os.listdir(folder)):
                with open(os.path.join(folder, name)) as fh:
                    yield json.load(fh)

    def check(self, cfg, out_dir: str, report) -> dict:
        digest, nbytes = tree_digest(out_dir)
        failures = [f"{self.name}: {f}" for f in report.failures]
        games = unsolved = 0
        for record in self._records(cfg, out_dir):
            for cell in record.get("mechanisms", {}).values():
                games += 1
                unsolved += not cell["solved"]
        instances = cfg.instances * len(cfg.distributions)
        return {"digest": digest, "bytes": nbytes, "failures": failures,
                "attempted": instances * (1 + len(cfg.mechanisms)),
                "failed": len(failures), "games": games, "unsolved": unsolved}

    def spot_check(self, out_dirs: list[str]) -> tuple[int, list[str]]:
        """Re-check a fixed subset of the reported equilibria on the direct
        simulator: no bidder may gain by a unilateral move within its pruned
        bids.  ``out_dirs`` holds one pass's output per group."""
        candidates = []
        for cfg, out_dir in zip(self.groups, out_dirs):
            for record in self._records(cfg, out_dir):
                for mc in cfg.mechanisms:
                    profiles = record["mechanisms"][mc.label].get("profiles", [])
                    for p in sorted({0, len(profiles) // 2, len(profiles) - 1}):
                        if 0 <= p < len(profiles):
                            candidates.append((record, mc.spec(record["k"]), profiles[p]))
        step = max(1, len(candidates) // SPOT_CHECKS)
        chosen = candidates[::step][:SPOT_CHECKS]
        failures = []
        for record, mech, profile in chosen:
            setting = setting_from_json_dict(record["setting"])
            base = simulate_outcome(setting, mech, profile).expected_utility
            deviations = ((i, bid) for i, bids in enumerate(prune_dominated(setting, mech))
                          for bid in bids)
            for i, bid in deviations:
                trial = list(profile)
                trial[i] = bid
                gain = simulate_outcome(setting, mech, trial).expected_utility[i] - base[i]
                if gain > SPOT_TOL:
                    failures.append(
                        f"{self.name}: {record['distribution']}/{record['instance']} "
                        f"profile {profile} is not an equilibrium: bidder {i} "
                        f"gains {gain:.3g} by bidding {bid}")
                    break
        return len(chosen), failures


def desk_main(seed: int, seconds: float) -> RunWorkload:
    """As many distinct experiments as fill the run once; the first
    ``DESK_MIN_GROUPS`` are the same whatever the run length."""
    groups = max(DESK_MIN_GROUPS, int(seconds // DESK_SECONDS_PER_GROUP))
    return RunWorkload("desk-main", [
        preset_config("main", "desk", instances=DESK_INSTANCES, seed=seed * 1000 + g)
        for g in range(groups)], min_rounds=1, pinned_groups=DESK_MIN_GROUPS)


def pruned_lattice(dist: str, experiment_seed: int, n: int, m: int, k: int) -> int:
    """Profiles in the pruned lattice of instance 0 of a one-distribution
    experiment; the generator mirrors the pipeline's per-instance seeding
    (experiment seed, distribution index, instance index)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(experiment_seed, 0, 0)))
    setting = normalize_setting(
        sample_setting(DistributionSpec.from_name(dist), n, m, rng=rng), k)
    return math.prod(len(a) for a in prune_dominated(setting, MechanismSpec(k_max=k)))


def paper_scan(seed: int, seconds: float) -> RunWorkload:
    """One instance per distribution in turn, as many as fill the run once;
    the first ``PAPER_PER_DISTRIBUTION`` rounds of the turn are the same
    whatever the run length."""
    lo, hi = PAPER_LATTICE_BAND
    per_distribution = max(PAPER_PER_DISTRIBUTION,
                           int(seconds // (PAPER_SECONDS_PER_INSTANCE * len(PAPER_DISTRIBUTIONS))))
    chosen = []
    for d_index, dist in enumerate(PAPER_DISTRIBUTIONS):
        base = preset_config("main", "paper", distributions=[dist], instances=1)
        seeds = []
        for j in range(PAPER_CANDIDATES):
            experiment_seed = (seed * len(PAPER_DISTRIBUTIONS) + d_index) * PAPER_CANDIDATES + j
            if lo <= pruned_lattice(dist, experiment_seed, base.n, base.m, base.k) <= hi:
                seeds.append(experiment_seed)
                if len(seeds) == per_distribution:
                    break
        else:
            raise RuntimeError(f"too few {dist} instances with a lattice in {PAPER_LATTICE_BAND}")
        chosen.append([(dist, s) for s in seeds])
    configs = [preset_config("main", "paper", distributions=[dist], instances=1, seed=s)
               for turn in zip(*chosen) for dist, s in turn]
    # an instance takes most of a second, so sample the machine's speed more
    # than once per instance to have enough samples
    return RunWorkload("paper-scan", configs, min_rounds=1,
                       pinned_groups=PAPER_PER_DISTRIBUTION * len(PAPER_DISTRIBUTIONS),
                       ref_kernel="mixed", ref_samples=4)


# --------------------------------------------------------------------------
# oracle-check: AGG payoffs against the direct simulator

def check_game(setting, mech):
    """Payoffs of every bid profile on the AGG, the number of profiles whose
    AGG payoffs differ from the simulator's by more than ORACLE_TOL, and the
    largest gap."""
    game = encode(setting, mech)
    rows = []
    bad = 0
    worst = 0.0
    for bids in itertools.product(range(mech.k_max + 1), repeat=setting.n):
        agg = evaluate_profile(game, list(bids))
        direct = simulate_outcome(setting, mech, bids).expected_utility
        gap = float(np.max(np.abs(agg - direct)))
        bad += gap > ORACLE_TOL
        worst = max(worst, gap)
        rows.append(agg)
    return np.array(rows), bad, worst


class OracleWorkload:
    """A single group of games; a pass checks every profile of each."""

    name = "oracle-check"
    latency_span = "oracle.game"
    spot_check = None
    min_rounds = 3
    pinned_groups = 1
    ref_kernel = "interp"
    ref_samples = 1

    def __init__(self, seed: int, _seconds: float):
        games = []
        combos = itertools.product(ORACLE_MODELS, ORACLE_AUCTIONS, ORACLE_TIES,
                                   ORACLE_ROUNDINGS)
        for index, (dist, (family, rule), tie, rounding) in enumerate(combos):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, index)))
            setting = normalize_setting(sample_setting(
                DistributionSpec.from_name(dist), ORACLE_N, ORACLE_N, rng=rng), ORACLE_K)
            mech = MechanismSpec(family=family, weight_rule=rule, tie_rule=tie,
                                 rounding=rounding, k_max=ORACLE_K)
            games.append((f"{dist}/{family}/{rule}/{tie}/{rounding}", setting, mech))
        self.groups = [games]
        self.units_per_round = len(games)
        self.latency_targets = [(__name__, "check_game", self.latency_span, None)]
        self.traced_targets = self.latency_targets + [
            (__name__, "encode", "encoders.encode", None),
            *ENCODER_TARGETS,
            (__name__, "evaluate_profile", "agg.evaluate", None),
            (__name__, "simulate_outcome", "mechanisms.simulate", None),
        ]

    def run_pass(self, games, _out_dir: str):
        return [(label, *check_game(setting, mech)) for label, setting, mech in games]

    def check(self, _games, _out_dir: str, results) -> dict:
        digest = hashlib.sha256()
        failures = []
        profiles = failed = 0
        for label, payoffs, bad, worst in results:
            digest.update(label.encode() + (np.round(payoffs, 9) + 0.0).tobytes())
            profiles += len(payoffs)
            failed += bad
            if bad:
                failures.append(f"oracle-check: {label}: {bad} profiles differ, "
                                f"worst gap {worst:.3g}")
        return {"digest": digest.hexdigest(), "bytes": 0, "failures": failures,
                "attempted": profiles, "failed": failed,
                "games": len(results), "unsolved": 0}


WORKLOADS = {
    "desk-main": desk_main,
    "paper-scan": paper_scan,
    "oracle-check": OracleWorkload,
}
