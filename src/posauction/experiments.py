"""Experiment harness: sample, solve, summarize, and compare auctions.

A run walks (distribution, instance) cells: sample a setting, normalize its
values onto the bid grid, compute the welfare/click normalizers and the VCG
benchmarks, then for each configured mechanism prune dominated bids, encode
the game, enumerate its pure equilibria, and score them on the four
metrics.  Equilibria that the simulator maps to the same outcome share a key
(``mechanisms.outcome_groups``); each distinct outcome is scored once and its
values are copied to every equilibrium with that key.  Games with no
identified equilibrium enter the statistics as provable metric intervals
instead of being dropped.

Outputs are deterministic functions of (config, seed): per-instance JSON
artifacts, one summary CSV per distribution, and one relation matrix per
(distribution, metric) in CSV and markdown form.  Every JSON file is written
by :func:`_dumps`: 2-space indented, keys sorted, the same bytes as
``json.dumps(..., indent=2, sort_keys=True)``, plus a closing newline.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics as metrics_mod
from .encoders import encode
from .mechanisms import (MechanismSpec, max_clicks, max_welfare, outcome_groups,
                         simulate_outcome, vcg)
from .models import (DISTRIBUTION_NAMES, DistributionSpec, GimSetting, normalize_setting,
                     sample_setting, setting_from_json_dict, validate_setting)
from .solver import DEFAULT_BUDGET, enumerate_psne, prune_dominated, select
from .stats import PairRelation, bonferroni, classify_pair

CRITERIA = ("min", "median", "max")
BASE_METRICS = ("efficiency", "revenue", "relevance")


@dataclass(frozen=True)
class MechanismConfig:
    """JSON-able mechanism description used in experiment configs."""

    label: str
    family: str = "gsp"
    weight_rule: str = "quality"
    squash: float = 1.0
    tie_rule: str = "uniform"
    rounding: str = "up"
    gim_tie_lottery: str = "independent"

    def spec(self, k_max: int) -> MechanismSpec:
        return MechanismSpec(family=self.family, weight_rule=self.weight_rule,
                             squash=self.squash, tie_rule=self.tie_rule,
                             rounding=self.rounding, k_max=k_max,
                             gim_tie_lottery=self.gim_tie_lottery)

    @classmethod
    def named(cls, name: str, **overrides) -> "MechanismConfig":
        base = {
            "gfp": dict(family="gfp", weight_rule="unit"),
            "ugsp": dict(family="gsp", weight_rule="unit"),
            "wgsp": dict(family="gsp", weight_rule="quality"),
            "wgfp": dict(family="gfp", weight_rule="quality"),
            "cwgsp": dict(family="gsp", weight_rule="cascade"),
        }.get(name)
        if base is None:
            raise ValueError(f"unknown mechanism {name!r}")
        base.update(overrides)
        return cls(label=overrides.get("label", name), **{k: v for k, v in base.items()
                                                          if k != "label"})


@dataclass
class ExperimentConfig:
    distributions: list[str] = field(default_factory=lambda: list(DISTRIBUTION_NAMES))
    mechanisms: list[MechanismConfig] = field(default_factory=lambda: [
        MechanismConfig.named("gfp"), MechanismConfig.named("ugsp"),
        MechanismConfig.named("wgsp")])
    n: int = 5
    m: int = 5
    k: int = 30
    instances: int = 200
    seed: int = 1
    resamples: int = 20_000
    include_vcg: bool = True
    include_dvcg: bool = True
    budget: int = DEFAULT_BUDGET
    alphas: tuple[float, float] = (0.05, 0.01)
    preset: str | None = None
    sweep: tuple[str, list[int]] | None = None  # ("k"|"n"|"m", values)

    def validate(self) -> list[str]:
        problems = []
        if not self.distributions:
            problems.append("no distributions configured")
        for i, d in enumerate(self.distributions):
            if d not in DISTRIBUTION_NAMES:
                problems.append(f"unknown distribution {d!r}")
            elif d in self.distributions[:i]:
                problems.append(f"distribution {d!r} is listed more than once")
        if not self.mechanisms:
            problems.append("no mechanisms configured")
        labels = [mc.label for mc in self.mechanisms]
        if len(set(labels)) != len(labels):
            problems.append("mechanism labels must be unique")
        for mc in self.mechanisms:
            try:
                mc.spec(1)  # k_max is checked with the other counts below
            except (TypeError, ValueError) as exc:
                problems.append(f"mechanism {mc.label!r}: {exc}")
            if mc.weight_rule == "cascade":
                bad = [d for d in self.distributions
                       if not d.startswith(("cascade", "hybrid"))]
                if bad:
                    problems.append(
                        f"mechanism {mc.label!r} needs continuation probabilities; "
                        f"incompatible distributions: {', '.join(bad)}")
        if not all(isinstance(v, bool) for v in (self.include_vcg, self.include_dvcg)):
            problems.append("include_vcg and include_dvcg must be true or false")
        counts = {"n": self.n, "m": self.m, "k": self.k, "instances": self.instances,
                  "resamples": self.resamples, "seed": self.seed, "budget": self.budget}
        not_int = [key for key, value in counts.items() if not _is_int(value)]
        if not_int:
            problems.append(f"{', '.join(not_int)} must be integers")
        else:
            if min(self.n, self.m, self.k, self.instances) < 1:
                problems.append("n, m, k and instances must be at least 1")
            if self.resamples < 1:
                problems.append("resamples must be at least 1")
            if self.seed < 0 or self.budget < 0:
                problems.append("seed and budget must be non-negative")
        if self.sweep is not None:
            if self.sweep[0] not in ("k", "n", "m"):
                problems.append("sweep parameter must be one of k, n, m")
            values = self.sweep[1]
            if not all(_is_int(v) and v >= 1 for v in values):
                problems.append("sweep values must be integers of at least 1")
            elif not values or len(set(values)) != len(values):
                problems.append("sweep values must be a non-empty list of distinct values")
        if not self.alphas or not all(0.0 < a <= 1.0 for a in self.alphas):
            problems.append("alphas must be significance levels in (0, 1]")
        elif any(a <= b for a, b in zip(self.alphas, self.alphas[1:])):
            problems.append("alphas must be strictly decreasing, loosest first")
        return problems


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


PROFILES = {
    "paper": dict(n=5, m=5, k=30, instances=200),
    "desk": dict(n=4, m=4, k=8, instances=50),
}

_mech = MechanismConfig.named
# Each preset's fields over the ExperimentConfig defaults; the defaults are
# the main experiment.
PRESETS = {
    "main": {},
    "wgfp": dict(distributions=["v-uni", "v-ln"],
                 mechanisms=[_mech("gfp"), _mech("ugsp"), _mech("wgsp"), _mech("wgfp")]),
    "cwgsp": dict(distributions=["cascade-uni", "cascade-ln"],
                  mechanisms=[_mech("wgsp"), _mech("cwgsp")]),
    "tiebreak": dict(distributions=["eos-ln", "bss"], mechanisms=[
        _mech("gfp", label="gfp-random"),
        _mech("gfp", label="gfp-lex", tie_rule="lexicographic"),
        _mech("ugsp", label="ugsp-random"),
        _mech("ugsp", label="ugsp-lex", tie_rule="lexicographic"),
    ]),
    "rounding": dict(distributions=["v-ln", "cascade-ln"], mechanisms=[
        _mech("wgsp", label="wgsp-up", rounding="up"),
        _mech("wgsp", label="wgsp-down", rounding="down"),
        _mech("wgsp", label="wgsp-nearest", rounding="nearest"),
        _mech("wgsp", label="wgsp-up1", rounding="up_plus_one"),
    ]),
    "scale_k": dict(distributions=["v-ln", "bhn-uni", "cascade-ln"],
                    sweep=("k", [5, 10, 15, 20, 25, 30, 35, 40])),
    "scale_n": dict(distributions=["v-ln", "cascade-ln"], sweep=("n", list(range(2, 11)))),
    "scale_m": dict(distributions=["v-ln", "cascade-ln"], sweep=("m", [1, 2, 3, 4, 5])),
}


def preset_config(name: str, profile: str = "paper", **overrides) -> ExperimentConfig:
    """The named experiment presets, at paper scale unless a profile or
    explicit overrides shrink them."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    # a deep copy, so a caller that edits a config's lists leaves the table be
    cfg = ExperimentConfig(preset=name, **copy.deepcopy(PRESETS[name]))
    for key, value in {**PROFILES[profile], **overrides}.items():
        setattr(cfg, key, value)
    return cfg


def config_from_dict(doc: dict) -> ExperimentConfig:
    doc = dict(doc)
    profile = doc.pop("profile", "paper")
    preset = doc.pop("preset", None)
    mechs = doc.pop("mechanisms", None)
    cfg = preset_config(preset or "main", profile=profile)
    cfg.preset = preset or None
    if mechs is not None:
        cfg.mechanisms = [
            MechanismConfig.named(m) if isinstance(m, str)
            else MechanismConfig(**m) for m in mechs]
    if "sweep" in doc and doc["sweep"] is not None:
        doc["sweep"] = (doc["sweep"][0], list(doc["sweep"][1]))
    for key, value in doc.items():
        if not hasattr(cfg, key):
            raise ValueError(f"unknown config field {key!r}")
        setattr(cfg, key, tuple(value) if key == "alphas" else value)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = dataclasses.asdict(cfg)
    doc["mechanisms"] = [dataclasses.asdict(m) for m in cfg.mechanisms]
    if cfg.sweep is not None:
        doc["sweep"] = [cfg.sweep[0], list(cfg.sweep[1])]
    return doc


# --------------------------------------------------------------------------
# per-instance pipeline

def _instance_rng(seed: int, dist_index: int, instance: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=(seed, dist_index, instance)))


def _selection_summary(values: dict[str, list[float]]) -> dict:
    return {metric: {crit: select(vals, crit) for crit in CRITERIA}
            for metric, vals in values.items()}


def run_instance(cfg: ExperimentConfig, dist_name: str, dist_index: int,
                 instance: int, n: int, m: int, k: int) -> dict:
    """Sample and solve one instance; returns a JSON-able record.

    Failures are caught per stage and recorded, never raised; a failed
    mechanism cell falls back to metric bounds downstream.
    """
    record: dict = {"instance": instance, "distribution": dist_name, "error": None,
                    "n": n, "m": m, "k": k}
    rng = _instance_rng(cfg.seed, dist_index, instance)
    try:
        spec = DistributionSpec.from_name(dist_name)
        setting = normalize_setting(sample_setting(spec, n, m, rng=rng), k)
        max_w = max_welfare(setting)[1]
        max_c = max_clicks(setting)
        record["setting"] = setting.to_json_dict()
        record["max_welfare"] = max_w
        record["max_clicks"] = max_c
    except Exception as exc:  # noqa: BLE001 - recorded, not silenced
        record["error"] = {"stage": "sample", "reason": str(exc)}
        return record

    metric_names = list(BASE_METRICS) + ([] if isinstance(setting, GimSetting) else ["envy"])
    record["metrics_defined"] = metric_names

    if cfg.include_vcg or cfg.include_dvcg:
        record["vcg"] = {}
        for label, disc in (("vcg", None), ("dvcg", k)):
            if (label == "vcg" and not cfg.include_vcg) or \
               (label == "dvcg" and not cfg.include_dvcg):
                continue
            outcome = vcg(setting, discretize=disc)
            mv = metrics_mod.metric_vector(outcome, setting, max_w, max_c)
            record["vcg"][label] = {name: mv.get(name) for name in metric_names}

    record["mechanisms"] = {}
    for mc in cfg.mechanisms:
        cell: dict = {"solved": False, "num_equilibria": 0}
        try:
            mech = mc.spec(k)
            allowed = prune_dominated(setting, mech)
            game = encode(setting, mech)
            es = enumerate_psne(game, allowed, budget=cfg.budget)
            cell["solved"] = es.solved
            cell["num_equilibria"] = len(es)
            cell["profiles"] = [list(p) for p in es.profiles]
            if es.solved and len(es) > 0:
                first, group = outcome_groups(setting, mech, es.profiles)
                scored = []
                for f in first:
                    outcome = simulate_outcome(setting, mech, list(es.profiles[f]))
                    scored.append(metrics_mod.metric_vector(outcome, setting, max_w, max_c))
                values = {name: [scored[g].get(name) for g in group.tolist()]
                          for name in metric_names}
                cell["metric_values"] = values
                cell["selections"] = _selection_summary(values)
        except Exception as exc:  # noqa: BLE001
            cell["error"] = {"stage": "solve", "reason": str(exc)}
        cell["bounds"] = {name: list(metrics_mod.bounds_for_unsolved(name, setting, max_w))
                          for name in metric_names}
        record["mechanisms"][mc.label] = cell
    return record


def _run_instance_task(args) -> dict:
    return run_instance(*args)


# --------------------------------------------------------------------------
# aggregation and emission

_compact = json.JSONEncoder(separators=(",", ":")).encode
_quote = json.encoder.encode_basestring_ascii
# the body of a compact list of rows of numbers, bools and nulls
_ROWS = re.compile(r"\[[^][]*\](?:,\[[^][]*\])*")


def _dumps(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    That call always runs the pure-Python encoder, one token at a time.
    Here a list of numbers, bools and nulls, or a list of rows of them (a
    record's ``profiles``), is one compact call to the C encoder: their
    texts hold no commas or brackets, so the line breaks go in after each
    comma and around each row.  ``nl`` is the newline plus the indent of
    ``obj``'s own line.
    """
    if isinstance(obj, str):
        return _quote(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return ("{" + inner + ("," + inner).join(
            _quote(key) + ": " + _dumps(value, inner) for key, value in sorted(obj.items()))
            + nl + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if not isinstance(obj[0], (str, dict)):
            body = _compact(obj)[1:-1]
            # with no strings there are no keys, so the only dict is {}, a
            # token like a number
            if '"' not in body:
                if "[" not in body:
                    return "[" + inner + body.replace(",", "," + inner) + nl + "]"
                if _ROWS.fullmatch(body):
                    row_inner = inner + "  "
                    return "[" + inner + ("," + inner).join(
                        "[" + row_inner + row.replace(",", "," + row_inner) + inner + "]"
                        if row else "[]" for row in body[1:-1].split("],[")) + nl + "]"
        return "[" + inner + ("," + inner).join(_dumps(x, inner) for x in obj) + nl + "]"
    return _compact(obj)


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(_dumps(obj) + "\n")


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


def _summary_rows(cfg: ExperimentConfig, records: list[dict],
                  metric_names: list[str]) -> list[dict]:
    rows = []
    for mc in cfg.mechanisms:
        cells = [r["mechanisms"][mc.label] for r in records]
        usable = ["selections" in c for c in cells]
        count = sum(usable)
        for metric in metric_names:
            row = {"mechanism": mc.label, "metric": metric, "n": count}
            for crit in CRITERIA:
                vals = [c["selections"][metric][crit]
                        for c, u in zip(cells, usable) if u]
                row[crit] = (float(np.mean(vals)) if vals else float("nan"),
                             float(np.std(vals)) if vals else float("nan"))
            rows.append(row)
    for label in ("vcg", "dvcg"):
        if not records or label not in records[0].get("vcg", {}):
            continue
        for metric in metric_names:
            if metric == "envy":
                continue  # benchmark rows stay out of the envy comparison
            vals = [r["vcg"][label][metric] for r in records]
            row = {"mechanism": label, "metric": metric, "n": len(vals)}
            for crit in CRITERIA:
                row[crit] = (float(np.mean(vals)), float(np.std(vals)))
            rows.append(row)
    return rows


def _entity_intervals(records: list[dict], label: str, metric: str,
                      is_benchmark: bool) -> np.ndarray:
    """(N, 3, 2) interval array for one mechanism or benchmark column."""
    out = np.zeros((len(records), 3, 2))
    for r_idx, record in enumerate(records):
        if is_benchmark:
            value = record["vcg"][label][metric]
            out[r_idx, :, :] = value
            continue
        cell = record["mechanisms"][label]
        if cell.get("selections"):
            for c_idx, crit in enumerate(CRITERIA):
                out[r_idx, c_idx, :] = cell["selections"][metric][crit]
        else:
            lo, hi = cell["bounds"][metric]
            out[r_idx, :, 0] = lo
            out[r_idx, :, 1] = hi
    return out


def relation_table(cfg: ExperimentConfig, records: list[dict], metric: str,
                   entities: list[tuple[str, bool]], num_tests: int,
                   rng: np.random.Generator) -> dict[tuple[str, str], PairRelation]:
    alphas = tuple(bonferroni(a, num_tests) for a in cfg.alphas)
    data = {label: _entity_intervals(records, label, metric, bench)
            for label, bench in entities}
    out = {}
    for i, (la, _) in enumerate(entities):
        for lb, _ in entities[i + 1:]:
            out[(la, lb)] = classify_pair(data[la], data[lb], alphas=alphas,
                                          resamples=cfg.resamples, rng=rng)
    return out


def _write_summary_csv(path: str, rows: list[dict]) -> None:
    lines = ["mechanism,metric,n,worst_mean,worst_std,median_mean,median_std,"
             "best_mean,best_std"]
    for row in rows:
        parts = [row["mechanism"], row["metric"], str(row["n"])]
        for crit in CRITERIA:
            mean, std = row[crit]
            parts += [_fmt(mean), _fmt(std)]
        lines.append(",".join(parts))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_relations(base: str, metric: str, labels: list[str],
                     relations: dict[tuple[str, str], PairRelation],
                     num_tests: int, alphas) -> None:
    csv_lines = ["metric,mechanism_a,mechanism_b,kind,direction,stars,symbol"]
    for (la, lb), rel in relations.items():
        csv_lines.append(",".join([metric, la, lb, rel.kind, str(rel.direction),
                                   str(rel.stars), rel.pretty()]))
    with open(base + ".csv", "w") as fh:
        fh.write("\n".join(csv_lines) + "\n")

    adjusted = [bonferroni(a, num_tests) for a in alphas]
    md = [f"# {metric} relations",
          "",
          f"Bonferroni: {num_tests} simultaneous tests; levels "
          + ", ".join(f"{a:g} -> {adj:.3g}" for a, adj in zip(alphas, adjusted)),
          "",
          "| | " + " | ".join(labels) + " |",
          "|" + "---|" * (len(labels) + 1)]
    for la in labels:
        row = [la]
        for lb in labels:
            if la == lb:
                row.append("")
            elif (la, lb) in relations:
                row.append(relations[(la, lb)].pretty())
            else:
                row.append("")
        md.append("| " + " | ".join(row) + " |")
    with open(base + ".md", "w") as fh:
        fh.write("\n".join(md) + "\n")


@dataclass
class RunReport:
    out_dir: str
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_experiment(cfg: ExperimentConfig, out_dir: str, jobs: int = 1,
                   progress=None) -> RunReport:
    problems = cfg.validate()
    if problems:
        raise ValueError("; ".join(problems))
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "config_resolved.json"), config_to_dict(cfg))

    report = RunReport(out_dir)
    sweep_cells = [(None, None)]
    if cfg.sweep is not None:
        param, values = cfg.sweep
        sweep_cells = [(param, v) for v in values]

    # one pool serves every cell; a single worker runs in this process
    workers = min(jobs, cfg.instances)
    with contextlib.ExitStack() as stack:
        run_all = map
        if workers > 1:
            import multiprocessing

            run_all = stack.enter_context(multiprocessing.Pool(workers)).map
        for param, value in sweep_cells:
            n, m, k = cfg.n, cfg.m, cfg.k
            cell_dir = out_dir
            if param is not None:
                n, m, k = {"n": (value, m, k), "m": (n, value, k),
                           "k": (n, m, value)}[param]
                cell_dir = os.path.join(out_dir, f"{param}={value}")
                os.makedirs(cell_dir, exist_ok=True)
            for dist_index, dist_name in enumerate(cfg.distributions):
                started = time.perf_counter()
                ddir = os.path.join(cell_dir, dist_name)
                os.makedirs(os.path.join(ddir, "instances"), exist_ok=True)
                tasks = [(cfg, dist_name, dist_index, i, n, m, k)
                         for i in range(cfg.instances)]
                records = list(run_all(_run_instance_task, tasks))
                for record in records:
                    _write_json(os.path.join(ddir, "instances",
                                             f"{record['instance']:04d}.json"), record)
                    if record["error"] is not None:
                        report.failures.append({"distribution": dist_name,
                                                "instance": record["instance"],
                                                **record["error"]})
                    for label, cell in record.get("mechanisms", {}).items():
                        if "error" in cell:
                            report.failures.append({"distribution": dist_name,
                                                    "instance": record["instance"],
                                                    "mechanism": label,
                                                    **cell["error"]})
                good = [r for r in records if r["error"] is None]
                if not good:
                    continue
                metric_names = good[0]["metrics_defined"]
                _write_summary_csv(os.path.join(ddir, "summary.csv"),
                                   _summary_rows(cfg, good, metric_names))

                have_bench = bool(good[0].get("vcg"))
                bench = [(lbl, True) for lbl in ("vcg", "dvcg")
                         if have_bench and lbl in good[0]["vcg"]]
                num_tests = 0
                for metric in metric_names:
                    cols = len(cfg.mechanisms) + (len(bench) if metric != "envy" else 0)
                    num_tests += cols * (cols - 1) // 2
                for metric_index, metric in enumerate(metric_names):
                    entities = [(mc.label, False) for mc in cfg.mechanisms]
                    if metric != "envy":
                        entities += bench
                    rng = np.random.default_rng(np.random.SeedSequence(
                        entropy=(cfg.seed, 104729, dist_index, metric_index)))
                    rels = relation_table(cfg, good, metric, entities, num_tests, rng)
                    _write_relations(os.path.join(ddir, f"relations_{metric}"), metric,
                                     [e[0] for e in entities], rels, num_tests, cfg.alphas)
                if progress is not None:
                    rate = len(records) / max(time.perf_counter() - started, 1e-9)
                    progress(f"{cell_dir}: {dist_name} done "
                             f"({len(good)}/{cfg.instances} instances, {rate:.2f}/s)")

    if report.failures:
        _write_json(os.path.join(out_dir, "failures.json"), report.failures)
    return report


# --------------------------------------------------------------------------
# instance inspection

def describe_instance(path: str) -> str:
    """Human-readable report of a serialized setting or instance record."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("setting", doc), dict):
        raise ValueError(f"{path} is not an instance record or setting object")
    if "setting" not in doc and (error := doc.get("error")):
        error = error if isinstance(error, dict) else {"reason": error}
        stage = f" at its {error['stage']} stage" if "stage" in error else ""
        reason = f": {error['reason']}" if "reason" in error else ""
        raise ValueError(f"{path}: instance {doc.get('instance')} failed{stage}{reason}")
    try:
        setting = setting_from_json_dict(doc.get("setting", doc))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if problems := validate_setting(setting):
        raise ValueError(f"{path}: invalid setting: " + "; ".join(problems))
    lines = [f"model: {setting.model_kind}  n={setting.n}  m={setting.m}"]
    if setting.normalized_to is not None:
        lines.append(f"values normalized to a top bid of {setting.normalized_to:g}")
    np_opts = np.printoptions(precision=4, suppress=True)
    with np_opts:
        if isinstance(setting, GimSetting):
            lines.append(f"values (per click): {setting.values}")
            lines.append(f"qualities: {setting.qualities}")
            if setting.continuation is not None:
                lines.append(f"continuation: {setting.continuation}")
                checks = []
                for i in range(min(setting.n, 3)):
                    for j in range(setting.n):
                        if i != j:
                            checks.append(
                                f"f_{i}({{{j}}})={setting.externality_factor(i, [j]):.4f}")
                lines.append("externality spot checks: " + ", ".join(checks[:6]))
        else:
            lines.append("values (bidder x position):")
            lines.append(str(setting.values))
            lines.append("click rates (bidder x position):")
            lines.append(str(setting.clicks))
            lines.append(f"qualities: {setting.qualities}")
    alloc, best_w = max_welfare(setting)
    lines.append(f"max welfare: {best_w:.6g}  (allocation {alloc})")
    lines.append(f"max clicks: {max_clicks(setting):.6g}")
    if setting.normalized_to is not None:
        k = int(setting.normalized_to)
        mech = MechanismSpec(k_max=max(k, 1))
        allowed = prune_dominated(setting, mech)
        spans = ", ".join(f"{i}: 0..{a[-1]}" for i, a in enumerate(allowed))
        lines.append(f"dominance-pruned bid ranges: {spans}")
    return "\n".join(lines) + "\n"
