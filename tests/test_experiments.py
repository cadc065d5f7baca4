import json
import os

import pytest

from posauction import experiments
from posauction.cli import main as cli_main
from posauction.experiments import (ExperimentConfig, MechanismConfig,
                                    config_from_dict, config_to_dict,
                                    describe_instance, preset_config,
                                    run_experiment, run_instance)
from posauction.mechanisms import outcome_groups, simulate_outcome
from posauction.metrics import metric_vector
from posauction.models import DISTRIBUTION_NAMES, setting_from_json_dict


def tiny_config(**overrides):
    base = dict(distributions=["v-uni"],
                mechanisms=[MechanismConfig.named("ugsp"),
                            MechanismConfig.named("wgsp")],
                n=3, m=3, k=4, instances=3, seed=7, resamples=300)
    base.update(overrides)
    return ExperimentConfig(**base)


def _tree_bytes(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_run_is_byte_deterministic(tmp_path):
    cfg = tiny_config()
    run_experiment(cfg, tmp_path / "a")
    run_experiment(tiny_config(), tmp_path / "b")
    ta, tb = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
    assert ta.keys() == tb.keys()
    assert all(ta[k] == tb[k] for k in ta)


def test_jobs_do_not_change_output(tmp_path):
    run_experiment(tiny_config(), tmp_path / "serial", jobs=1)
    run_experiment(tiny_config(), tmp_path / "pool", jobs=2)
    ta, tb = _tree_bytes(tmp_path / "serial"), _tree_bytes(tmp_path / "pool")
    assert ta == tb


def test_pool_is_capped_at_the_task_count(tmp_path, monkeypatch):
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    run_experiment(tiny_config(distributions=["v-uni", "eos-uni"]),
                   tmp_path / "many", jobs=5000)
    assert sizes == [3]  # one pool for the whole run
    run_experiment(tiny_config(instances=1), tmp_path / "one", jobs=8)
    assert sizes == [3]  # one task per distribution runs serially
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(tiny_config(), tmp_path / "bad", jobs=jobs)
    assert not (tmp_path / "bad").exists()


def test_outputs_exist_and_summary_counts_solved(tmp_path):
    cfg = tiny_config(instances=4)
    report = run_experiment(cfg, tmp_path / "out")
    assert report.ok
    ddir = tmp_path / "out" / "v-uni"
    assert (ddir / "summary.csv").exists()
    for metric in ("efficiency", "revenue", "relevance", "envy"):
        assert (ddir / f"relations_{metric}.csv").exists()
        assert (ddir / f"relations_{metric}.md").exists()
    lines = (ddir / "summary.csv").read_text().strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("mechanism,metric,n,")
    # the n column counts instances with at least one equilibrium
    records = [json.loads((ddir / "instances" / f"{i:04d}.json").read_text())
               for i in range(4)]
    for label in ("ugsp", "wgsp"):
        solved = sum(1 for r in records
                     if "selections" in r["mechanisms"][label])
        for row in rows:
            cells = row.split(",")
            if cells[0] == label:
                assert int(cells[2]) == solved


def test_reduced_main_preset_covers_all_13_distributions(tmp_path):
    cfg = preset_config("main", n=2, m=2, k=3, instances=2, resamples=200)
    report = run_experiment(cfg, tmp_path / "a")
    assert report.ok
    summaries = sorted(p.parent.name for p in (tmp_path / "a").rglob("summary.csv"))
    assert len(summaries) == 13
    for metric in ("efficiency", "revenue", "relevance"):
        assert (tmp_path / "a" / "gim-ln" / f"relations_{metric}.md").exists()
    run_experiment(preset_config("main", n=2, m=2, k=3, instances=2,
                                 resamples=200), tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_sweep_creates_cells(tmp_path):
    cfg = tiny_config(instances=2, sweep=("k", [3, 4]))
    run_experiment(cfg, tmp_path / "out")
    assert (tmp_path / "out" / "k=3" / "v-uni" / "summary.csv").exists()
    assert (tmp_path / "out" / "k=4" / "v-uni" / "summary.csv").exists()


def test_envy_matrix_omitted_for_externality_models(tmp_path):
    cfg = tiny_config(distributions=["cascade-uni"],
                      mechanisms=[MechanismConfig.named("wgsp")])
    run_experiment(cfg, tmp_path / "out")
    ddir = tmp_path / "out" / "cascade-uni"
    assert (ddir / "relations_efficiency.md").exists()
    assert not (ddir / "relations_envy.md").exists()


def test_config_validation_errors():
    cfg = tiny_config(mechanisms=[])
    assert any("no mechanisms" in p for p in cfg.validate())
    cfg = tiny_config(distributions=["not-a-dist"])
    assert any("unknown distribution" in p for p in cfg.validate())
    cfg = tiny_config(distributions=["v-uni", "eos-uni", "v-uni"])
    assert cfg.validate() == ["distribution 'v-uni' is listed more than once"]
    cfg = tiny_config(mechanisms=[MechanismConfig.named("cwgsp")])
    assert any("continuation" in p for p in cfg.validate())
    with pytest.raises(ValueError):
        run_experiment(cfg, "/tmp/never-used")
    for resamples in (0, -5):
        assert any("resamples" in p for p in tiny_config(resamples=resamples).validate())
    for alphas in ((), (0.05, 0.0), (1.5, 0.01), (-0.05,), (0.05, float("nan"))):
        assert any("(0, 1]" in p for p in tiny_config(alphas=alphas).validate())
    for alphas in ((0.01, 0.05), (0.05, 0.05)):
        assert any("decreasing" in p for p in tiny_config(alphas=alphas).validate())
    assert tiny_config(alphas=(1.0, 0.05, 0.01)).validate() == []
    for field in ("n", "m", "k", "instances", "resamples", "seed", "budget"):
        for value in (2.0, "3", True, None):
            problems = tiny_config(**{field: value}).validate()
            assert any(field in p and "integers" in p for p in problems)
    for field in ("seed", "budget"):
        assert any("non-negative" in p for p in tiny_config(**{field: -1}).validate())
    assert tiny_config(seed=0, budget=0).validate() == []
    for values in ([2, 2.5], [0], [True]):
        assert any("sweep values" in p for p in tiny_config(sweep=("k", values)).validate())
    for values in ([], [3, 3], [3, 4, 3]):
        assert any("non-empty list of distinct" in p
                   for p in tiny_config(sweep=("k", values)).validate())
    for bad in (dict(family="gps"), dict(rounding="upp"), dict(squash=2.0),
                dict(squash="1"), dict(tie_rule="coin"), dict(weight_rule="flat"),
                dict(gim_tie_lottery="draw")):
        problems = tiny_config(mechanisms=[MechanismConfig(label="x", **bad)]).validate()
        assert any(p.startswith("mechanism 'x': ") for p in problems)


def test_zero_resamples_rejected_before_any_instance_runs(tmp_path):
    with pytest.raises(ValueError, match="resamples"):
        run_experiment(tiny_config(resamples=0), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_bad_mechanism_rejected_before_any_instance_runs(tmp_path, monkeypatch):
    def refuse(*_args):
        raise AssertionError("an instance ran")

    monkeypatch.setattr(experiments, "run_instance", refuse)
    cfg = tiny_config(mechanisms=[MechanismConfig(label="x", rounding="upp")])
    with pytest.raises(ValueError, match="mechanism 'x': unknown rounding rule"):
        run_experiment(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_grouped_scores_equal_per_equilibrium_scores():
    # run_instance scores one profile per outcome key and copies the values;
    # rescoring every equilibrium on its own must give the same numbers
    cfg = preset_config("main", profile="desk")
    shared = 0
    for dist_index, name in enumerate(DISTRIBUTION_NAMES):
        record = run_instance(cfg, name, dist_index, 0, cfg.n, cfg.m, cfg.k)
        setting = setting_from_json_dict(record["setting"])
        for mc in cfg.mechanisms:
            cell = record["mechanisms"][mc.label]
            if "metric_values" not in cell:
                continue
            mech = mc.spec(cfg.k)
            want = {metric: [] for metric in record["metrics_defined"]}
            for profile in cell["profiles"]:
                mv = metric_vector(simulate_outcome(setting, mech, profile), setting,
                                   record["max_welfare"], record["max_clicks"])
                for metric in want:
                    want[metric].append(mv.get(metric))
            assert cell["metric_values"] == want
            shared += len(cell["profiles"]) - len(outcome_groups(setting, mech,
                                                                 cell["profiles"])[0])
    assert shared > 0


def test_config_round_trip():
    cfg = preset_config("tiebreak", profile="desk")
    doc = config_to_dict(cfg)
    back = config_from_dict({"preset": None, **doc})
    assert config_to_dict(back) == doc


def test_presets_resolve():
    for name in ("main", "wgfp", "cwgsp", "tiebreak", "rounding",
                 "scale_k", "scale_n", "scale_m"):
        cfg = preset_config(name, profile="desk")
        assert cfg.validate() == []
    assert preset_config("main", profile="paper").k == 30
    assert preset_config("main", profile="desk").instances == 50
    assert preset_config("scale_m").sweep == ("m", [1, 2, 3, 4, 5])


def test_run_instance_records_fields():
    cfg = tiny_config()
    rec = run_instance(cfg, "v-uni", 0, 1, 3, 3, 4)
    assert rec["error"] is None
    assert rec["max_welfare"] > 0
    assert set(rec["mechanisms"]) == {"ugsp", "wgsp"}
    cell = rec["mechanisms"]["wgsp"]
    assert "bounds" in cell
    assert cell["solved"]


def test_cli_run_and_describe(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "distributions": ["eos-uni"],
        "mechanisms": ["ugsp"],
        "n": 2, "m": 2, "k": 3, "instances": 2, "seed": 3,
        "resamples": 200}))
    out_dir = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(out_dir),
                     "--quiet"])
    assert code == 0
    instance = out_dir / "eos-uni" / "instances" / "0000.json"
    code = cli_main(["describe", str(instance)])
    assert code == 0
    text = capsys.readouterr().out
    assert "model: eos" in text
    assert "max welfare" in text
    assert "dominance-pruned bid ranges" in text


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli_main(["describe", str(bad)]) == 2
    assert "byte" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mechanisms": []}))
    assert cli_main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
    for doc in ({"resamples": 200.0}, {"instances": 2.0}, {"seed": 1.5},
                {"budget": -1}, {"seed": -3}, {"sweep": ["k", 5]},
                {"distributions": ["v-uni", "v-uni"]},
                {"mechanisms": [{"label": "x", "bogus": 1}]},
                {"mechanisms": [{"label": "x", "family": "gps"}]}):
        cfg.write_text(json.dumps({"distributions": ["v-uni"], "mechanisms": ["gfp"],
                                   "n": 2, "m": 2, "k": 3, **doc}))
        assert cli_main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o"), "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err
    cfg.write_text(json.dumps({"distributions": ["v-uni"], "mechanisms": ["gfp"],
                               "n": 2, "m": 2, "k": 3}))
    assert cli_main(["run", "--config", str(cfg), "--jobs", "0", "--out",
                     str(tmp_path / "o"), "--quiet"]) == 2
    assert "config error: --jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_describe_eos_reports_identical_rows(tmp_path):
    cfg = tiny_config(distributions=["eos-uni"],
                      mechanisms=[MechanismConfig.named("ugsp")], instances=1)
    run_experiment(cfg, tmp_path / "out")
    text = describe_instance(str(tmp_path / "out" / "eos-uni" / "instances"
                                 / "0000.json"))
    assert "model: eos" in text
    assert "click rates" in text


def test_describe_cascade_spot_checks(tmp_path):
    cfg = tiny_config(distributions=["cascade-uni"],
                      mechanisms=[MechanismConfig.named("wgsp")], instances=1)
    run_experiment(cfg, tmp_path / "out")
    text = describe_instance(str(tmp_path / "out" / "cascade-uni" / "instances"
                                 / "0000.json"))
    assert "continuation" in text
    assert "externality spot checks" in text
