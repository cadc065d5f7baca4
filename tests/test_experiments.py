import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    for field in ("include_vcg", "include_dvcg"):
        for value in ("false", 0, 1, None):
            problems = tiny_config(**{field: value}).validate()
            assert problems == ["include_vcg and include_dvcg must be true or false"]
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
    for name in experiments.PRESETS:
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


def _reference_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _leaves(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [leaf for x in obj for leaf in _leaves(x)]
    return [obj]


def test_dumps_matches_json_dumps_on_records():
    cfg = preset_config("main", "desk")
    leaves = []
    for dist_index, name in enumerate(DISTRIBUTION_NAMES):
        for instance in range(2):
            record = run_instance(cfg, name, dist_index, instance, cfg.n, cfg.m, cfg.k)
            assert experiments._dumps(record) == _reference_json(record)
            leaves += _leaves(record)
    # the records carry numpy scalars and nulls next to plain floats
    assert any(type(x) is np.float64 for x in leaves)
    assert any(x is None for x in leaves)


_numbers = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.floats().map(np.float64))
_texts = st.text(st.sampled_from(',[]{}":\\ a\u00e9\u20ac\U0001f600\n')) | st.text()
_trees = st.recursive(
    _numbers | _texts | st.lists(_numbers | _texts, max_size=4)
    | st.lists(st.lists(_numbers | _texts, max_size=4), max_size=4),
    lambda kids: (st.lists(kids, max_size=5) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(_texts, kids, max_size=4)),
    max_leaves=40)


@given(tree=_trees)
@settings(max_examples=200, deadline=None)
@example(tree=[])
@example(tree={})
@example(tree=[[]])
@example(tree=[[], [1, 2.5], []])
@example(tree=[[1], 2, [3]])
@example(tree=[1, [2]])
@example(tree=[[1, [2]], [3]])
@example(tree=[1, "a,b"])
@example(tree=[[1], ["],["]])
@example(tree=[[{"a": 1}]])
@example(tree=[0, {}, [{}]])
@example(tree=(1, (2, 3), ()))
@example(tree=[True, 1, 0, False, None])
@example(tree=[math.nan, math.inf, -math.inf, -0.0])
@example(tree={"a,b": ["[x]", "{y}", '"z"'], "\u00e9": [1, "2"]})
def test_dumps_matches_json_dumps(tree):
    assert experiments._dumps(tree) == _reference_json(tree)


@given(tree=st.dictionaries(st.text(max_size=3) | st.integers() | st.floats() | st.booleans()
                            | st.none(), st.integers() | st.lists(st.integers()), max_size=4))
@example(tree={1: "a"})
@example(tree={"a": 1, 2: "b"})
@example(tree={(1, 2): 0})
@example(tree={"a": {None: [1]}})
def test_dumps_non_str_keys_match_or_raise(tree):
    # json.dumps converts int, float, bool and None keys; the writer may
    # refuse them instead, but never writes other bytes
    try:
        out = experiments._dumps(tree)
    except TypeError:
        return
    assert out == _reference_json(tree)


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
    # a record whose sample stage failed has no setting: name its own failure
    failed = tmp_path / "failed.json"
    failed.write_text(json.dumps({"instance": 7, "distribution": "eos-uni", "n": 2,
                                  "m": 2, "k": 3, "error": {"stage": "sample",
                                                            "reason": "bad draw"}}))
    assert cli_main(["describe", str(failed)]) == 2
    assert capsys.readouterr().err == (
        f"error: {failed}: instance 7 failed at its sample stage: bad draw\n")


@pytest.mark.parametrize("error, said", [
    ({"reason": "x"}, "failed: x"),
    ({"stage": "encode"}, "failed at its encode stage"),
    ({"note": "?"}, "failed"),
    ("boom", "failed: boom"),
])
def test_cli_describe_names_a_partial_failure(tmp_path, capsys, error, said):
    # a failed record names its file and whatever of its failure it holds
    path = tmp_path / "failed.json"
    path.write_text(json.dumps({"instance": 3, "error": error}))
    assert cli_main(["describe", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: instance 3 {said}\n"


@pytest.mark.parametrize("doc", [[1, 2], "x", None, 4, {"setting": 5},
                                 {"setting": [], "instance": 3}])
def test_cli_describe_names_json_of_the_wrong_shape(tmp_path, capsys, doc):
    # valid JSON that is neither an instance record nor a setting object
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["describe", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path} is not an instance record or setting object\n")


CASCADE_PAIR = {"model_kind": "cascade", "n": 2, "m": 2, "values": [1.0, 2.0],
                "qualities": [0.5, 0.5], "externality": [{"2": 0.5}, {"1": 0.5}],
                "continuation": [0.5, 0.5]}


@pytest.mark.parametrize("doc, message", [
    ({}, "setting lacks the field 'model_kind'"),
    ({"model_kind": "v"}, "setting lacks the field 'm'"),
    ({**CASCADE_PAIR, "externality": 5},
     "setting field 'externality' is ill-typed: 'int' object is not iterable"),
    ({"setting": {**CASCADE_PAIR, "values": [[1.0], [2.0]]}},
     "setting field 'values' is ill-typed: 2-D where 1-D numbers belong"),
    ({**CASCADE_PAIR, "model_kind": "nope"}, "unknown model kind 'nope'"),
    ({"model_kind": "v", "n": 1, "m": 2, "values": [[1.0, 1.0]], "clicks": [[0.5, 0.25]],
      "qualities": [0.5]}, "invalid setting: matrix shapes must be (1, 1)"),
    ({**CASCADE_PAIR, "continuation": [0.5, 0.25]}, "invalid setting: cascade: externality "
     "of bidder 0 does not match its continuation probabilities"),
    ({"model_kind": "v", "n": 5, "m": 2, "values": [[1.0, 1.0], [2.0, 2.0]],
      "clicks": [[0.5, 0.25], [0.5, 0.25]], "qualities": [0.5, 0.5]},
     "setting field 'n' is 5 but 'values' has 2 rows"),
])
def test_cli_describe_names_malformed_settings(tmp_path, capsys, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["describe", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_cli_describe_accepts_the_cascade_pair(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(CASCADE_PAIR))
    assert cli_main(["describe", str(path)]) == 0
    assert "f_0({1})=0.5000" in capsys.readouterr().out


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
                {"mechanisms": [{"label": "x", "family": "gps"}]},
                {"include_vcg": "false"}, {"include_dvcg": 0}):
        cfg.write_text(json.dumps({"distributions": ["v-uni"], "mechanisms": ["gfp"],
                                   "n": 2, "m": 2, "k": 3, **doc}))
        assert cli_main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o"), "--quiet"]) == 2
        assert "config error" in capsys.readouterr().err
    for doc, message in (({"mechanisms": ["gsp"]}, "unknown mechanism 'gsp'"),
                         ({"profile": "huge"}, "unknown profile 'huge'"),
                         ({"preset": "huge"}, "unknown preset 'huge'")):
        cfg.write_text(json.dumps({"distributions": ["v-uni"], "mechanisms": ["gfp"],
                                   "n": 2, "m": 2, "k": 3, **doc}))
        assert cli_main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
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
