"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import json
import os
import sys
import types

import pytest

import run
from tracing import (Tracer, layer_self_times, local_speed_factors, patched,
                     quantile, self_times, span_totals, speed_factor, tail_latency,
                     tail_quantile)


@pytest.mark.parametrize("n", [20, 21, 35, 50, 99, 100, 101, 250, 1000])
def test_tail_latency_leaves_at_least_ten_samples_beyond_the_cut(n):
    values = [float(v) for v in range(n, 0, -1)]
    q, cut = tail_latency(values)
    beyond = sum(v > cut for v in values)
    assert beyond >= 10
    if n >= 100:
        assert q == 0.9
        assert cut == quantile(values, 0.9)
    else:
        assert beyond == 10  # the highest such percentile


def test_tail_quantile_falls_back_to_the_median_below_twenty_samples():
    assert tail_quantile(19) == 0.5
    assert tail_quantile(20) == 0.5
    assert tail_quantile(40) == 0.75
    with pytest.raises(ValueError):
        tail_quantile(0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a.root", 0, 100, -1),
        ("b.child", 10, 40, 0),
        ("c.grandchild", 15, 25, 1),
        ("b.child", 50, 70, 0),
    ]
    assert self_times(spans) == pytest.approx([50e-9, 20e-9, 10e-9, 20e-9])
    totals = span_totals(spans)
    assert totals["b.child"]["calls"] == 2
    assert totals["b.child"]["busy_s"] == pytest.approx(50e-9)
    assert totals["b.child"]["self_s"] == pytest.approx(40e-9)
    assert layer_self_times(spans) == pytest.approx(
        {"a": 50e-9, "b": 40e-9, "c": 10e-9})


def test_patched_records_nested_spans_and_restores_the_binding():
    module = types.ModuleType("bench_fake_module")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        counted = []
        targets = [(module.__name__, "outer", "l1.outer", None),
                   (module.__name__, "inner", "l2.inner",
                    lambda t, result, args, kwargs: counted.append(result))]
        with patched(tracer, targets):
            assert module.outer(1) == 4
        assert module.inner is inner and module.outer is outer
    finally:
        del sys.modules[module.__name__]
    names = [s[0] for s in tracer.spans]
    assert names == ["l1.outer", "l2.inner", "trace.count"]
    assert tracer.spans[1][3] == 0  # inner's parent is outer
    assert tracer.spans[2][3] == 0  # counting runs under the caller, not inside inner
    assert counted == [2]


def test_speed_factor_is_nominal_over_the_trimmed_mean():
    # ten samples: the lowest and the highest one are left out
    samples = [0.5] + [1.0] * 4 + [2.0] * 4 + [9.0]
    assert speed_factor(samples, 1.5) == pytest.approx(1.0)
    assert speed_factor([2.0], 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        speed_factor([], 1.0)


def test_local_speed_factors_use_the_samples_of_neighbouring_units():
    # two samples before each of four units
    samples = [1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0, 8.0]
    assert local_speed_factors(samples, 4, 2.0, 0) == pytest.approx([2.0, 1.0, 0.5, 0.25])
    assert local_speed_factors(samples, 4, 2.0, 1) == pytest.approx(
        [2.0 / 1.5, 1.0, 0.5, 2.0 / 6.0])
    with pytest.raises(ValueError):
        local_speed_factors(samples, 3, 1.0, 1)


def test_benchmark_file_lists_the_metrics_the_command_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
