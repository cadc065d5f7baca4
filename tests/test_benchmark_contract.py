"""The benchmark's view of the program, checked without running it.

``perfbench/workloads.py`` wraps public functions where the pipeline binds
them, and its counters and oracle read encoded games through
``size_stats``, ``game.tables``, ``ConfigTable.data`` and
``evaluate_profile``; a deleted or renamed name would otherwise show only
when the benchmark runs.  The module is imported read-only.
"""

import collections
import importlib
import os
import sys

import numpy as np
import pytest

from posauction.encoders import encode
from posauction.mechanisms import MechanismSpec
from posauction.models import DistributionSpec, normalize_setting, sample_setting

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, PERFBENCH)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ there
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = writes


def test_traced_names_resolve_to_callables(workloads):
    for workload in (workloads.desk_main(1, 5), workloads.OracleWorkload(1, 5)):
        for module, name, _span, _count in workload.traced_targets:
            assert callable(getattr(importlib.import_module(module), name, None)), (
                workload.name, module, name)


def test_one_oracle_game_matches_the_simulator(workloads):
    _label, setting, mech = workloads.OracleWorkload(1, 5).groups[0][0]
    payoffs, bad, _worst = workloads.check_game(setting, mech)
    assert bad == 0
    assert len(payoffs) == (mech.k_max + 1) ** setting.n


class _Tracer:
    def __init__(self):
        self.counts = collections.Counter()


# (distribution, family, weight rule, tie rule) -> table entries and bytes
# the benchmark's own counter records for the game at n=3, k=5, seed 21
COUNTED_GAMES = [
    ("v-uni", "gfp", "unit", "uniform", 138, 1104),
    ("bhn-ln", "gsp", "unit", "lexicographic", 1218, 9744),
    ("cascade-uni", "gsp", "quality", "uniform", 1083, 8664),
]


@pytest.mark.parametrize("dist,family,rule,tie,entries,nbytes", COUNTED_GAMES,
                         ids=[case[0] for case in COUNTED_GAMES])
def test_table_counters_and_oracle_read_the_game(workloads, dist, family, rule, tie,
                                                 entries, nbytes):
    setting = normalize_setting(sample_setting(DistributionSpec.from_name(dist), 3, 3,
                                               rng=np.random.default_rng(21)), 5)
    mech = MechanismSpec(family=family, weight_rule=rule, tie_rule=tie, k_max=5)
    tracer = _Tracer()
    workloads._count_tables("encoders.x")(tracer, encode(setting, mech), (), {})
    assert tracer.counts == {"encoders.x.entries": entries, "encoders.table_entries": entries,
                             "encoders.table_bytes": nbytes}
    payoffs, bad, _worst = workloads.check_game(setting, mech)
    assert bad == 0
    assert payoffs.shape == (6 ** 3, 3)
