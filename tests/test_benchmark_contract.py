"""The benchmark's view of the program, checked without running it.

``perfbench/workloads.py`` wraps public functions where the pipeline binds
them; a deleted or renamed name would otherwise show only when the
benchmark runs.  The module is imported read-only.
"""

import importlib
import os
import sys

import pytest

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
