import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_psne
from posauction import solver
from posauction.encoders import encode
from posauction.mechanisms import (FAMILIES, ROUNDING_RULES, TIE_RULES, MechanismSpec,
                                   simulate_outcome)
from posauction.models import (DISTRIBUTION_NAMES, AuctionSetting, DistributionSpec,
                               normalize_setting, sample_setting)
from posauction.solver import enumerate_psne, envy_free_filter, prune_dominated, select


def test_prune_keeps_bids_up_to_value_ceiling():
    s = AuctionSetting("eos", 2, np.array([[7.0, 7.0], [3.2, 3.2]]),
                       np.array([[0.5, 0.25], [0.5, 0.25]]),
                       np.array([0.5, 0.5]))
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=10)
    allowed = prune_dominated(s, mech)
    assert allowed[0] == list(range(0, 8))   # ceil(7.0) = 7
    assert allowed[1] == list(range(0, 5))   # ceil(3.2) = 4
    full = prune_dominated(s, MechanismSpec(family="gsp", weight_rule="unit",
                                            k_max=5))
    assert full[0] == list(range(0, 6))      # capped by the grid


def test_dominant_bid_game_has_unique_equilibrium():
    # second-price with huge value gap: truthful-ish bidding dominates
    s = AuctionSetting("eos", 2, np.array([[4.0, 4.0], [1.0, 1.0]]),
                       np.array([[1.0, 0.0], [1.0, 0.0]]),
                       np.array([1.0, 1.0]))
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=4)
    game = encode(s, mech)
    es = enumerate_psne(game, prune_dominated(s, mech))
    assert es.solved
    ref = brute_force_psne(s, mech, prune_dominated(s, mech))
    assert es.profiles == ref
    assert len(es) >= 1


def test_cyclic_best_responses_mean_no_psne():
    # near-equal values over a dominant top slot: each bidder wants to
    # out-bid the other by one increment until the price collapses, so the
    # best-response dynamic cycles and no pure equilibrium exists
    s = AuctionSetting("eos", 2, np.array([[7.25, 7.25], [6.0, 6.0]]),
                       np.array([[0.8, 0.02], [0.8, 0.02]]),
                       np.array([0.8, 0.8]))
    mech = MechanismSpec(family="gfp", weight_rule="unit", k_max=6)
    allowed = prune_dominated(s, mech)
    assert allowed == [list(range(7)), list(range(7))]
    game = encode(s, mech)
    es = enumerate_psne(game, allowed)
    assert es.solved
    assert es.profiles == []
    assert brute_force_psne(s, mech, allowed) == []


@pytest.mark.parametrize("name,fam,wr,tie", [
    ("v-uni", "gsp", "quality", "uniform"),
    ("v-ln", "gfp", "unit", "uniform"),
    ("eos-uni", "gsp", "unit", "uniform"),
    ("eos-ln", "gsp", "unit", "lexicographic"),
    ("bhn-uni", "gsp", "quality", "uniform"),
    ("bss", "gfp", "unit", "lexicographic"),
    ("cascade-uni", "gsp", "quality", "uniform"),
    ("hybrid-ln", "gfp", "unit", "uniform"),
    ("gim-uni", "gsp", "quality", "lexicographic"),
])
def test_enumeration_matches_brute_force(name, fam, wr, tie):
    k = 5
    for seed in range(3):
        s = normalize_setting(
            sample_setting(DistributionSpec.from_name(name), 3, 3,
                           rng=np.random.default_rng(seed + 100)), k)
        mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie, k_max=k)
        allowed = prune_dominated(s, mech)
        es = enumerate_psne(encode(s, mech), allowed)
        assert es.solved
        assert es.profiles == brute_force_psne(s, mech, allowed)


def test_wgsp_enumeration_matches_brute_force_at_k4():
    s = normalize_setting(
        sample_setting(DistributionSpec.from_name("v-uni"), 3, 3,
                       rng=np.random.default_rng(9)), 4)
    mech = MechanismSpec(family="gsp", weight_rule="quality", k_max=4)
    allowed = prune_dominated(s, mech)
    es = enumerate_psne(encode(s, mech), allowed)
    assert es.solved
    assert es.profiles == brute_force_psne(s, mech, allowed)


def test_budget_exhaustion_reports_unsolved():
    s = normalize_setting(
        sample_setting(DistributionSpec.from_name("v-uni"), 3, 3,
                       rng=np.random.default_rng(3)), 4)
    mech = MechanismSpec(family="gsp", weight_rule="quality", k_max=4)
    game = encode(s, mech)
    es = enumerate_psne(game, prune_dominated(s, mech), budget=10)
    assert not es.solved
    assert es.scanned == 10
    full = enumerate_psne(game, prune_dominated(s, mech))
    assert set(es.profiles) <= set(full.profiles)


@pytest.mark.parametrize("name,fam,wr,tie", [
    ("v-ln", "gsp", "quality", "uniform"),
    ("eos-uni", "gfp", "unit", "lexicographic"),
    ("bhn-ln", "gsp", "unit", "lexicographic"),
    ("cascade-ln", "gsp", "quality", "uniform"),
    ("gim-uni", "gfp", "unit", "uniform"),
])
def test_budget_prefix_matches_brute_force(name, fam, wr, tie, monkeypatch):
    # over budget, the scan reports exactly the equilibria among the first
    # `budget` profiles in lexicographic order; a 64-profile chunk puts some
    # of these lattices over it, so their leading bidders are checked
    # against every allowed deviation
    k = 4
    for chunk, seed in itertools.product((solver._CHUNK, 64), range(2)):
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        s = normalize_setting(
            sample_setting(DistributionSpec.from_name(name), 3, 3,
                           rng=np.random.default_rng(seed + 300)), k)
        mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie, k_max=k)
        allowed = prune_dominated(s, mech)
        game = encode(s, mech)
        ref = brute_force_psne(s, mech, allowed)
        sizes = [len(a) for a in allowed]
        total = int(np.prod(sizes))
        block = next(b for b in (math.prod(sizes[i:]) for i in range(len(sizes) + 1))
                     if b <= chunk)
        for budget in (0, 1, block - 1, block + 1, total // 3, total - 1, total):
            es = enumerate_psne(game, allowed, budget=budget)
            assert es.profiles == [p for p in ref if np.ravel_multi_index(
                [a.index(b) for a, b in zip(allowed, p)], sizes) < budget]
            assert es.scanned == min(budget, total)
            assert es.solved == (budget >= total)


def test_budget_bounds_the_work(monkeypatch):
    # a cut scan evaluates the prefix rounded up to one block, not a full
    # pass over the lattice
    monkeypatch.setattr(solver, "_CHUNK", 64)
    s = normalize_setting(
        sample_setting(DistributionSpec.from_name("v-uni"), 3, 3,
                       rng=np.random.default_rng(3)), 8)
    mech = MechanismSpec(family="gsp", weight_rule="quality", k_max=8)
    allowed = prune_dominated(s, mech)
    total = math.prod(len(a) for a in allowed)
    assert total > 300
    game = encode(s, mech)
    columns = []

    def counted(i, bids, out=None):
        columns.append(np.broadcast(*bids).size)
        return game.payoffs(i, bids, out=out)

    es = enumerate_psne(dataclasses.replace(game, payoffs=counted), allowed, budget=10)
    assert es.scanned == 10
    assert es.solved is False
    assert 0 < sum(columns) < game.num_agents * total


@pytest.mark.parametrize("name,fam,wr,tie", [
    ("cascade-uni", "gsp", "unit", "uniform"),
    ("hybrid-uni", "gfp", "unit", "uniform"),
    ("v-uni", "gsp", "quality", "lexicographic"),
    ("eos-ln", "gfp", "unit", "lexicographic"),
])
def test_leading_bidders_checked_on_4_bidder_boxes(name, fam, wr, tie, monkeypatch):
    # at a 7- or 64-profile chunk these lattices put the first trailing
    # bidder j at 2 or 3: the bidders before j-1 are fixed per chunk and
    # bidder j-1 runs over part of its bids, so those bidders are checked
    # against every allowed deviation; budgets fall on chunk and block edges
    k = 4
    s = normalize_setting(
        sample_setting(DistributionSpec.from_name(name), 4, 4,
                       rng=np.random.default_rng(6)), k)
    mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie, k_max=k)
    allowed = prune_dominated(s, mech)
    game = encode(s, mech)
    ref = brute_force_psne(s, mech, allowed)
    assert ref
    sizes = [len(a) for a in allowed]
    total = math.prod(sizes)
    flat = [np.ravel_multi_index([a.index(b) for a, b in zip(allowed, p)], sizes)
            for p in ref]
    for chunk in (7, 64):
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        block = [math.prod(sizes[i:]) for i in range(len(sizes) + 1)]
        j = next(i for i, b in enumerate(block) if b <= chunk)
        assert j >= 2
        step = block[j] * (chunk // block[j])
        edges = {0, total // 3, total - 1, total, total + 5}
        for edge in (block[j], step, block[j - 1], block[j - 1] + step, 2 * block[j - 1]):
            edges |= {edge - 1, edge, edge + 1}
        for budget in sorted(e for e in edges if e >= 0):
            es = enumerate_psne(game, allowed, budget=budget)
            assert es.profiles == [p for p, f in zip(ref, flat) if f < budget]
            assert es.scanned == min(budget, total)
            assert es.solved == (budget >= total)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["eos-uni", "v-ln", "bhn-uni", "bss", "cascade-ln",
                                  "hybrid-uni", "gim-ln"])
def test_games_with_at_most_one_rival_match_brute_force(n, name):
    # a lone bidder's payoff reads no rival term and one rival's is the
    # kernel's whole box at once; both go through the scan's out= path
    k = 4
    for seed, fam, wr, tie in itertools.product(
            range(2), FAMILIES, ("unit", "quality"), TIE_RULES):
        s = normalize_setting(sample_setting(DistributionSpec.from_name(name), n, 1,
                                             rng=np.random.default_rng(seed + 40)), k)
        mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie, k_max=k)
        allowed = prune_dominated(s, mech)
        es = enumerate_psne(encode(s, mech), allowed)
        assert es.solved
        assert es.scanned == math.prod(len(a) for a in allowed)
        assert es.profiles == brute_force_psne(s, mech, allowed)
        assert es.bids.shape == (len(es), n)


@st.composite
def _scan_cases(draw):
    name = draw(st.sampled_from(DISTRIBUTION_NAMES))
    n, k = draw(st.sampled_from((1, 2, 3, 4))), draw(st.sampled_from((1, 2, 3, 4, 5)))
    s = normalize_setting(sample_setting(
        DistributionSpec.from_name(name), n, draw(st.integers(1, n)),
        rng=np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))), k)
    wr = draw(st.sampled_from(("unit", "quality", "squashed")
                              + (("cascade",) if getattr(s, "continuation", None) is not None
                                 else ())))
    mech = MechanismSpec(family=draw(st.sampled_from(FAMILIES)), weight_rule=wr, squash=0.5,
                         tie_rule=draw(st.sampled_from(TIE_RULES)),
                         rounding=draw(st.sampled_from(ROUNDING_RULES)), k_max=k)
    # the pruned sets, the whole grid, or any strictly increasing bid subsets
    allowed = draw(st.sampled_from((
        prune_dominated(s, mech), [list(range(k + 1))] * n,
        [sorted(draw(st.sets(st.integers(0, k), min_size=1))) for _ in range(n)])))
    total = math.prod(len(a) for a in allowed)
    budget = draw(st.just(total) | st.integers(0, total + 1))
    return s, mech, allowed, budget


@given(case=_scan_cases())
@settings(max_examples=100, deadline=None, database=None)
def test_scan_matches_brute_force_on_random_games(case):
    # the narrowing box, the kept buffers and the budget prefix together:
    # the equilibria among the first `budget` lexicographic profiles, at one
    # chunk per lattice and at chunks that cut the leading bidders' axes
    s, mech, allowed, budget = case
    sizes = [len(a) for a in allowed]
    total = math.prod(sizes)
    ref = [p for p in brute_force_psne(s, mech, allowed) if np.ravel_multi_index(
        [a.index(b) for a, b in zip(allowed, p)], sizes) < budget]
    game = encode(s, mech)
    for chunk in (solver._CHUNK, 64):
        with mock.patch.object(solver, "_CHUNK", chunk):
            es = enumerate_psne(game, allowed, budget=budget)
        assert es.profiles == ref
        assert es.solved == (budget >= total)
        assert es.scanned == min(budget, total)


@pytest.mark.parametrize("allowed,match", [
    ([[0, 1], [-1, 0, 1]], "bidder 1"),
    ([[2, 1, 0], [0, 1]], "bidder 0"),
    ([[0, 1], [0, 9]], "bidder 1"),
    ([[0, 1], [0, 1.5]], "bidder 1"),
    ([[0, 1], [0, 1, 1]], "bidder 1"),
    ([[0, 1], []], "bidder 1"),
    ([[0, 1]], "one bid list per bidder"),
])
def test_allowed_bids_validated(allowed, match):
    # -1 would read as bid k_max, a reversed list would break the
    # lexicographic order the budget prefix relies on, and 9 is off the grid
    s = AuctionSetting("eos", 2, np.array([[4.0, 4.0], [1.0, 1.0]]),
                       np.array([[1.0, 0.0], [1.0, 0.0]]),
                       np.array([1.0, 1.0]))
    game = encode(s, MechanismSpec(family="gsp", weight_rule="unit", k_max=6))
    with pytest.raises(ValueError, match=match):
        enumerate_psne(game, allowed)


def test_negative_budget_rejected():
    s = AuctionSetting("eos", 2, np.array([[4.0, 4.0], [1.0, 1.0]]),
                       np.array([[1.0, 0.0], [1.0, 0.0]]),
                       np.array([1.0, 1.0]))
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=4)
    with pytest.raises(ValueError, match="budget"):
        enumerate_psne(encode(s, mech), budget=-1)


def test_select_rules():
    assert select([0.2, 0.9, 0.5], "median") == 0.5
    assert select([0.2, 0.9], "median") == 0.2
    assert select([0.7], "min") == select([0.7], "max") == 0.7
    assert select([3.0, 1.0, 2.0], "min") == 1.0
    with pytest.raises(ValueError):
        select([], "median")


@given(values=st.lists(st.floats(-100, 100), min_size=1, max_size=9))
@settings(max_examples=50, deadline=None)
def test_select_median_is_lower_median(values):
    med = select(values, "median")
    ordered = sorted(values)
    assert med == ordered[(len(values) - 1) // 2]
    assert select(values, "min") <= med <= select(values, "max")


def test_envy_free_filter_subset_and_zero_envy():
    from posauction.metrics import total_envy

    s = normalize_setting(
        sample_setting(DistributionSpec.from_name("v-uni"), 3, 3,
                       rng=np.random.default_rng(21)), 6)
    mech = MechanismSpec(family="gsp", weight_rule="quality", k_max=6)
    es = enumerate_psne(encode(s, mech), prune_dominated(s, mech))
    kept = envy_free_filter(es.profiles, s, mech)
    assert set(kept) <= set(es.profiles)
    for profile in kept:
        out = simulate_outcome(s, mech, list(profile))
        assert total_envy(out, s) <= 1e-9
    assert envy_free_filter([], s, mech) == []
