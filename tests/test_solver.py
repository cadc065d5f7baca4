import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_psne
from posauction.agg import ActionGraphGame
from posauction.encoders import encode
from posauction.mechanisms import MechanismSpec, simulate_outcome
from posauction.models import (AuctionSetting, DistributionSpec,
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


def test_hand_built_game_is_rejected():
    # only an encoder supplies the payoff kernel the scan reads
    s = normalize_setting(
        sample_setting(DistributionSpec.from_name("v-uni"), 2, 2,
                       rng=np.random.default_rng(9)), 3)
    game = encode(s, MechanismSpec(family="gsp", weight_rule="quality", k_max=3))
    bare = ActionGraphGame(game.agents, game.nodes, game.tables)
    with pytest.raises(ValueError, match="no payoff kernel"):
        enumerate_psne(bare)


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
def test_budget_prefix_matches_brute_force(name, fam, wr, tie):
    # over budget, the scan reports exactly the equilibria among the first
    # `budget` profiles in lexicographic order
    k = 4
    for seed in range(2):
        s = normalize_setting(
            sample_setting(DistributionSpec.from_name(name), 3, 3,
                           rng=np.random.default_rng(seed + 300)), k)
        mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie, k_max=k)
        allowed = prune_dominated(s, mech)
        game = encode(s, mech)
        ref = brute_force_psne(s, mech, allowed)
        sizes = [len(a) for a in allowed]
        total = int(np.prod(sizes))
        for budget in (0, 1, total // 3, total - 1, total):
            es = enumerate_psne(game, allowed, budget=budget)
            assert es.profiles == [p for p in ref if np.ravel_multi_index(
                [a.index(b) for a, b in zip(allowed, p)], sizes) < budget]
            assert es.scanned == min(budget, total)
            assert es.solved == (budget >= total)


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
