import numpy as np
import pytest

from posauction.mechanisms import MechanismSpec, max_welfare, simulate_outcome, vcg
from posauction.metrics import bounds_for_unsolved, metric_vector, total_envy
from posauction.models import (AuctionSetting, DistributionSpec,
                               normalize_setting, sample_setting)
from posauction.solver import enumerate_psne, prune_dominated
from posauction.encoders import encode

EOS_PAIR = AuctionSetting("eos", 2,
                          values=np.array([[10.0, 10.0], [4.0, 4.0]]),
                          clicks=np.array([[0.5, 0.25], [0.5, 0.25]]),
                          qualities=np.array([0.5, 0.5]))

V_PAIR = AuctionSetting("v", 2,
                        values=np.array([[5.0, 5.0], [4.0, 4.0]]),
                        clicks=np.array([[0.8, 0.4], [0.4, 0.2]]),
                        qualities=np.array([0.8, 0.4]),
                        position_factors=np.array([1.0, 0.5]))


def test_vcg_outcome_is_fully_efficient():
    out = vcg(EOS_PAIR)
    mv = metric_vector(out, EOS_PAIR)
    assert mv.efficiency == 1.0
    assert mv.envy is not None


def test_wgsp_worked_metrics():
    mech = MechanismSpec(family="gsp", weight_rule="quality", k_max=5)
    out = simulate_outcome(V_PAIR, mech, [2, 3])
    mv = metric_vector(out, V_PAIR)
    # welfare 0.8*5 + 0.2*4 = 4.8 is also the best achievable
    assert max_welfare(V_PAIR)[1] == pytest.approx(4.8)
    assert mv.efficiency == pytest.approx(1.0)
    assert mv.revenue == pytest.approx(1.6 / 4.8)
    assert mv.relevance == pytest.approx(1.0)


def test_all_zero_bids_score_zero():
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=5)
    out = simulate_outcome(EOS_PAIR, mech, [0, 0])
    mv = metric_vector(out, EOS_PAIR)
    assert (mv.efficiency, mv.revenue, mv.relevance) == (0.0, 0.0, 0.0)
    assert mv.envy == 0.0


def test_envy_zero_in_assortative_gsp_outcome():
    mech = MechanismSpec(family="gsp", weight_rule="quality", k_max=5)
    out = simulate_outcome(EOS_PAIR, mech, [4, 2])
    # prices (2, 0): neither bidder gains from the swap
    assert total_envy(out, EOS_PAIR) == 0.0


def test_envy_positive_when_zero_bidder_envies_winner():
    mech = MechanismSpec(family="gfp", weight_rule="unit", k_max=5)
    out = simulate_outcome(EOS_PAIR, mech, [1, 0])
    # bidder 2 would take slot 1 at price 1: gain 0.5*(4-1) over a utility
    # of zero; normalized by the best welfare of 6
    assert total_envy(out, EOS_PAIR) == pytest.approx(1.5 / 6.0)


def test_envy_symmetric_outcome_is_zero():
    s = AuctionSetting("eos", 2, np.array([[4.0, 4.0], [4.0, 4.0]]),
                       np.array([[0.5, 0.25], [0.5, 0.25]]),
                       np.array([0.5, 0.5]))
    mech = MechanismSpec(family="gfp", weight_rule="unit", k_max=4)
    out = simulate_outcome(s, mech, [2, 2])
    assert total_envy(out, s) == pytest.approx(0.0, abs=1e-12)


def test_envy_undefined_with_externalities():
    s = sample_setting(DistributionSpec.from_name("cascade-uni"), 2, 2,
                       rng=np.random.default_rng(1))
    mech = MechanismSpec(family="gsp", weight_rule="quality", k_max=4)
    out = simulate_outcome(s, mech, [2, 1])
    assert total_envy(out, s) is None
    mv = metric_vector(out, s)
    assert mv.envy is None


def test_eos_relevance_identical_across_full_allocations():
    s = normalize_setting(sample_setting(DistributionSpec.from_name("eos-uni"),
                                         3, 3, rng=np.random.default_rng(2)), 5)
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=5)
    full_bids = [[3, 2, 1], [1, 2, 3], [2, 3, 1]]
    clicks = {simulate_outcome(s, mech, b).expected_clicks for b in full_bids}
    assert max(clicks) - min(clicks) < 1e-12


def test_winner_prices_capped_by_value_ceiling_after_pruning():
    for rounding, slack in (("up", 0), ("down", 0), ("nearest", 0),
                            ("up_plus_one", 1)):
        for seed in range(3):
            s = normalize_setting(
                sample_setting(DistributionSpec.from_name("v-uni"), 3, 3,
                               rng=np.random.default_rng(seed)), 5)
            mech = MechanismSpec(family="gsp", weight_rule="quality",
                                 rounding=rounding, k_max=5)
            allowed = prune_dominated(s, mech)
            es = enumerate_psne(encode(s, mech), allowed)
            caps = [allowed[i][-1] for i in range(3)]
            for profile in es.profiles:
                out = simulate_outcome(s, mech, list(profile))
                for i, marginal in enumerate(out.slot_lottery):
                    for pos, clicks_i, price, _prob in marginal:
                        if pos >= 1 and clicks_i > 0:
                            assert price <= caps[i] + slack


def test_bounds_for_unsolved():
    assert bounds_for_unsolved("efficiency", EOS_PAIR) == (0.0, 1.0)
    assert bounds_for_unsolved("revenue", EOS_PAIR) == (0.0, 1.0)
    assert bounds_for_unsolved("relevance", EOS_PAIR) == (0.0, 1.0)
    lo, hi = bounds_for_unsolved("envy", EOS_PAIR)
    assert lo == 0.0 and hi > 0.0
    solo = AuctionSetting("eos", 1, np.array([[3.0]]), np.array([[0.5]]),
                          np.array([0.5]))
    assert bounds_for_unsolved("envy", solo) == (0.0, 0.0)
    with pytest.raises(ValueError):
        bounds_for_unsolved("nope", EOS_PAIR)


def test_metric_vector_rejects_degenerate_normalizer():
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=4)
    out = simulate_outcome(EOS_PAIR, mech, [1, 0])
    with pytest.raises(ValueError):
        metric_vector(out, EOS_PAIR, max_welfare_value=0.0)
