import itertools

import numpy as np
import pytest

from oracles import brute_force_assignment_welfare
from posauction.mechanisms import (ROUNDING_RULES, TIE_LOTTERIES, TIE_RULES,
                                   MechanismSpec, bidder_weights, max_clicks,
                                   max_welfare, outcome_groups, rounded_price,
                                   simulate_outcome, vcg)
from posauction.models import (DISTRIBUTION_NAMES, AuctionSetting,
                               DistributionSpec, GimSetting, normalize_setting,
                               sample_setting)


@pytest.fixture
def eos_pair():
    # two bidders, identical click curves, position-independent values
    return AuctionSetting("eos", 2,
                          values=np.array([[10.0, 10.0], [4.0, 4.0]]),
                          clicks=np.array([[0.5, 0.25], [0.5, 0.25]]),
                          qualities=np.array([0.5, 0.5]))


@pytest.fixture
def v_pair():
    return AuctionSetting("v", 2,
                          values=np.array([[5.0, 5.0], [4.0, 4.0]]),
                          clicks=np.array([[0.8, 0.4], [0.4, 0.2]]),
                          qualities=np.array([0.8, 0.4]),
                          position_factors=np.array([1.0, 0.5]))


@pytest.fixture
def cascade_pair():
    ext = np.array([[1.0, 0.8], [1.0, 0.5]])
    return GimSetting("cascade", 2, np.array([10.0, 4.0]), np.array([1.0, 1.0]),
                      ext, continuation=np.array([0.5, 0.8]))


def test_weight_rules(cascade_pair):
    s = cascade_pair
    assert np.array_equal(bidder_weights(s, "unit"), [1.0, 1.0])
    assert np.array_equal(bidder_weights(s, "quality"), s.qualities)
    cw = bidder_weights(s, "cascade")
    assert cw == pytest.approx([1 / 0.5, 1 / 0.2])
    assert bidder_weights(s, "squashed", 0.0) == pytest.approx([1.0, 1.0])
    assert np.array_equal(bidder_weights(s, "squashed", 1.0), s.qualities)


def test_cascade_weight_from_worked_numbers():
    ext = np.ones((1, 1))
    s = GimSetting("cascade", 1, np.array([1.0]), np.array([0.6]), ext,
                   continuation=np.array([0.7]))
    assert bidder_weights(s, "cascade") == pytest.approx([2.0])


def test_rounding_rules_on_and_off_grid():
    assert rounded_price(1.2, 0.8, "up") == 2
    assert rounded_price(1.2, 0.8, "down") == 1
    assert rounded_price(1.2, 0.8, "up_plus_one") == 3
    # rho / w = 1.5 on exactly representable inputs: half rounds up
    assert rounded_price(0.75, 0.5, "nearest") == 2
    # rho / w = 1.25 -> nearest rounds down
    assert rounded_price(1.0, 0.8, "nearest") == 1
    # exact grid point: (3 * w) / w must stay 3 under every rule
    for w in (0.1, 0.3, 1 / 3, 0.7, 1.0):
        rho = 3 * w
        assert rounded_price(rho, w, "up") == 3
        assert rounded_price(rho, w, "down") == 3
        assert rounded_price(rho, w, "nearest") == 3
        assert rounded_price(rho, w, "up_plus_one") == 4
    # no lower bid
    assert rounded_price(0.0, 0.5, "up") == 0
    assert rounded_price(0.0, 0.5, "up_plus_one") == 1
    # half tie rounds up
    assert rounded_price(2.5, 1.0, "nearest") == 3


def test_gfp_worked_example(eos_pair):
    mech = MechanismSpec(family="gfp", weight_rule="unit", k_max=5)
    out = simulate_outcome(eos_pair, mech, [4, 2])
    assert out.expected_utility == pytest.approx([3.0, 0.5])
    assert out.revenue == pytest.approx(2.5)
    assert out.expected_clicks == pytest.approx(0.75)
    # tie: each bidder takes each slot with probability one half, paying
    # their own bid of 2; u2 = ((0.5 + 0.25) / 2) * (4 - 2)
    tied = simulate_outcome(eos_pair, mech, [2, 2])
    assert tied.expected_utility == pytest.approx([3.0, 0.75])
    assert tied.revenue == pytest.approx(1.5)


def test_wgsp_worked_example(v_pair):
    mech = MechanismSpec(family="gsp", weight_rule="quality", k_max=5)
    out = simulate_outcome(v_pair, mech, [2, 3])
    assert out.expected_utility == pytest.approx([2.4, 0.8])
    assert out.revenue == pytest.approx(1.6)
    assert out.expected_clicks == pytest.approx(1.0)


def test_ugsp_pays_next_bid(eos_pair):
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=5)
    out = simulate_outcome(eos_pair, mech, [4, 2])
    assert out.expected_utility == pytest.approx([4.0, 1.0])
    assert out.revenue == pytest.approx(0.5 * 2)


def test_zero_bidders_get_nothing_and_pay_nothing(eos_pair):
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=5)
    out = simulate_outcome(eos_pair, mech, [0, 0])
    assert out.revenue == 0.0
    assert out.expected_clicks == 0.0
    assert np.array_equal(out.expected_utility, [0.0, 0.0])
    solo = simulate_outcome(eos_pair, mech, [3, 0])
    # no lower participating bid: price 0
    assert solo.expected_utility == pytest.approx([0.5 * 10, 0.0])


def test_gim_worked_example(cascade_pair):
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=5)
    out = simulate_outcome(cascade_pair, mech, [3, 1])
    assert out.expected_utility == pytest.approx([9.0, 2.0])
    assert out.revenue == pytest.approx(1.0)
    assert out.expected_clicks == pytest.approx(1.5)


def test_gim_tie_lotteries_differ_for_blocks_of_three():
    s = sample_setting(DistributionSpec.from_name("cascade-uni"), 3, 3,
                       rng=np.random.default_rng(5))
    s = normalize_setting(s, 4)
    ind = simulate_outcome(
        s, MechanismSpec(family="gsp", weight_rule="unit", k_max=4), [2, 2, 2])
    perm = simulate_outcome(
        s, MechanismSpec(family="gsp", weight_rule="unit", k_max=4,
                         gim_tie_lottery="permutation"), [2, 2, 2])
    assert not np.allclose(ind.expected_utility, perm.expected_utility)
    # two-way ties agree: both lotteries put the rival above with prob 1/2
    ind2 = simulate_outcome(
        s, MechanismSpec(family="gsp", weight_rule="unit", k_max=4), [2, 2, 0])
    perm2 = simulate_outcome(
        s, MechanismSpec(family="gsp", weight_rule="unit", k_max=4,
                         gim_tie_lottery="permutation"), [2, 2, 0])
    assert np.allclose(ind2.expected_utility, perm2.expected_utility)


def test_lexicographic_ties_are_deterministic(eos_pair):
    mech = MechanismSpec(family="gfp", weight_rule="unit",
                         tie_rule="lexicographic", k_max=5)
    out = simulate_outcome(eos_pair, mech, [2, 2])
    assert [[(pos, prob) for pos, _c, _p, prob in m] for m in out.slot_lottery] \
        == [[(1, 1.0)], [(2, 1.0)]]
    assert out.expected_utility == pytest.approx([0.5 * 8, 0.25 * 2])


def test_outcome_lottery_probabilities_sum_to_one(eos_pair):
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=5)
    out = simulate_outcome(eos_pair, mech, [2, 2])
    for marginal in out.slot_lottery:
        assert sum(p for *_rest, p in marginal) == pytest.approx(1.0)
    assert [[(pos, prob) for pos, _c, _p, prob in m] for m in out.slot_lottery] \
        == [[(1, 0.5), (2, 0.5)]] * 2


def test_outcome_groups_share_outcomes_exactly():
    # every profile of small games gets exactly the outcome of its group's
    # representative; under random tie-breaking the key is also as coarse as
    # that allows, one group per distinct slot lottery.  Rules the simulator
    # never reads (rounding under gfp, the tie lottery outside random ties
    # of externality settings) are not varied.
    for name in DISTRIBUTION_NAMES:
        auctions = [("gfp", "unit"), ("gsp", "unit"), ("gsp", "quality"),
                    ("gfp", "quality")]
        if name.startswith(("cascade", "hybrid")):
            auctions.append(("gsp", "cascade"))
        for n in (2, 3):
            s = normalize_setting(sample_setting(DistributionSpec.from_name(name), n, n,
                                                 rng=np.random.default_rng(n + 70)), 4)
            grid = list(itertools.product(range(5), repeat=n))
            for (fam, wr), tie in itertools.product(auctions, TIE_RULES):
                roundings = ROUNDING_RULES if fam == "gsp" else ("up",)
                lotteries = (TIE_LOTTERIES if isinstance(s, GimSetting) and tie == "uniform"
                             else ("independent",))
                for rounding, lot in itertools.product(roundings, lotteries):
                    mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie,
                                         rounding=rounding, k_max=4,
                                         gim_tie_lottery=lot)
                    first, group = outcome_groups(s, mech, grid)
                    outs = [simulate_outcome(s, mech, p) for p in grid]
                    for out, g in zip(outs, group):
                        rep = outs[first[g]]
                        assert out.slot_lottery == rep.slot_lottery
                        assert np.array_equal(out.expected_utility, rep.expected_utility)
                        assert out.revenue == rep.revenue
                        assert out.expected_clicks == rep.expected_clicks
                    if tie == "uniform":
                        assert len(first) == len({repr(o.slot_lottery) for o in outs})


def test_outcome_groups_edge_cases(eos_pair):
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=5)
    first, group = outcome_groups(eos_pair, mech, [])
    assert len(first) == 0 and len(group) == 0
    first, group = outcome_groups(eos_pair, mech, [(3, 1), (0, 0), (4, 1), (3, 1)])
    assert group[0] == group[2] == group[3] != group[1]
    assert sorted(first) == [0, 1]
    with pytest.raises(ValueError, match="grid"):
        outcome_groups(eos_pair, mech, [(6, 1)])


def test_max_welfare_v_model_sorts_by_quality_times_value():
    for seed in range(10):
        s = sample_setting(DistributionSpec.from_name("v-uni"), 4, 4,
                           rng=np.random.default_rng(seed))
        alloc, w = max_welfare(s)
        assert w == pytest.approx(brute_force_assignment_welfare(s), abs=1e-9)
        score = s.qualities * s.values[:, 0]
        order = sorted(range(4), key=lambda i: -score[i])
        by_slot = sorted(alloc, key=alloc.get)
        assert [score[i] for i in by_slot] == pytest.approx(
            [score[i] for i in order])


def test_max_welfare_matches_assignment_brute_force_on_bss():
    for seed in range(8):
        s = sample_setting(DistributionSpec.from_name("bss"), 3, 3,
                           rng=np.random.default_rng(seed))
        assert max_welfare(s)[1] == pytest.approx(
            brute_force_assignment_welfare(s), abs=1e-9)


def test_max_welfare_cascade_enumeration(cascade_pair):
    alloc, w = max_welfare(cascade_pair)
    assert w == pytest.approx(12.0)  # both orderings tie at 12


def test_max_clicks_simple_cases():
    s = sample_setting(DistributionSpec.from_name("v-uni"), 3, 3,
                       rng=np.random.default_rng(7))
    # clicks maximized by sorting qualities onto the best positions
    expect = float(np.sort(s.qualities)[::-1] @ s.position_factors[:3])
    assert max_clicks(s) == pytest.approx(expect)
    solo = sample_setting(DistributionSpec.from_name("eos-uni"), 1, 1,
                          rng=np.random.default_rng(8))
    assert max_clicks(solo) == pytest.approx(solo.clicks[0, 0])


def test_max_clicks_cascade_two_agents():
    for seed in range(6):
        s = sample_setting(DistributionSpec.from_name("cascade-uni"), 2, 2,
                           rng=np.random.default_rng(seed))
        best = 0.0
        for ordering in ([0], [1], [0, 1], [1, 0], []):
            total, above = 0.0, []
            for i in ordering:
                total += s.qualities[i] * s.externality_factor(i, above)
                above.append(i)
            best = max(best, total)
        assert max_clicks(s) == pytest.approx(best)


def test_vcg_single_agent_pays_nothing():
    s = sample_setting(DistributionSpec.from_name("v-uni"), 1, 1,
                       rng=np.random.default_rng(3))
    out = vcg(s)
    assert out.payments_total == pytest.approx([0.0])
    assert out.expected_utility[0] >= 0


def test_vcg_clarke_pivot_worked_example(eos_pair):
    out = vcg(eos_pair)
    assert out.payments_total == pytest.approx([1.0, 0.0])
    assert out.expected_utility == pytest.approx([4.0, 1.0])
    assert out.revenue == pytest.approx(1.0)


def test_vcg_properties_across_models():
    from posauction.metrics import metric_vector

    for name in ["eos-uni", "v-ln", "bhn-uni", "bss", "cascade-uni",
                 "hybrid-ln", "gim-uni"]:
        for seed in range(4):
            s = normalize_setting(
                sample_setting(DistributionSpec.from_name(name), 3, 3,
                               rng=np.random.default_rng(seed)), 6)
            out = vcg(s)
            mv = metric_vector(out, s)
            assert mv.efficiency == pytest.approx(1.0, abs=1e-12)
            assert np.all(out.expected_utility >= -1e-9)
            # Clarke payments are nonnegative: removing a bidder frees a slot
            assert np.all(out.payments_total >= -1e-9)
            disc = vcg(s, discretize=6)
            assert np.all(disc.payments_total >= -1e-9)


def test_discretized_vcg_uses_rounded_reports(eos_pair):
    s = AuctionSetting("eos", 2, np.array([[9.6, 9.6], [3.2, 3.2]]),
                       np.array([[0.5, 0.25], [0.5, 0.25]]),
                       np.array([0.5, 0.5]))
    out = vcg(s, discretize=10)
    # reports are (10, 3): pivot on reports gives payment 0.5*3 - 0.25*3
    assert out.payments_total == pytest.approx([0.75, 0.0])
    # utilities are evaluated against true values
    assert out.expected_utility == pytest.approx([0.5 * 9.6 - 0.75, 0.25 * 3.2])
