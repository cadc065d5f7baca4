import itertools

import numpy as np
import pytest

from posauction.agg import ActionGraphGame, evaluate_profile, size_stats
from posauction.encoders import encode
from posauction.mechanisms import (ROUNDING_RULES, TIE_LOTTERIES, TIE_RULES,
                                   MechanismSpec)
from posauction.models import (DISTRIBUTION_NAMES, AuctionSetting, DistributionSpec,
                               GimSetting, normalize_setting, sample_setting)

from oracles import table_payoffs_reference

# three bidders of value 12 per click on click rates 0.6, 0.3, 0.15
EOS_TRIO = AuctionSetting("eos", 3,
                          values=np.full((3, 3), 12.0),
                          clicks=np.tile([0.6, 0.3, 0.15], (3, 1)),
                          qualities=np.full(3, 0.6))


def test_constant_game_payoff():
    # a hand-built game whose kernel pays each bidder a constant:
    # evaluate_profile asks it once per bidder, with the whole profile
    asked = []

    def payoffs(i, bids):
        asked.append((i, list(bids)))
        return np.float64(3.5 + i)

    game = ActionGraphGame([[0, 1], [2, 3]], payoffs, [], np.zeros((2, 2), dtype=int), False)
    assert evaluate_profile(game, [1, 0]) == pytest.approx([3.5, 4.5])
    assert asked == [(0, [1, 0]), (1, [1, 0])]


def test_sum_node_counts_tokens():
    # the kernel's tie and above counts are the sum nodes: under first
    # price with uniform ties, bidder 0's payoff at bid 2 depends on how
    # many rivals tie it and how many bid more, not on which ones do
    game = encode(EOS_TRIO, MechanismSpec(family="gfp", weight_rule="unit", k_max=4))
    cases = {  # (rivals tied, rivals above): expected click rate
        (0, 0): 0.6, (1, 0): (0.6 + 0.3) / 2, (2, 0): (0.6 + 0.3 + 0.15) / 3,
        (0, 1): 0.3, (1, 1): (0.3 + 0.15) / 2, (0, 2): 0.15,
    }
    for rivals in itertools.product(range(5), repeat=2):
        tied = sum(b == 2 for b in rivals)
        above = sum(b > 2 for b in rivals)
        got = evaluate_profile(game, [2, *rivals])[0]
        assert got == pytest.approx(cases[tied, above] * (12 - 2)), rivals


def test_sum_and_argmax_nodes():
    # under GSP the argmax over lower slots sets the price: the top bidder
    # pays the largest lower bid whatever sits below it, and a rival tied
    # with it splits the top two positions at the tied and the lower price
    game = encode(EOS_TRIO, MechanismSpec(family="gsp", weight_rule="unit", k_max=4))
    for j in range(1, 4):
        for low in range(j):
            assert evaluate_profile(game, [4, j, low])[0] == pytest.approx(0.6 * (12 - j))
            assert evaluate_profile(game, [4, low, j])[0] == pytest.approx(0.6 * (12 - j))
        assert evaluate_profile(game, [4, 4, j])[0] == pytest.approx(
            (0.6 * (12 - 4) + 0.3 * (12 - j)) / 2)


def test_argmax_with_no_active_source_reads_zero():
    # with no rival bid below it the price index is 0 and the bidder pays
    # nothing, alone or at the bottom of the ranking
    game = encode(EOS_TRIO, MechanismSpec(family="gsp", weight_rule="unit", k_max=4))
    for b in range(1, 5):
        assert evaluate_profile(game, [b, 0, 0])[0] == pytest.approx(0.6 * 12)
    assert evaluate_profile(game, [1, 3, 4])[0] == pytest.approx(0.15 * 12)
    assert evaluate_profile(game, [2, 0, 3])[0] == pytest.approx(0.3 * 12)


def test_evaluate_profile_matches_reference():
    # every profile of small encoded games, payoffs byte for byte (so the
    # sign of zero too) against the tables read by hand; each (distribution,
    # n) takes one rounding in turn, and the lottery is varied only where the
    # encoders read it (random ties of externality settings)
    for d, name in enumerate(DISTRIBUTION_NAMES):
        auctions = [("gfp", "unit"), ("gsp", "unit"), ("gsp", "quality"),
                    ("gfp", "quality")]
        if name.startswith(("cascade", "hybrid")):
            auctions.append(("gsp", "cascade"))
        for n in (2, 3):
            s = normalize_setting(sample_setting(DistributionSpec.from_name(name), n, n,
                                                 rng=np.random.default_rng(n + 90)), 4)
            rounding = ROUNDING_RULES[(d + n) % len(ROUNDING_RULES)]
            for (fam, wr), tie in itertools.product(auctions, TIE_RULES):
                lotteries = (TIE_LOTTERIES if isinstance(s, GimSetting) and tie == "uniform"
                             else ("independent",))
                for lot in lotteries:
                    mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie,
                                         rounding=rounding, k_max=4, gim_tie_lottery=lot)
                    game = encode(s, mech)
                    for profile in itertools.product(range(5), repeat=n):
                        assert (evaluate_profile(game, profile).tobytes()
                                == table_payoffs_reference(game, s, mech, profile).tobytes()
                                ), (name, mech, profile)


def test_size_stats_empty_and_encoded():
    empty = ActionGraphGame([], lambda i, bids: None, [], np.zeros((0, 1), dtype=int), False)
    assert size_stats(empty) == {"action_nodes": 0, "total_table_entries": 0}
    s = normalize_setting(
        sample_setting(DistributionSpec.from_name("eos-uni"), 3, 3,
                       rng=np.random.default_rng(2)), 4)
    game = encode(s, MechanismSpec(family="gfp", weight_rule="unit", k_max=4))
    stats = size_stats(game)
    assert stats["action_nodes"] == 3 * 5
    assert stats["total_table_entries"] > 0
