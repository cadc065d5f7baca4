import itertools

import numpy as np
import pytest

from posauction.agg import evaluate_profile, size_stats
from posauction.encoders import (EncodingSizeError, effective_bid_index, encode,
                                 encode_gfp, encode_gim_gsp, encode_gsp)
from posauction.mechanisms import MechanismSpec, simulate_outcome
from posauction.models import (DISTRIBUTION_NAMES, AuctionSetting, DistributionSpec,
                               GimSetting, normalize_setting, sample_setting)

from oracles import gim_reference_tables

EOS_PAIR = AuctionSetting("eos", 2,
                          values=np.array([[10.0, 10.0], [4.0, 4.0]]),
                          clicks=np.array([[0.5, 0.25], [0.5, 0.25]]),
                          qualities=np.array([0.5, 0.5]))

V_PAIR = AuctionSetting("v", 2,
                        values=np.array([[5.0, 5.0], [4.0, 4.0]]),
                        clicks=np.array([[0.8, 0.4], [0.4, 0.2]]),
                        qualities=np.array([0.8, 0.4]),
                        position_factors=np.array([1.0, 0.5]))


def test_effective_bid_index_merges_equal_products():
    ebi = effective_bid_index(np.array([1.0, 1.0, 0.5]), 4)
    assert ebi.values[0] == 0.0
    assert np.all(np.diff(ebi.values) > 0)
    # bids 1..4 at weight 1 collide across the two unit bidders; 0.5-weight
    # bidder hits 0.5, 1.5 and shares 1.0, 2.0
    assert ebi.index[0, 2] == ebi.index[1, 2]
    assert ebi.index[2, 2] == ebi.index[0, 1]
    assert len(ebi.values) == 1 + 4 + 2


def test_effective_bid_cap():
    with pytest.raises(EncodingSizeError):
        effective_bid_index(np.array([1.0, 0.618]), 100, cap=10)


def test_gfp_worked_example_tables():
    mech = MechanismSpec(family="gfp", weight_rule="unit", k_max=5)
    game = encode_gfp(EOS_PAIR, mech)
    assert evaluate_profile(game, [4, 2]) == pytest.approx([3.0, 0.5])
    assert evaluate_profile(game, [2, 2]) == pytest.approx([3.0, 0.75])
    # zero bid earns zero no matter what
    assert evaluate_profile(game, [0, 2])[0] == 0.0
    # solo participant: u = c11 * (v - k)
    assert evaluate_profile(game, [3, 0]) == pytest.approx([0.5 * (10 - 3), 0.0])


def test_gsp_worked_examples():
    wgsp = MechanismSpec(family="gsp", weight_rule="quality", k_max=5)
    game = encode_gsp(V_PAIR, wgsp)
    assert evaluate_profile(game, [2, 3]) == pytest.approx([2.4, 0.8])
    ugsp = MechanismSpec(family="gsp", weight_rule="unit", k_max=5)
    game2 = encode_gsp(EOS_PAIR, ugsp)
    assert evaluate_profile(game2, [4, 2]) == pytest.approx([4.0, 1.0])
    # bottom bidder with no lower bid pays zero
    assert evaluate_profile(game2, [0, 2]) == pytest.approx([0.0, 0.5 * 4])


def test_gim_worked_example():
    ext = np.array([[1.0, 0.8], [1.0, 0.5]])
    setting = GimSetting("cascade", 2, np.array([10.0, 4.0]),
                         np.array([1.0, 1.0]), ext,
                         continuation=np.array([0.5, 0.8]))
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=5)
    game = encode_gim_gsp(setting, mech)
    assert evaluate_profile(game, [3, 1]) == pytest.approx([9.0, 2.0])
    # solo bidder: q * f(empty) * (v - 0)
    assert evaluate_profile(game, [2, 0]) == pytest.approx([10.0, 0.0])


def test_gim_with_trivial_externality_matches_gsp_encoder():
    # f == 1 and constant values: the externality encoding agrees with the
    # no-externality encoder on an eos setting carrying the same numbers.
    # The default coin-per-rival tie lottery only coincides with the uniform
    # position lottery for tie blocks of at most two bidders; the uniform
    # random permutation variant coincides everywhere.
    q = 0.7
    alpha = np.array([1.0, 1.0, 1.0])
    values = np.array([3.0, 2.0, 1.0])
    eos = AuctionSetting("eos", 3, np.tile(values[:, None], (1, 3)),
                         np.tile(alpha * q, (3, 1)), np.full(3, q))
    gim = GimSetting("gim", 3, values, np.full(3, q),
                     np.ones((3, 4)))
    for family, wr in (("gsp", "unit"), ("gfp", "unit"), ("gsp", "quality")):
        mech = MechanismSpec(family=family, weight_rule=wr, k_max=3,
                             gim_tie_lottery="permutation")
        g_eos = encode(eos, mech)
        g_gim = encode(gim, mech)
        for bids in itertools.product(range(4), repeat=3):
            assert evaluate_profile(g_eos, list(bids)) == pytest.approx(
                evaluate_profile(g_gim, list(bids)), abs=1e-9)
    # default lottery: agreement wherever no three-way tie occurs
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=3)
    g_eos = encode(eos, mech)
    g_gim = encode(gim, mech)
    for bids in itertools.product(range(4), repeat=3):
        positive = [b for b in bids if b > 0]
        biggest_tie = max((positive.count(b) for b in positive), default=0)
        if biggest_tie >= 3:
            continue
        assert evaluate_profile(g_eos, list(bids)) == pytest.approx(
            evaluate_profile(g_gim, list(bids)), abs=1e-9)


def test_gim_memory_cap():
    s = sample_setting(DistributionSpec.from_name("gim-uni"), 4, 4,
                       rng=np.random.default_rng(1))
    with pytest.raises(EncodingSizeError):
        encode_gim_gsp(s, MechanismSpec(family="gsp", k_max=8), entry_cap=100)


def test_family_dispatch_guards():
    mech = MechanismSpec(family="gsp", weight_rule="unit", k_max=3)
    with pytest.raises(ValueError):
        encode_gfp(EOS_PAIR, mech)
    with pytest.raises(ValueError):
        encode_gsp(EOS_PAIR, MechanismSpec(family="gfp", weight_rule="unit", k_max=3))


@pytest.mark.parametrize("name,fam,wr,tie,rnd", [
    ("eos-uni", "gfp", "unit", "uniform", "up"),
    ("eos-ln", "gsp", "unit", "lexicographic", "up"),
    ("v-uni", "gsp", "quality", "uniform", "down"),
    ("v-ln", "gsp", "quality", "lexicographic", "nearest"),
    ("bhn-uni", "gfp", "quality", "uniform", "up_plus_one"),
    ("bss", "gsp", "unit", "uniform", "up"),
    ("cascade-uni", "gsp", "quality", "uniform", "up"),
    ("cascade-ln", "gsp", "cascade", "uniform", "nearest"),
    ("hybrid-uni", "gfp", "unit", "lexicographic", "up"),
    ("gim-ln", "gsp", "quality", "lexicographic", "up_plus_one"),
])
def test_oracle_equivalence_exhaustive_small(name, fam, wr, tie, rnd):
    spec = DistributionSpec.from_name(name)
    k = 4
    for seed in range(3):
        s = normalize_setting(sample_setting(spec, 3, 2,
                                             rng=np.random.default_rng(seed)), k)
        mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie,
                             rounding=rnd, k_max=k)
        game = encode(s, mech)
        for bids in itertools.product(range(k + 1), repeat=3):
            direct = simulate_outcome(s, mech, bids)
            assert evaluate_profile(game, list(bids)) == pytest.approx(
                direct.expected_utility, abs=1e-9)


def test_equal_qualities_make_weighting_irrelevant():
    # eos: shared quality, so unit and quality weights give the same game
    s = normalize_setting(sample_setting(DistributionSpec.from_name("eos-uni"),
                                         3, 3, rng=np.random.default_rng(5)), 5)
    unit = encode(s, MechanismSpec(family="gsp", weight_rule="unit", k_max=5))
    qual = encode(s, MechanismSpec(family="gsp", weight_rule="quality", k_max=5))
    for bids in itertools.product(range(6), repeat=3):
        assert evaluate_profile(unit, list(bids)) == pytest.approx(
            evaluate_profile(qual, list(bids)), abs=0.0)


def test_lexicographic_matches_rank_resolved_positions():
    s = normalize_setting(sample_setting(DistributionSpec.from_name("eos-uni"),
                                         3, 3, rng=np.random.default_rng(7)), 4)
    mech = MechanismSpec(family="gsp", weight_rule="unit",
                         tie_rule="lexicographic", k_max=4)
    game = encode(s, mech)
    # all three tie: bidder 0 takes slot 1 paying own bid, bidder 2 slot 3
    u = evaluate_profile(game, [2, 2, 2])
    c = s.clicks
    v = s.values
    assert u[0] == pytest.approx(c[0, 0] * (v[0, 0] - 2))
    assert u[1] == pytest.approx(c[1, 1] * (v[1, 1] - 2))
    assert u[2] == pytest.approx(c[2, 2] * (v[2, 2] - 0))  # bottom pays rho=0


def test_size_stats_shapes():
    s = normalize_setting(sample_setting(DistributionSpec.from_name("eos-uni"),
                                         4, 4, rng=np.random.default_rng(2)), 6)
    gfp = encode(s, MechanismSpec(family="gfp", weight_rule="unit", k_max=6))
    stats = size_stats(gfp)
    n, k = 4, 6
    assert stats["action_nodes"] == n * (k + 1)
    # one table box of n*n per positive bid
    assert stats["total_table_entries"] == n * k * n * n + n  # +n zero-bid tables


def test_gsp_tables_grow_at_most_quadratically_in_k():
    s = sample_setting(DistributionSpec.from_name("v-uni"), 4, 4,
                       rng=np.random.default_rng(0))
    entries = {}
    for k in (10, 20):
        scaled = normalize_setting(s, k)
        game = encode(scaled, MechanismSpec(family="gsp", weight_rule="quality",
                                            k_max=k))
        entries[k] = size_stats(game)["total_table_entries"]
    assert entries[20] / entries[10] <= 4.5


def test_gim_tables_equal_per_cell_reference():
    # every table cell, NaN hole and sign of zero as the scalar reference
    # computes it, over all tie, rounding and lottery options
    mechs = [MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie, rounding=rnd,
                           k_max=3, gim_tie_lottery=lot)
             for fam, wr in (("gfp", "unit"), ("gsp", "unit"), ("gsp", "quality"))
             for tie in ("uniform", "lexicographic")
             for rnd in ("up", "down", "nearest", "up_plus_one")
             for lot in ("independent", "permutation")]
    for name in ("cascade-uni", "hybrid-ln", "gim-uni"):
        for n in (2, 3, 4):
            s = normalize_setting(sample_setting(DistributionSpec.from_name(name), n, n - 1,
                                                 rng=np.random.default_rng(n)), 3)
            for mech in mechs:
                game = encode_gim_gsp(s, mech)
                for (i, k), (dims, data) in gim_reference_tables(s, mech).items():
                    table = game.tables[game.agents[i][k]]
                    assert table.dims == dims and table.lo == (0,) * len(dims)
                    assert np.array_equal(table.data, data, equal_nan=True)
                    assert np.array_equal(np.signbit(table.data), np.signbit(data))


def test_payoff_kernel_equals_graph_evaluation():
    # the vectorized payoffs the equilibrium scan reads must be the graph's
    # payoffs exactly, at every profile and for every bidder; the roundings
    # take turns (shifted per setting) to keep the grid small
    mechs = [(fam, wr, tie, lot)
             for fam, wr in (("gfp", "unit"), ("gsp", "unit"), ("gsp", "quality"),
                             ("gfp", "quality"))
             for tie in ("uniform", "lexicographic")
             for lot in ("independent", "permutation")]
    roundings = ("up", "down", "nearest", "up_plus_one")
    cells = [(name, n) for name in DISTRIBUTION_NAMES for n in (2, 3)]
    for shift, (name, n) in enumerate(cells):
        s = normalize_setting(sample_setting(DistributionSpec.from_name(name), n, n,
                                             rng=np.random.default_rng(n + 50)), 4)
        grid = list(itertools.product(range(5), repeat=n))
        bids = np.array(grid).T
        for turn, (fam, wr, tie, lot) in enumerate(mechs):
            mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie,
                                 rounding=roundings[(turn + shift) % 4], k_max=4,
                                 gim_tie_lottery=lot)
            game = encode(s, mech)
            ref = np.array([evaluate_profile(game, p) for p in grid]).T
            for i in range(n):
                assert np.array_equal(game.payoffs(i, bids), ref[i])
