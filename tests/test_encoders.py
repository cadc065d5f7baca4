import hashlib
import itertools

import numpy as np
import pytest

from posauction import encoders
from posauction.agg import ActionGraphGame, evaluate_profile, size_stats
from posauction.encoders import (EncodingSizeError, _rounded_prices, effective_bid_index,
                                 encode, encode_gfp, encode_gim_gsp, encode_gsp)
from posauction.experiments import (ExperimentConfig, MechanismConfig, _instance_rng,
                                    preset_config, run_instance)
from posauction.mechanisms import (FAMILIES, ROUNDING_RULES, TIE_LOTTERIES, TIE_RULES,
                                   WEIGHT_RULES, MechanismSpec, apply_weight_rule,
                                   bidder_weights, rounded_price, simulate_outcome)
from posauction.solver import enumerate_psne
from posauction.models import (DISTRIBUTION_NAMES, AuctionSetting, DistributionSpec,
                               GimSetting, normalize_setting, sample_setting,
                               setting_from_json_dict)

from oracles import gim_reference_tables, table_payoffs_reference

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


def test_effective_bid_cap(monkeypatch):
    monkeypatch.setattr(encoders, "VALUE_CAP", 10)
    with pytest.raises(EncodingSizeError):
        effective_bid_index(np.array([1.0, 0.618]), 100)


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


def test_gim_memory_cap(monkeypatch):
    s = sample_setting(DistributionSpec.from_name("gim-uni"), 4, 4,
                       rng=np.random.default_rng(1))
    monkeypatch.setattr(encoders, "ENTRY_CAP", 100)
    with pytest.raises(EncodingSizeError):
        encode_gim_gsp(s, MechanismSpec(family="gsp", k_max=8))


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


# sha256 of "actions,entries;" per game of the grid below, in its order
SIZE_STATS_DIGEST = "9b3e32f89be60b032aacdcee11eb9455ed572f4064a524f00d4be0a044e25af7"


def test_size_stats_are_pinned():
    # every distribution x gfp/ugsp/wgsp x both tie rules at n in {2, 3, 4}
    # and k in {3, 5}: the action and table-entry counts of each game
    h = hashlib.sha256()
    games = 0
    for d, name in enumerate(DISTRIBUTION_NAMES):
        for n, k in itertools.product((2, 3, 4), (3, 5)):
            s = normalize_setting(sample_setting(DistributionSpec.from_name(name), n, n,
                                                 rng=np.random.default_rng([d, n, k])), k)
            for (fam, wr), tie in itertools.product(
                    (("gfp", "unit"), ("gsp", "unit"), ("gsp", "quality")), TIE_RULES):
                stats = size_stats(encode(s, MechanismSpec(family=fam, weight_rule=wr,
                                                           tie_rule=tie, k_max=k)))
                h.update(f"{stats['action_nodes']},{stats['total_table_entries']};".encode())
                games += 1
    assert games == 13 * 6 * 6
    assert h.hexdigest() == SIZE_STATS_DIGEST


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
    # every cell of every rank-digit table, sign of zero included, as the
    # scalar reference computes it at the cell's (tied, above) rival masks,
    # over all tie, rounding and lottery options; no cell is a hole
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
                    assert not np.isnan(table.data).any()
                    assert table.data.tobytes() == data.tobytes()
                    assert len(table) == data.size


def test_payoff_kernel_equals_graph_evaluation():
    # the vectorized payoffs the equilibrium scan reads must be the tables
    # read at each bidder's configuration, exactly, at every profile and for
    # every bidder; the roundings take turns (shifted per setting) to keep
    # the grid small
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
            ref = np.array([table_payoffs_reference(game, s, mech, p) for p in grid]).T
            for i in range(n):
                assert np.array_equal(game.payoffs(i, bids), ref[i])


def test_gim_payoff_kernel_equals_graph_evaluation_with_three_rivals():
    # n=4 gives every bidder three rank digits, so the kernel's code steps
    # (3^p per tie, twice that above) meet every digit position
    grid = list(itertools.product(range(4), repeat=4))
    bids = np.array(grid).T
    for turn, name in enumerate(("cascade-uni", "hybrid-ln", "gim-uni")):
        s = normalize_setting(sample_setting(DistributionSpec.from_name(name), 4, 3,
                                             rng=np.random.default_rng(turn + 60)), 3)
        for fam, wr in (("gfp", "unit"), ("gsp", "unit"), ("gsp", "quality")):
            for tie in ("uniform", "lexicographic"):
                for lot in ("independent", "permutation"):
                    mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie, k_max=3,
                                         gim_tie_lottery=lot)
                    game = encode(s, mech)
                    ref = np.array([table_payoffs_reference(game, s, mech, p) for p in grid]).T
                    for i in range(4):
                        assert np.array_equal(game.payoffs(i, bids), ref[i])


# sha256 over bidder 0..n-1 of ``payoffs(i, np.ix_(every bid of every bidder))``
GIM_PAYOFF_DIGESTS = [
    ("cascade-ln", 4, 3, 5, dict(family="gsp", weight_rule="quality"),
     "775db22e900aaad789b3f15b294223f610e68e140e141c552571b7a955fd0ff3"),
    ("gim-uni", 4, 4, 4, dict(family="gsp", weight_rule="unit", tie_rule="lexicographic",
                              gim_tie_lottery="permutation"),
     "7fe946a03452d491809a577246254faf769aac6c06869165c2c7ea1f08796473"),
    ("hybrid-uni", 4, 2, 5, dict(family="gfp", weight_rule="unit"),
     "bcdf6b21dcfd3a74eefada7569d24c6aa0e3edf24cc2de12d51c4c57014a1ca1"),
    ("cascade-uni", 5, 5, 3, dict(family="gsp", weight_rule="cascade", rounding="nearest",
                                  gim_tie_lottery="permutation"),
     "3c73ae1d8e16dd1f6aa900ae2654213cd4148624059889f01549e299e6ac3008"),
]


@pytest.mark.parametrize("name,n,m,k,mech,digest", GIM_PAYOFF_DIGESTS,
                         ids=[case[0] for case in GIM_PAYOFF_DIGESTS])
def test_gim_payoffs_are_pinned(name, n, m, k, mech, digest):
    s = normalize_setting(sample_setting(DistributionSpec.from_name(name), n, m,
                                         rng=np.random.default_rng(11)), k)
    assert _payoff_digest(encode_gim_gsp(s, MechanismSpec(k_max=k, **mech))) == digest


def _payoff_digest(game):
    box = np.ix_(*[np.arange(len(actions)) for actions in game.agents])
    h = hashlib.sha256()
    for i in range(game.num_agents):
        h.update(game.payoffs(i, box).tobytes())
    return h.hexdigest()


# the same digest for no-externality games: (family, weight rule, tie rule,
# rounding) covers gfp/ugsp/wgsp under both tie rules, two roundings each
NO_EXT_PAYOFF_DIGESTS = [
    ("eos-ln", 4, 3, 5, ("gfp", "unit", "uniform", "down"),
     "72a80174ed17f1d97c96788e68cbfba9f2594eaf1471e026e72bfd7f4c598466"),
    ("v-uni", 3, 3, 6, ("gfp", "unit", "uniform", "up"),
     "6cc68f7aa0f5883f90a3af601674f6e0c73b779420016c12c872d53114c48926"),
    ("bss", 4, 2, 5, ("gfp", "unit", "lexicographic", "nearest"),
     "96ae8334f2a44cc65e682244cf1a3e8e9cbeb6075cb7d00e9bc1085486c62146"),
    ("bhn-ln", 3, 3, 6, ("gfp", "unit", "lexicographic", "up_plus_one"),
     "dc59af54549b3bc0b092e0835efd15b427c5431bc5614dc59c5e07d50fed65c1"),
    ("v-ln", 4, 4, 5, ("gsp", "unit", "uniform", "down"),
     "55271a859dc23d7c1f460aeeea52092b22bf172438f24ea0d2972ef6e85aa129"),
    ("bhn-uni", 4, 3, 5, ("gsp", "unit", "uniform", "up_plus_one"),
     "41d80f6593cd5c7ff64bf8f1d097b79b2e1ce2d91b71c136a3db81af235e31eb"),
    ("eos-uni", 3, 3, 6, ("gsp", "unit", "lexicographic", "nearest"),
     "4c4295a1ef7ce5061cb01d31aca13ffcf5d5d79fad059fee1c162fee97c2be3d"),
    ("bss", 4, 4, 5, ("gsp", "unit", "lexicographic", "up"),
     "8231685d03d76a0cd9b8d76336a27260fde0b41edbaa22164acd4f1e9f419361"),
    ("v-uni", 4, 3, 5, ("gsp", "quality", "uniform", "nearest"),
     "d1df3b9d3753d7ef7d6ed1b97aca11d69a56d7a1213476a29e0e936652ed3346"),
    ("bhn-ln", 4, 4, 5, ("gsp", "quality", "uniform", "down"),
     "a38ef48567047cefcdfde244b504513aec942eebb1d4b8c556dc1d8924400447"),
    ("bhn-uni", 3, 3, 6, ("gsp", "quality", "lexicographic", "up"),
     "f3863a4928a456a81d55fa51dc7ae031c141867a461dd22549ce60ff9f9e62b6"),
    ("v-ln", 4, 2, 5, ("gsp", "quality", "lexicographic", "up_plus_one"),
     "ddc92f0cb4c713c45817607d674ba3af3374fe4e8aad59949998d1dcca7d8e99"),
]


@pytest.mark.parametrize("name,n,m,k,mech,digest", NO_EXT_PAYOFF_DIGESTS,
                         ids=["-".join((case[0],) + case[4]) for case in NO_EXT_PAYOFF_DIGESTS])
def test_no_ext_payoffs_are_pinned(name, n, m, k, mech, digest):
    s = normalize_setting(sample_setting(DistributionSpec.from_name(name), n, m,
                                         rng=np.random.default_rng(13)), k)
    family, weight_rule, tie_rule, rounding = mech
    game = encode(s, MechanismSpec(family=family, weight_rule=weight_rule, tie_rule=tie_rule,
                                   rounding=rounding, k_max=k))
    assert _payoff_digest(game) == digest


def test_gim_tables_fit_the_cap_at_scale_n_six_bidders():
    # the paper-scale scale_n sweep's cascade-ln wGSP games at n=6 (quality
    # weights: about 150 effective-bid slots) encode under the default cap
    cfg = preset_config("scale_n", "paper")
    dist_index = cfg.distributions.index("cascade-ln")
    mech = next(mc for mc in cfg.mechanisms if mc.label == "wgsp").spec(cfg.k)
    s = normalize_setting(sample_setting(DistributionSpec.from_name("cascade-ln"), 6, cfg.m,
                                         rng=_instance_rng(cfg.seed, dist_index, 0)), cfg.k)
    game = encode_gim_gsp(s, mech)
    assert size_stats(game)["total_table_entries"] > 0


def test_payoff_kernel_on_a_box_equals_column_form():
    # the scan reads payoffs over np.ix_ boxes of bid sets; every encoder
    # path must give there, bit for bit, what it gives on the (n x P)
    # column form of the same profiles
    k = 4
    axes = [np.array([0, 2, 3]), np.arange(k + 1), np.array([1, 4])]
    box = np.ix_(*axes)
    columns = np.array(list(itertools.product(*axes))).T
    for name in DISTRIBUTION_NAMES:
        s = normalize_setting(sample_setting(DistributionSpec.from_name(name), 3, 3,
                                             rng=np.random.default_rng(77)), k)
        for fam, wr, tie, rnd, lot in itertools.product(
                FAMILIES, WEIGHT_RULES, TIE_RULES, ROUNDING_RULES, TIE_LOTTERIES):
            if wr == "cascade" and getattr(s, "continuation", None) is None:
                continue
            game = encode(s, MechanismSpec(family=fam, weight_rule=wr, squash=0.5,
                                           tie_rule=tie, rounding=rnd, k_max=k,
                                           gim_tie_lottery=lot))
            for i in range(3):
                on_box = game.payoffs(i, box)
                assert on_box.shape == tuple(len(a) for a in axes)
                assert on_box.tobytes() == game.payoffs(i, columns).tobytes()


def test_effective_bids_and_rounded_prices_equal_scalar_forms():
    # the slots are the distinct products k*w, as a per-product loop finds
    # them; every slot of every bidder rounds as the simulator's scalar
    # rounding gives it: next_eff = 0 (slot 0), exact k*w / w at the
    # bidder's own slots, and every rival's products, under each weight
    # rule and rounding
    checked = 0
    for name in ("v-ln", "bhn-uni", "cascade-uni", "cascade-ln", "hybrid-ln", "gim-uni"):
        for seed in range(8):
            s = normalize_setting(sample_setting(DistributionSpec.from_name(name), 4, 3,
                                                 rng=np.random.default_rng(seed + 70)), 8)
            rules = [("unit", 1.0), ("quality", 1.0), ("squashed", 0.5), ("squashed", 2.0)]
            if getattr(s, "continuation", None) is not None:
                rules.append(("cascade", 1.0))
            for rule, squash in rules:
                weights = bidder_weights(s, rule, squash)
                ebi = effective_bid_index(weights, 8)
                distinct = sorted({k * w for w in weights.tolist() for k in range(9)})
                assert ebi.values.tolist() == distinct
                assert ebi.index.tolist() == [[distinct.index(k * w) for k in range(9)]
                                              for w in weights.tolist()]
                values = ebi.values
                for w in weights.tolist():
                    for rnd in ROUNDING_RULES:
                        got = _rounded_prices(values, w, rnd)
                        want = [rounded_price(v, w, rnd) for v in values.tolist()]
                        assert got.tolist() == want
                        checked += len(want)
    # weights whose products are inexact, so k*w / w misses k by an ulp
    for w in (0.1, 0.3, 0.7, 1 / 3, 0.29, 1.7):
        values = np.array([k * w for k in range(60)] + [k * w + 1e-9 for k in range(60)])
        for rnd in ROUNDING_RULES:
            assert _rounded_prices(values, w, rnd).tolist() == [
                rounded_price(v, w, rnd) for v in values.tolist()]
            assert _rounded_prices(values[:60], w, rnd).tolist() == [
                k + (rnd == "up_plus_one") for k in range(60)]
    assert checked > 50_000


@pytest.mark.parametrize("tie", ["uniform", "lexicographic"])
@pytest.mark.parametrize("fam,wr", [("gfp", "unit"), ("gsp", "unit"), ("gsp", "quality")])
def test_no_ext_price_nodes_read_every_lower_slot(fam, wr, tie):
    # the kernel's price index is the argmax over lower slots: under GSP
    # bid b at slot t carries one price entry per slot 0..t-1, and a lone
    # rival bid at any lower slot u is read there, the price never falling
    # as u rises; under first price no table has a price axis
    k, n = 8, 4
    s = normalize_setting(sample_setting(DistributionSpec.from_name("v-ln"), n, 4,
                                         rng=np.random.default_rng(5)), k)
    mech = MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie, k_max=k)
    game = encode(s, mech)
    index = effective_bid_index(apply_weight_rule(s, mech), k).index
    config = [0, 0, 0] if tie == "lexicographic" else [1, 0]  # alone at its slot
    reads = 0
    for i in range(n):
        for b in range(1, k + 1):
            t = int(index[i, b])
            table = game.tables[game.agents[i][b]]
            assert table.data.ndim == len(config) + (fam == "gsp")
            if fam == "gfp":
                continue
            assert table.dims[-1] == t
            paid = {}
            for j in range(n):
                for c in range(k + 1):
                    u = int(index[j, c])
                    if j == i or u >= t:
                        continue
                    profile = [0] * n
                    profile[i], profile[j] = b, c
                    at = tuple(x - lo for x, lo in zip(config + [u], table.lo))
                    paid[u] = evaluate_profile(game, profile)[i]
                    assert paid[u] == table.data[at], (i, b, j, c)
                    reads += 1
            assert 0 in paid
            payoffs = [paid[u] for u in sorted(paid)]
            assert all(a >= b for a, b in zip(payoffs, payoffs[1:])), (i, b)
    assert (reads > 0) == (fam == "gsp")


@pytest.mark.parametrize("dist", ["v-uni", "cascade-uni"])
def test_solve_path_never_builds_the_graph(dist, monkeypatch):
    # the scan reads only the stacks behind the payoff kernel: with the
    # tables refusing to be built, every record is the one a readable game
    # gives
    mechanisms = [MechanismConfig.named(name, tie_rule=tie, label=f"{name}-{tie}")
                  for name in ("gfp", "ugsp", "wgsp") for tie in TIE_RULES]
    cfg = ExperimentConfig(distributions=[dist], mechanisms=mechanisms, n=3, m=3, k=5,
                           instances=3, seed=5)
    want = [run_instance(cfg, dist, 0, instance, cfg.n, cfg.m, cfg.k) for instance in range(3)]
    assert all(cell["solved"] and "error" not in cell
               for record in want for cell in record["mechanisms"].values())

    def refuse(_game):
        raise AssertionError("the tables were built")

    monkeypatch.setattr(ActionGraphGame, "tables", property(refuse))
    assert [run_instance(cfg, dist, 0, instance, cfg.n, cfg.m, cfg.k)
            for instance in range(3)] == want
    game = encode(setting_from_json_dict(want[0]["setting"]), MechanismSpec(k_max=cfg.k))
    with pytest.raises(AssertionError, match="the tables were built"):
        game.tables


def test_graph_does_not_depend_on_when_it_is_read(monkeypatch):
    # the tables read before the scan and the tables read after it are the
    # same, and every table is a view of the stack the kernel reads
    stacks = []

    def kernel(slots, bidder_stacks, *rest):
        stacks.append(bidder_stacks)
        return real(slots, bidder_stacks, *rest)

    real = encoders._pair_kernel
    monkeypatch.setattr(encoders, "_pair_kernel", kernel)
    mechs = [MechanismSpec(family=fam, weight_rule=wr, tie_rule=tie, k_max=4)
             for fam, wr in (("gfp", "unit"), ("gsp", "unit"), ("gsp", "quality"))
             for tie in TIE_RULES]
    for name in ("v-uni", "eos-ln", "cascade-uni", "gim-uni"):
        s = normalize_setting(sample_setting(DistributionSpec.from_name(name), 3, 3,
                                             rng=np.random.default_rng(9)), 4)
        for mech in mechs:
            views = []
            for scan_first in (False, True):
                game = encode(s, mech)
                if scan_first:
                    enumerate_psne(game)
                views.append((size_stats(game),
                              {v: (t.dims, t.lo, t.data.tobytes())
                               for v, t in game.tables.items()}))
                enumerate_psne(game)
                for i, actions in enumerate(game.agents):
                    for v in actions[1:]:
                        assert np.shares_memory(game.tables[v].data, stacks[-1][i])
            assert views[0] == views[1]
