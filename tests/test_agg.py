import itertools

import numpy as np
import pytest

from posauction.agg import (ACTION, ARGMAX, SUM, ActionGraphGame,
                            ConfigTable, MissingTableEntry, Node, dump_graph,
                            evaluate_profile, node_values, size_stats)
from posauction.encoders import encode
from posauction.mechanisms import (ROUNDING_RULES, TIE_LOTTERIES, TIE_RULES,
                                   MechanismSpec)
from posauction.models import (DISTRIBUTION_NAMES, DistributionSpec, GimSetting,
                               normalize_setting, sample_setting)

from oracles import evaluate_profile_reference, node_values_reference


def constant_game():
    nodes = [Node(ACTION, owner=0)]
    return ActionGraphGame([[0]], nodes, {0: {(): 3.5}})


def counting_game():
    # two bidders share an action watched through a sum node
    nodes = [
        Node(ACTION, owner=0),
        Node(ACTION, owner=1),
        Node(SUM),
        Node(ACTION, owner=0),
        Node(ACTION, owner=1),
    ]
    nodes[2].in_arcs = [(0, None), (1, None)]
    nodes[0].in_arcs = [(2, None)]
    nodes[1].in_arcs = [(2, None)]
    tables = {
        0: {(1,): 1.0, (2,): -1.0},
        1: {(1,): 1.0, (2,): -1.0},
        3: {(): 0.25},
        4: {(): 0.25},
    }
    return ActionGraphGame([[0, 3], [1, 4]], nodes, tables)


def sum_argmax_game():
    # bidder 1 picks low or high; a sum node counts its one token and an
    # argmax node reports which action is active
    nodes = [
        Node(ACTION, owner=0),   # watcher
        Node(ACTION, owner=1),   # low
        Node(ACTION, owner=1),   # high
        Node(SUM),
        Node(ARGMAX),
    ]
    nodes[3].in_arcs = [(1, None), (2, None)]
    nodes[4].in_arcs = [(1, 1.5), (2, 2.5)]
    nodes[0].in_arcs = [(3, None), (4, None)]
    tables = {0: {(1, 1): 10.0, (1, 2): 20.0}, 1: {(): 0.0}, 2: {(): 0.0}}
    return ActionGraphGame([[0], [1, 2]], nodes, tables)


def idle_argmax_game():
    nodes = [Node(ACTION, owner=0), Node(ARGMAX)]
    nodes[0].in_arcs = [(1, None)]
    return ActionGraphGame([[0]], nodes, {0: {(0,): 7.0}})


def scalar_table_game():
    # a 0-dim ConfigTable and function nodes with no sources at all
    nodes = [Node(ACTION, owner=0), Node(SUM), Node(SUM), Node(ARGMAX),
             Node(ACTION, owner=0)]
    nodes[4].in_arcs = [(1, None), (2, None), (3, None)]
    tables = {0: ConfigTable((), np.array(-2.5)),
              4: ConfigTable((0, 0, 0), np.array([[[1.25]]]))}
    return ActionGraphGame([[0, 4]], nodes, tables)


def test_constant_game_payoff():
    assert evaluate_profile(constant_game(), [0]) == pytest.approx([3.5])


def test_sum_node_counts_tokens():
    game = counting_game()
    assert evaluate_profile(game, [0, 0]) == pytest.approx([-1.0, -1.0])
    assert evaluate_profile(game, [0, 1]) == pytest.approx([1.0, 0.25])
    assert evaluate_profile(game, [1, 1]) == pytest.approx([0.25, 0.25])


def test_missing_table_entry_signals_encoder_bug():
    nodes = [Node(ACTION, owner=0)]
    game = ActionGraphGame([[0]], nodes, {0: {}})
    with pytest.raises(MissingTableEntry):
        evaluate_profile(game, [0])


def test_sum_and_argmax_nodes():
    game = sum_argmax_game()
    assert evaluate_profile(game, [0, 0])[0] == 10.0
    assert evaluate_profile(game, [0, 1])[0] == 20.0


def test_argmax_with_no_active_source_reads_zero():
    assert evaluate_profile(idle_argmax_game(), [0])[0] == 7.0


def _assert_matches_reference(game, check_values=True):
    for profile in itertools.product(*(range(len(a)) for a in game.agents)):
        profile = list(profile)
        assert (evaluate_profile(game, profile).tobytes()
                == evaluate_profile_reference(game, profile).tobytes()), profile
        if check_values:
            assert np.array_equal(node_values(game, profile),
                                  node_values_reference(game, profile)), profile


def test_evaluate_profile_matches_reference():
    # every profile of small encoded games, payoffs byte for byte.  The
    # rounding rule and the tie lottery change table values, not the graph,
    # so each (distribution, n) takes one rounding in turn, node values are
    # compared once per graph, and the lottery is varied only where the
    # encoders read it (random ties of externality settings)
    for game in (constant_game(), counting_game(), sum_argmax_game(),
                 idle_argmax_game(), scalar_table_game()):
        _assert_matches_reference(game)
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
                    _assert_matches_reference(encode(s, mech),
                                              check_values=lot == lotteries[0])


def test_topological_order_variants_agree():
    s = normalize_setting(
        sample_setting(DistributionSpec.from_name("v-uni"), 3, 2,
                       rng=np.random.default_rng(4)), 4)
    game = encode(s, MechanismSpec(family="gsp", weight_rule="quality", k_max=4))
    # list order is one valid order; another one, by depth with ties taken
    # in reverse list order, gives the same node values
    alt = sorted((v for v, node in enumerate(game.nodes) if node.kind != ACTION),
                 key=lambda v: (_depth(game, v), -v))
    assert alt != sorted(alt)
    pos = {v: i for i, v in enumerate(alt)}
    for v in alt:
        for src in game.nodes[v].sources():
            if game.nodes[src].kind != ACTION:
                assert pos[src] < pos[v]
    profile = [2, 0, 4]
    want = node_values_reference(game, profile)
    assert np.array_equal(node_values_reference(game, profile, order=alt), want)
    assert np.array_equal(node_values(game, profile), want)


@pytest.mark.parametrize("arcs", [
    {1: [(2, None)], 2: [(0, None)]},  # reads a function node listed after it
    {1: [(0, None), (2, None)], 2: [(1, None)]},  # two-node cycle
    {1: [(1, None)], 2: []},  # reads itself
])
def test_plan_rejects_function_nodes_out_of_list_order(arcs):
    nodes = [Node(ACTION, owner=0), Node(SUM, in_arcs=arcs[1]), Node(SUM, in_arcs=arcs[2])]
    game = ActionGraphGame([[0]], nodes, {0: {(): 0.0}})
    with pytest.raises(ValueError, match="not listed before it"):
        game.plan()


def _depth(game, v, cache=None):
    cache = {} if cache is None else cache
    if v in cache:
        return cache[v]
    node = game.nodes[v]
    if node.kind == ACTION:
        d = 0
    else:
        d = 1 + max((_depth(game, s, cache) for s in node.sources()
                     if game.nodes[s].kind != ACTION), default=0)
    cache[v] = d
    return d


def test_size_stats_empty_and_encoded():
    empty = ActionGraphGame([], [], {})
    assert size_stats(empty) == {"action_nodes": 0, "function_nodes": 0,
                                 "total_table_entries": 0}
    s = normalize_setting(
        sample_setting(DistributionSpec.from_name("eos-uni"), 3, 3,
                       rng=np.random.default_rng(2)), 4)
    game = encode(s, MechanismSpec(family="gfp", weight_rule="unit", k_max=4))
    stats = size_stats(game)
    assert stats["action_nodes"] == 3 * 5
    assert stats["total_table_entries"] > 0


def test_config_table_rejects_out_of_box_and_nan():
    data = np.array([[1.0, np.nan]])
    table = ConfigTable((1, 0), data)
    assert table.dims == (1, 2)
    assert table[(1, 0)] == 1.0
    with pytest.raises(MissingTableEntry) as hole:
        table[(1, 1)]
    assert str(hole.value) == "config (1, 1) marked unreachable"
    with pytest.raises(MissingTableEntry):
        table[(0, 0)]
    assert len(table) == 1
    assert list(table) == [(1, 0)]
    # a Mapping: holes, out-of-box and wrong-arity keys are simply absent
    assert (1, 0) in table
    assert (1, 1) not in table and (0, 0) not in table and (2, 0) not in table
    assert (1,) not in table
    assert table.get((1, 1)) is None and table.get((0, 0), -1.0) == -1.0
    assert table.get((1, 0)) == 1.0
    assert issubclass(MissingTableEntry, KeyError)


def _watcher_game(table):
    # bidder 0 watches a sum over its own token and bidder 1's first action,
    # so its config is (2,) at profile [0, 0] and (1,) at [0, 1]
    nodes = [Node(ACTION, owner=0), Node(ACTION, owner=1), Node(ACTION, owner=1),
             Node(SUM, in_arcs=[(0, None), (1, None)])]
    nodes[0].in_arcs = [(3, None)]
    return ActionGraphGame([[0], [1, 2]], nodes,
                           {0: table, 1: {(): 0.0}, 2: {(): 0.0}})


@pytest.mark.parametrize("table, profile", [
    (ConfigTable((1, 0), np.array([[1.0], [2.0]])), [0, 0]),  # arity
    (ConfigTable((1,), np.array([1.0])), [0, 0]),             # above box
    (ConfigTable((2,), np.array([1.0])), [0, 1]),             # below box
    (ConfigTable((1,), np.array([1.0, np.nan])), [0, 0]),     # NaN hole
    ({(1,): 1.0}, [0, 0]),                                     # no dict key
])
def test_missing_entries_raise_through_evaluate_profile(table, profile):
    fresh = _watcher_game(table)
    with pytest.raises(MissingTableEntry, match="node 0"):
        evaluate_profile(fresh, profile)
    cached = _watcher_game(table)
    node_values(cached, profile)  # compiles and caches the plan
    assert cached._plan is not None
    with pytest.raises(MissingTableEntry, match="node 0"):
        evaluate_profile(cached, profile)
    with pytest.raises(MissingTableEntry):
        evaluate_profile(fresh, profile)


def test_dump_graph_lists_every_node():
    game = counting_game()
    text = dump_graph(game)
    assert len(text.strip().splitlines()) == len(game.nodes)
    assert "sum" in text

