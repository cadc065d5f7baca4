import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_assignment_welfare, gim_vcg_reference
from posauction.mechanisms import (ROUNDING_RULES, TIE_LOTTERIES, TIE_RULES,
                                   MechanismSpec, bidder_weights,
                                   linear_sum_assignment, max_clicks,
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


def _gim_settings():
    for name in DISTRIBUTION_NAMES:
        spec = DistributionSpec.from_name(name)
        if spec.model_kind not in ("cascade", "hybrid", "gim"):
            continue
        for n in range(1, 5):
            for m in range(1, n + 1):
                rng = np.random.default_rng(10 * n + m)
                for _ in range(3):
                    yield f"{name}/n={n}/m={m}", normalize_setting(
                        sample_setting(spec, n, m, rng), 7)


def test_gim_vcg_matches_per_skip_enumeration():
    # vcg enumerates the orderings once and reads every bidder's Clarke term
    # from that one list; the reference enumerates afresh per bidder
    kinds = set()
    for label, s in _gim_settings():
        kinds.add(s.model_kind)
        for discretize in (None, 7, 2):
            reports = (s.values if discretize is None
                       else np.clip(np.floor(s.values + 0.5), 0.0, float(discretize)))
            ordering, welfare, payments = gim_vcg_reference(s, reports)
            assert max_welfare(s, values=reports) == (ordering, welfare), label
            out = vcg(s, discretize=discretize)
            assert out.payments_total.tolist() == payments.tolist(), label
            placed = [i for i in range(s.n) if out.slot_lottery[i][0][0] > 0]
            assert sorted(placed, key=lambda i: out.slot_lottery[i][0][0]) == list(ordering)
    assert kinds == {"cascade", "hybrid", "gim"}


# --------------------------------------------------------------------------
# the assignment solver

def _cost_cases(rng):
    """Float, small-integer (ties), rank-1 integer (ties) and constant
    matrices of shapes 0 x n, 1 x 1, (n-1) x n and n x n for n up to 10, and
    near-ties that rounding decides: tenths, and integer reports times float
    click rates, as vcg's matrices are."""
    shapes = {(0, 1), (1, 1)}
    for n in range(1, 11):
        shapes |= {(0, n), (n - 1, n), (n, n)}
    for shape in sorted(shapes):
        nr, nc = shape
        yield rng.normal(size=shape)
        yield rng.integers(-2, 3, size=shape).astype(float)
        yield -np.outer(rng.integers(0, 4, nr), rng.integers(0, 4, nc)).astype(float)
        yield np.full(shape, float(rng.integers(-3, 4)))
        yield rng.integers(-9, 10, size=shape) / 10
        yield -np.outer(rng.integers(0, 5, nr), rng.random(nc))


def _same_as_scipy(cost):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    want = scipy_optimize.linear_sum_assignment(cost)
    got = linear_sum_assignment(cost)
    assert [a.tolist() for a in got] == [a.tolist() for a in want], cost
    assert all(a.dtype.kind == "i" for a in got)


def test_assignment_solver_makes_scipys_choice():
    rng = np.random.default_rng(5)
    for _ in range(5):
        for cost in _cost_cases(rng):
            _same_as_scipy(cost)


@st.composite
def _cost_matrices(draw):
    nc = draw(st.integers(0, 10))
    nr = draw(st.integers(0, nc))
    kind = draw(st.sampled_from(("float", "int", "tenths", "rank1", "scaled")))
    if kind in ("rank1", "scaled"):
        rows = draw(st.lists(st.integers(0, 5), min_size=nr, max_size=nr))
        cols = draw(st.lists(st.integers(0, 5) if kind == "rank1" else st.floats(0, 1),
                             min_size=nc, max_size=nc))
        return -np.outer(rows, cols).astype(float).reshape(nr, nc)
    cells = (st.floats(-1e6, 1e6) if kind == "float" else st.integers(-9, 9))
    values = draw(st.lists(cells, min_size=nr * nc, max_size=nr * nc))
    cost = np.array(values, dtype=float).reshape(nr, nc)
    return cost / 10 if kind == "tenths" else cost


@given(cost=_cost_matrices())
@settings(max_examples=300, deadline=None)
def test_assignment_solver_makes_scipys_choice_on_any_matrix(cost):
    _same_as_scipy(cost)


def test_assignment_solver_edges():
    # an empty row set (vcg leaves out the only bidder) gives empty integer
    # index arrays, which still index a matrix
    for nc in (0, 1, 3):
        rows, cols = linear_sum_assignment(np.zeros((0, nc)))
        assert rows.dtype.kind == cols.dtype.kind == "i"
        assert rows.size == cols.size == 0
        assert np.zeros((0, nc))[rows, cols].sum() == 0.0
    assert [a.tolist() for a in linear_sum_assignment(np.array([[4.0]]))] == [[0], [0]]
    # a constant matrix gets the identity, a wide one its leading columns
    assert linear_sum_assignment(np.ones((3, 5)))[1].tolist() == [0, 1, 2]
    with pytest.raises(ValueError, match="more rows than columns"):
        linear_sum_assignment(np.zeros((3, 2)))


def test_assignment_solver_is_optimal():
    rng = np.random.default_rng(8)
    for n in range(1, 6):
        for nr in (n - 1, n):
            for _ in range(20):
                cost = rng.integers(0, 4, size=(nr, n)).astype(float)
                rows, cols = linear_sum_assignment(cost)
                assert len(set(cols.tolist())) == nr
                best = min(sum(cost[r, c] for r, c in zip(range(nr), perm))
                           for perm in itertools.permutations(range(n), nr))
                assert cost[rows, cols].sum() == best
