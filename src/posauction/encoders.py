"""Compile auction settings into action-graph games.

Per bidder and bid amount there is one action node.  Counting function
nodes keyed by *effective bid* (bid times bidder weight) give each action
node a local view of how many rivals tie with it or beat it; weighted
argmax nodes recover the next lower effective bid for second-price
payments.  Distinct (bidder, bid) pairs with the same effective bid share
one counting node, so tie counting works across equal-weight bidders and
argmax arc weights stay pairwise distinct.

Bids of zero are non-participation: their action nodes carry constant-zero
tables and contribute no tokens anywhere else.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .agg import ACTION, ARGMAX, OR, SUM, ActionGraphGame, ConfigTable, Node
from .mechanisms import MechanismSpec, apply_weight_rule, rounded_price
from .models import AuctionSetting, GimSetting, Setting

DEFAULT_VALUE_CAP = 100_000
DEFAULT_ENTRY_CAP = 20_000_000


class EncodingSizeError(RuntimeError):
    """The encoded game would exceed a configured size cap."""


@dataclass(frozen=True)
class EffectiveBidIndex:
    """Sorted distinct effective bids with a (bidder, bid) -> slot map.

    ``values[0]`` is always 0.0 (the empty-bid sentinel); every positive
    (bidder, bid) pair maps to the slot of its exact product.
    """

    values: np.ndarray
    index: np.ndarray  # (n, k_max + 1) slots into values


def effective_bid_index(weights: np.ndarray, k_max: int,
                        cap: int = DEFAULT_VALUE_CAP) -> EffectiveBidIndex:
    n = len(weights)
    distinct = sorted({float(k * weights[i]) for i in range(n) for k in range(1, k_max + 1)})
    values = np.array([0.0] + distinct)
    if len(values) > cap:
        raise EncodingSizeError(
            f"{len(values)} distinct effective bids exceed the cap of {cap}")
    slot = {v: t for t, v in enumerate(values)}
    index = np.zeros((n, k_max + 1), dtype=np.int64)
    for i in range(n):
        for k in range(1, k_max + 1):
            index[i, k] = slot[float(k * weights[i])]
    return EffectiveBidIndex(values, index)


def _rival_view(slots: np.ndarray, i: int, bids: np.ndarray):
    """Bidder i's view of the rivals at every column of ``bids``: which
    rivals (in id order) tie its effective-bid slot and which beat it, and
    the highest rival slot below its own (0 when there is none)."""
    taken = np.take_along_axis(slots, bids, axis=1)
    own = taken[i]
    rival = np.delete(taken, i, axis=0)
    rho = np.where(rival < own, rival, 0).max(axis=0, initial=0)
    return rival == own, rival > own, rho


def _extended_rows(setting: AuctionSetting) -> tuple[np.ndarray, np.ndarray]:
    """Click/value rows padded to 2n positions: clicks go to zero, values
    repeat their last column (table boxes cover some unreachable positions)."""
    n = setting.n
    clicks = np.zeros((n, 2 * n))
    values = np.zeros((n, 2 * n))
    clicks[:, :n] = setting.clicks
    values[:, :n] = setting.values
    values[:, n:] = setting.values[:, -1:]
    return clicks, values


def _action_nodes(n: int, k_max: int) -> tuple[list[Node], list[list[int]]]:
    """One action node per (bidder, bid 0..k_max), numbered bidder-major;
    the nodes and each bidder's node ids in bid order."""
    nodes = [Node(ACTION, owner=i, label=f"bid({i},{k})")
             for i in range(n) for k in range(k_max + 1)]
    agents = [list(range(i * (k_max + 1), (i + 1) * (k_max + 1))) for i in range(n)]
    return nodes, agents


def _encode_no_ext(setting: AuctionSetting, mech: MechanismSpec,
                   cap: int) -> ActionGraphGame:
    n, k_max = setting.n, mech.k_max
    w = apply_weight_rule(setting, mech)
    ebi = effective_bid_index(w, k_max, cap)
    gsp = mech.family == "gsp"
    lex = mech.tie_rule == "lexicographic"

    nodes, agents = _action_nodes(n, k_max)

    by_value: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        for k in range(1, k_max + 1):
            by_value.setdefault(int(ebi.index[i, k]), []).append((i, k))

    T = len(ebi.values)
    eq = {}
    gt = {}
    pm = {}
    for t in range(1, T):
        nodes.append(Node(SUM, in_arcs=[(agents[i][k], None) for i, k in by_value[t]],
                          label=f"eq@{ebi.values[t]:g}"))
        eq[t] = len(nodes) - 1
    for t in range(T - 1, 0, -1):
        arcs = []
        if t + 1 < T:
            arcs = [(eq[t + 1], None), (gt[t + 1], None)]
        nodes.append(Node(SUM, in_arcs=arcs, label=f"above@{ebi.values[t]:g}"))
        gt[t] = len(nodes) - 1
    if gsp:
        for t in range(1, T):
            arcs = [(eq[u], float(ebi.values[u])) for u in range(1, t)]
            nodes.append(Node(ARGMAX, in_arcs=arcs, label=f"price@{ebi.values[t]:g}"))
            pm[t] = len(nodes) - 1

    eq_side = {}
    if lex:
        for t, pairs in by_value.items():
            owners = sorted({i for i, _ in pairs})
            for i in owners:
                lo_arcs = [(agents[j][k], None) for j, k in pairs if j < i]
                hi_arcs = [(agents[j][k], None) for j, k in pairs if j > i]
                nodes.append(Node(SUM, in_arcs=lo_arcs, label=f"eq_lo@{t}/{i}"))
                eq_side[(t, i, "lo")] = len(nodes) - 1
                nodes.append(Node(SUM, in_arcs=hi_arcs, label=f"eq_hi@{t}/{i}"))
                eq_side[(t, i, "hi")] = len(nodes) - 1

    # per bidder one array over (bid, config axes..., price index): the
    # table of bid k is a view of row k, row 0 (no bid) stays zero, and the
    # price axis spans every slot below the bidder's top bid
    clicks_x, values_x = _extended_rows(setting)
    ks = np.arange(1, k_max + 1, dtype=float)[:, None, None]
    tables: dict[int, object] = {}
    stacks = []
    for i in range(n):
        width = int(ebi.index[i, k_max]) if gsp else 1
        prices = None
        if gsp:
            prices = np.array([rounded_price(float(ebi.values[r]), float(w[i]),
                                             mech.rounding)
                               for r in range(width)], dtype=float)
        if not lex:
            # axes (rival ties, rivals above)
            ell = np.arange(1, n + 1)[:, None]
            g = np.arange(n)[None, :]
            s1 = np.concatenate([[0.0], np.cumsum(clicks_x[i] * values_x[i])])
            s2 = np.concatenate([[0.0], np.cumsum(clicks_x[i])])
            stack = np.zeros((k_max + 1, n, n, width))
            if gsp:
                mid = (s1[g + ell - 1] - s1[g]) - ks * (s2[g + ell - 1] - s2[g])
                c_last = clicks_x[i][(g + ell - 1).clip(max=2 * n - 1)]
                v_last = values_x[i][(g + ell - 1).clip(max=2 * n - 1)]
                stack[1:] = (mid[..., None]
                             + (c_last[:, :, None] * (v_last[:, :, None] - prices))
                             ) / ell[:, :, None]
            else:
                stack[1:, :, :, 0] = ((s1[g + ell] - s1[g]) - ks * (s2[g + ell] - s2[g])) / ell
        else:
            # axes (tied rivals with smaller id, with larger id, rivals
            # above): position is g + lo + 1 and only the block's bottom
            # bidder (no tied rival with larger id) pays rho
            lo = np.arange(n)[:, None]
            g = np.arange(n)[None, :]
            pos0 = (lo + g).clip(max=2 * n - 1)  # 0-based position index
            c_here = clicks_x[i][pos0]
            v_here = values_x[i][pos0]
            own = c_here * (v_here - ks)  # axes (bid, lo, g)
            stack = np.zeros((k_max + 1, n, n, n, width))
            stack[1:] = own[:, :, None, :, None]
            if gsp:
                stack[1:, :, 0] = c_here[:, :, None] * (v_here[:, :, None] - prices)
        stacks.append(stack)

        for k in range(k_max + 1):
            node_id = agents[i][k]
            if k == 0:
                tables[node_id] = {(): 0.0}
                continue
            t = int(ebi.index[i, k])
            node = nodes[node_id]
            if lex:
                node.in_arcs = [(eq_side[(t, i, "lo")], None),
                                (eq_side[(t, i, "hi")], None), (gt[t], None)]
            else:
                node.in_arcs = [(eq[t], None), (gt[t], None)]
            if gsp:
                node.in_arcs.append((pm[t], None))
                block = stack[k, ..., :t]
            else:
                block = stack[k, ..., 0]
            # uniform ties count the bidder itself on the tie axis
            lo_corner = (0 if lex else 1,) + (0,) * (block.ndim - 1)
            tables[node_id] = ConfigTable(block.shape, lo_corner, block)

    def kernel(i: int, bids: np.ndarray) -> np.ndarray:
        tied, above, rho = _rival_view(ebi.index, i, bids)
        ties = (tied[:i].sum(axis=0), tied[i:].sum(axis=0)) if lex else (tied.sum(axis=0),)
        return stacks[i][(bids[i], *ties, above.sum(axis=0), rho if gsp else 0)]

    return ActionGraphGame(agents, nodes, tables, payoffs=kernel)


def encode_gfp(setting: AuctionSetting, mech: MechanismSpec,
               cap: int = DEFAULT_VALUE_CAP) -> ActionGraphGame:
    """First-price encoding: winners pay their own bid."""
    if mech.family != "gfp":
        raise ValueError("encode_gfp requires a gfp mechanism")
    return _encode_no_ext(setting, mech, cap)


def encode_gsp(setting: AuctionSetting, mech: MechanismSpec,
               cap: int = DEFAULT_VALUE_CAP) -> ActionGraphGame:
    """Second-price encoding: argmax price nodes recover the next lower
    effective bid, divided by the winner's weight and rounded."""
    if mech.family != "gsp":
        raise ValueError("encode_gsp requires a gsp mechanism")
    return _encode_no_ext(setting, mech, cap)


def encode_gim_gsp(setting: GimSetting, mech: MechanismSpec,
                   entry_cap: int = DEFAULT_ENTRY_CAP,
                   cap: int = DEFAULT_VALUE_CAP) -> ActionGraphGame:
    """Externality-setting encoding with per-rival tie/above indicator nodes.

    Utility tables average over the tied-rival lottery: by default each tied
    rival ranks above independently with probability one half; the
    ``permutation`` option weighs subsets as a uniform random order of the
    tied block instead.  The bidder pays the argmax price only when every
    tied rival ranks above it (it sits at the bottom of its block).

    The tables are evaluated per bidder (see :func:`_gim_utilities`): a
    lottery term's click weight depends only on the bidder and the (tied,
    above) rival masks, so each term is one numpy operation over every bid
    and price index at once.  The terms of a cell are summed in the same
    lottery order as a scalar per-cell evaluation would sum them, which
    makes every cell the same IEEE result, bit for bit.  Each bid's table
    is a view of its row of that array, and the game's payoff kernel reads
    the array directly.
    """
    n, k_max = setting.n, mech.k_max
    w = apply_weight_rule(setting, mech)
    ebi = effective_bid_index(w, k_max, cap)
    gsp = mech.family == "gsp"
    lex = mech.tie_rule == "lexicographic"
    T = len(ebi.values)

    est = n * k_max * (2 ** (2 * (n - 1))) * max(T - 1, 1)
    if est > entry_cap:
        raise EncodingSizeError(
            f"estimated {est} table entries exceed the cap of {entry_cap}")

    nodes, agents = _action_nodes(n, k_max)

    # a bidder's slots rise with its bid (weights are positive), so the bids
    # of rival j tied with slot t, or above it, are contiguous runs of its
    # positive bids
    bid_arcs = [[(agents[j][kk], None) for kk in range(1, k_max + 1)] for j in range(n)]
    bid_slots = [ebi.index[j, 1:].tolist() for j in range(n)]
    by_slot: dict[int, list[tuple[int, None]]] = {}
    for j in range(n):
        for arc, t in zip(bid_arcs[j], bid_slots[j]):
            by_slot.setdefault(t, []).append(arc)

    present = {}
    for t in range(1, T):
        nodes.append(Node(OR, in_arcs=by_slot[t], label=f"present@{ebi.values[t]:g}"))
        present[t] = len(nodes) - 1
    pm = {}
    if gsp:
        price_arcs = [(present[u], float(ebi.values[u])) for u in range(1, T)]
        for t in range(1, T):
            nodes.append(Node(ARGMAX, in_arcs=price_arcs[:t - 1],
                              label=f"price@{ebi.values[t]:g}"))
            pm[t] = len(nodes) - 1

    tables: dict[int, object] = {}
    utils = []
    r_count = n - 1
    for i in range(n):
        rivals = [j for j in range(n) if j != i]
        prices = None
        if gsp:
            prices = np.array([rounded_price(float(ebi.values[r]), float(w[i]),
                                             mech.rounding)
                               for r in range(int(ebi.index[i].max()))], dtype=float)
        util = _gim_utilities(setting, i, mech, prices)
        for k in range(k_max + 1):
            node_id = agents[i][k]
            if k == 0:
                tables[node_id] = {(): 0.0}
                continue
            t = int(ebi.index[i, k])
            arcs: list[tuple[int, float | None]] = []
            for j in rivals:
                lo = bisect.bisect_left(bid_slots[j], t)
                hi = bisect.bisect_right(bid_slots[j], t, lo)
                nodes.append(Node(OR, in_arcs=bid_arcs[j][lo:hi],
                                  label=f"tied({i},{k})<-{j}"))
                arcs.append((len(nodes) - 1, None))
            for j in rivals:
                hi = bisect.bisect_right(bid_slots[j], t)
                nodes.append(Node(OR, in_arcs=bid_arcs[j][hi:],
                                  label=f"over({i},{k})<-{j}"))
                arcs.append((len(nodes) - 1, None))
            if gsp:
                arcs.append((pm[t], None))
            nodes[node_id].in_arcs = arcs

            # rank 0 is the most significant bit of both mask axes
            dims = (2,) * (2 * r_count) + ((t,) if gsp else ())
            block = util[k, :, :, :t] if gsp else util[k, :, :, 0]
            tables[node_id] = ConfigTable(dims, (0,) * len(dims), block.reshape(dims))
        utils.append(util)

    bit = 1 << np.arange(r_count - 1, -1, -1)

    def kernel(i: int, bids: np.ndarray) -> np.ndarray:
        tied, above, rho = _rival_view(ebi.index, i, bids)
        return utils[i][bids[i], bit @ tied, bit @ above, rho if gsp else 0]

    return ActionGraphGame(agents, nodes, tables, payoffs=kernel)


def _gim_utilities(setting: GimSetting, i: int, mech: MechanismSpec,
                   prices: np.ndarray | None) -> np.ndarray:
    """Expected utilities of bidder i over (bid, tied code, above code,
    price index); zero at bid 0 and NaN where a rival would both tie and
    rank above.

    A mask code puts rival rank 0 in its most significant bit.  ``prices``
    holds the rounded price per argmax index (None under first price, where
    the bottom of a tied block pays its own bid and the last axis has
    length one).  Each lottery term of a cell is (prob * clicks) * (v -
    price): its weight is a scalar of the masks and its price factor a
    vector over the bids, or over the price indices for the bottom term.
    """
    k_max = mech.k_max
    lex = mech.tie_rule == "lexicographic"
    r_count = setting.n - 1
    side = 1 << r_count
    rivals = setting.rivals(i)
    q = float(setting.qualities[i])
    v = float(setting.values[i])
    f = setting.externality[i]
    own = v - np.arange(1, k_max + 1, dtype=float)
    paid = None if prices is None else v - prices
    width = 1 if prices is None else len(prices)
    code = [sum((mask >> b & 1) << (r_count - 1 - b) for b in range(r_count))
            for mask in range(side)]
    util = np.full((k_max + 1, side, side, width), np.nan)
    util[0] = 0.0

    def weight(full: int, prob: float) -> float:
        pos = bin(full).count("1") + 1
        clicks = q * float(f[full]) if pos <= setting.m else 0.0
        return prob * clicks

    for tied in range(side):
        tied_ranks = [r for r in range(r_count) if tied >> r & 1]
        ell = len(tied_ranks)
        if lex:
            lex_sub = sum(1 << r for r in tied_ranks if rivals[r] < i)
        else:
            # choice bit b ranks the b-th tied rival above; the last choice
            # puts the bidder at the bottom of its block
            choices = range(1 << ell)
            subs = [sum(1 << r for b, r in enumerate(tied_ranks) if choice >> b & 1)
                    for choice in choices]
            if mech.gim_tie_lottery == "independent":
                probs = [1.0 / (1 << ell)] * len(choices)
            else:
                probs = [math.factorial(s) * math.factorial(ell - s) / math.factorial(ell + 1)
                         for s in (bin(choice).count("1") for choice in choices)]
        for above in range(side):
            if tied & above:
                continue  # a rival cannot both tie and rank above
            cell = util[1:, code[tied], code[above], :]
            if lex:
                # deterministic rank: bottom of the block iff every tied
                # rival has a smaller id
                c = weight(above | lex_sub, 1.0)
                if paid is not None and lex_sub == tied:
                    cell[:] = c * paid
                else:
                    cell[:] = (c * own)[:, None]
                continue
            total = np.zeros(k_max)
            for sub, prob in zip(subs[:-1], probs[:-1]):
                total = total + weight(above | sub, prob) * own
            c = weight(above | subs[-1], probs[-1])
            if paid is None:
                cell[:] = (total + c * own)[:, None]
            else:
                cell[:] = total[:, None] + c * paid
    return util


def encode(setting: Setting, mech: MechanismSpec, **kwargs) -> ActionGraphGame:
    """Dispatch on the setting shape and mechanism family."""
    if isinstance(setting, GimSetting):
        return encode_gim_gsp(setting, mech, **kwargs)
    if mech.family == "gfp":
        return encode_gfp(setting, mech, **kwargs)
    return encode_gsp(setting, mech, **kwargs)
