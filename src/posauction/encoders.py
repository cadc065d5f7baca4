"""Compile auction settings into action-graph games.

Per bidder and bid amount there is one action node.  Counting function
nodes keyed by *effective bid* (bid times bidder weight) give each action
node a local view of how many rivals tie with it or beat it; weighted
argmax nodes recover the next lower effective bid for second-price
payments.  Distinct (bidder, bid) pairs with the same effective bid share
one counting node, so tie counting works across equal-weight bidders and
argmax arc weights stay pairwise distinct.

The externality encoder instead gives each action node one base-3 rank
digit per rival (0 below, 1 tied, 2 above), read by a sum node shared by
every slot that splits that rival's bids the same way, so its tables span
only the reachable digit codes.

Bids of zero are non-participation: their action nodes carry constant-zero
tables and contribute no tokens anywhere else.
"""

from __future__ import annotations

import bisect
import functools
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


def _pair_kernel(slots: np.ndarray, stacks: list[np.ndarray], gsp: bool, ties: str):
    """Bidder i's payoff is its C-ordered stack (own bid, rival axes, price)
    at own-bid offset + sum over rivals j of ``P_ij[b_i, b_j]`` (+ under GSP
    max over j of ``R_ij[b_i, b_j]``, j's slot where below i's, else 0).
    ``P_ij`` steps the tie axis (``"split"``: the second one if j > i) or
    the above axis (second last) by one; under ``"digit"`` it steps the code
    axis by j's rank digit, 3^p for a tie and twice that above, where p
    counts the rivals ranked after j.  Each table is (k+1)^2, so on an
    ``np.ix_`` box each term is 2-D; built on the first call, they cost a
    game read only by its graph nothing.
    """
    @functools.cache
    def tables():  # all at once, over (i, j, b_i, b_j); the diagonal goes unused
        n = len(stacks)
        axis = np.array([s.strides for s in stacks]) // stacks[0].itemsize
        later = np.arange(n) > np.arange(n)[:, None]
        unit = 3 ** (n - 2 - np.arange(n) + later).clip(0) if ties == "digit" else 1
        tie = np.where((ties == "split") & later, axis[:, 2:3], axis[:, 1:2]) * unit
        above = axis[:, -2:-1] * unit * (2 if ties == "digit" else 1)
        mine, theirs = slots[:, None, :, None], slots[None, :, None, :]
        step = (tie[..., None, None] * (theirs == mine)
                + above[..., None, None] * (theirs > mine))
        # last rival first: on a box the full-size adds then run longer rows
        return (np.arange(slots.shape[1]) * axis[:, :1], step,
                np.where(theirs < mine, theirs, 0), [stack.ravel() for stack in stacks],
                [[j for j in reversed(range(n)) if j != i] for i in range(n)])

    def kernel(i: int, bids) -> np.ndarray:
        own, step, below, flat, rivals = tables()
        b = bids[i]
        index, rho = own[i, b], 0
        for j in rivals[i]:
            index = index + step[i, j][b, bids[j]]
            if gsp:
                rho = np.maximum(rho, below[i, j][b, bids[j]])
        if gsp:
            index += rho  # in place: a fresh full-size array costs page faults
        return flat[i].take(index)

    return kernel


def _prices(values: list[float], top: int, weight: float, rounding: str) -> np.ndarray:
    """A bidder's rounded price per argmax index: every slot below its top
    bid's slot ``top``; ``values`` is ``EffectiveBidIndex.values`` as a list."""
    return np.array([rounded_price(v, weight, rounding) for v in values[:top]], dtype=float)


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

    values = ebi.values.tolist()
    T = len(values)
    eq, gt, pm = {}, {}, {}
    for t in range(1, T):
        nodes.append(Node(SUM, in_arcs=[(agents[i][k], None) for i, k in by_value[t]],
                          label=f"eq@{values[t]:g}"))
        eq[t] = len(nodes) - 1
    for t in range(T - 1, 0, -1):
        arcs = [(eq[t + 1], None), (gt[t + 1], None)] if t + 1 < T else []
        nodes.append(Node(SUM, in_arcs=arcs, label=f"above@{values[t]:g}"))
        gt[t] = len(nodes) - 1
    if gsp:
        # slot t's price node reads every lower slot; each owns its slice
        price_arcs = [(eq[u], values[u]) for u in range(1, T)]
        for t in range(1, T):
            nodes.append(Node(ARGMAX, in_arcs=price_arcs[:t - 1], label=f"price@{values[t]:g}"))
            pm[t] = len(nodes) - 1

    eq_side = {}
    if lex:
        for t, pairs in by_value.items():
            for i in sorted({i for i, _ in pairs}):
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
        prices = _prices(values, width, float(w[i]), mech.rounding) if gsp else None
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

        tables[agents[i][0]] = {(): 0.0}
        for k in range(1, k_max + 1):
            node_id = agents[i][k]
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

    return ActionGraphGame(agents, nodes, tables, payoffs=_pair_kernel(
        ebi.index, stacks, gsp, "split" if lex else "count"))


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
    """Externality-setting encoding with one rank-digit node per rival.

    Against bidder i's slot t, rival j is one base-3 digit: 0 below, 1 tied,
    2 above.  A SUM node reads it directly, counting j's bids at a slot >= t
    once and those above t twice; every slot that splits j's bids the same
    way shares that node, across bidders too.  Each bid's table spans the
    digits of every rival, rank 0 most significant (then the price index
    under GSP), so every cell is reachable.

    Utility tables average over the tied-rival lottery: by default each tied
    rival ranks above independently with probability one half; the
    ``permutation`` option weighs subsets as a uniform random order of the
    tied block instead.  The bidder pays the argmax price only when every
    tied rival ranks above it (it sits at the bottom of its block).

    The tables are evaluated per bidder (see :func:`_gim_utilities`) into
    one array over (bid, digit code, price index); each bid's table is a
    view of its row, and the game's payoff kernel reads the array directly
    (see :func:`_pair_kernel`).
    """
    n, k_max = setting.n, mech.k_max
    w = apply_weight_rule(setting, mech)
    ebi = effective_bid_index(w, k_max, cap)
    gsp = mech.family == "gsp"
    values = ebi.values.tolist()
    T = len(values)

    est = n * k_max * 3 ** (n - 1) * max(T - 1, 1)
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
    owners: dict[int, list[int]] = {}
    for j in range(n):
        for arc, t in zip(bid_arcs[j], bid_slots[j]):
            by_slot.setdefault(t, []).append(arc)
            owners.setdefault(t, []).append(j)
    labels = [f"{v:g}" for v in values]

    present, pm = {}, {}
    for t in range(1, T):
        nodes.append(Node(OR, in_arcs=by_slot[t], label=f"present@{labels[t]}"))
        present[t] = len(nodes) - 1
    if gsp:
        price_arcs = [(present[u], values[u]) for u in range(1, T)]
        for t in range(1, T):
            nodes.append(Node(ARGMAX, in_arcs=price_arcs[:t - 1],
                              label=f"price@{labels[t]}"))
            pm[t] = len(nodes) - 1

    # rival j's rank digit against slot t (0 below, 1 tied, 2 above) is a
    # SUM over j's bids at a slot >= t plus those above t: its bids lo+1..hi
    # tie t and those above hi rank above, so every slot with the same (lo,
    # hi) run of j shares one node; j needs none against a slot only it bids
    rank: list[list[tuple[int, None] | None]] = []
    for j in range(n):
        shared: dict[tuple[int, int], tuple[int, None]] = {}
        row = [None] * T
        for t, who in owners.items():
            if who == [j]:
                continue
            lo = bisect.bisect_left(bid_slots[j], t)
            hi = bisect.bisect_right(bid_slots[j], t, lo)
            arc = shared.get((lo, hi))
            if arc is None:
                nodes.append(Node(SUM, in_arcs=bid_arcs[j][lo:] + bid_arcs[j][hi:],
                                  label=f"rank<-{j}@{lo}:{hi}"))
                arc = shared[lo, hi] = (len(nodes) - 1, None)
            row[t] = arc
        rank.append(row)

    tables: dict[int, object] = {}
    utils = []
    dims = (3,) * (n - 1)
    for i in range(n):
        prices = (_prices(values, int(ebi.index[i, -1]), float(w[i]), mech.rounding)
                  if gsp else None)
        util = _gim_utilities(setting, i, mech, prices)
        tables[agents[i][0]] = {(): 0.0}
        for k in range(1, k_max + 1):
            node_id = agents[i][k]
            t = bid_slots[i][k - 1]
            arcs = [rank[j][t] for j in range(n) if j != i]
            if gsp:
                arcs.append((pm[t], None))
                block = util[k, :, :t].reshape(dims + (t,))
            else:
                block = util[k, :, 0].reshape(dims)
            nodes[node_id].in_arcs = arcs
            tables[node_id] = ConfigTable(block.shape, (0,) * block.ndim, block)
        utils.append(util)

    return ActionGraphGame(agents, nodes, tables,
                           payoffs=_pair_kernel(ebi.index, utils, gsp, "digit"))


def _digit_cells(r_count: int) -> list[tuple[int, int]]:
    """(tied, above) rival masks of every digit code in base-3 order, rival
    rank 0 the most significant digit; mask bit r is rank r."""
    cells = [(0, 0)]
    for r in range(r_count):
        bit = 1 << r
        cells = [cell for tied, above in cells
                 for cell in ((tied, above), (tied | bit, above), (tied, above | bit))]
    return cells


def _popcounts(masks: list[int]) -> np.ndarray:
    return np.array([bin(mask).count("1") for mask in masks], dtype=np.int64)


@functools.cache
def _lottery_plan(r_count: int, lottery: str):
    """The random tie lottery's terms over every digit code, built once per
    shape.

    Choice bit b ranks the b-th tied rival above and the last choice puts
    the bidder at the bottom of its block, as in a scalar per-cell sum.
    Codes are ordered by tie-block size, largest first, so a cell's term s
    exists iff its row is in the first ``count`` rows of term s; ``rows``
    maps each base-3 code to its row.  Per term (the non-last ones in order,
    then the last one of every code in base-3 order) the flat arrays hold
    the full above-mask, how many rivals it holds and the probability.
    """
    cells = _digit_cells(r_count)
    terms = []
    for tied, above in cells:
        tied_ranks = [r for r in range(r_count) if tied >> r & 1]
        ell = len(tied_ranks)
        choices = range(1 << ell)
        subs = [sum(1 << r for b, r in enumerate(tied_ranks) if choice >> b & 1)
                for choice in choices]
        if lottery == "independent":
            probs = [1.0 / (1 << ell)] * len(choices)
        else:
            probs = [math.factorial(s) * math.factorial(ell - s) / math.factorial(ell + 1)
                     for s in (bin(choice).count("1") for choice in choices)]
        terms.append([(above | sub, prob) for sub, prob in zip(subs, probs)])
    order = sorted(range(len(cells)), key=lambda c: -len(terms[c]))
    full, prob, spans = [], [], []
    for s in range(len(terms[order[0]]) - 1):
        having = [c for c in order if len(terms[c]) - 1 > s]
        spans.append((len(full), len(having)))
        full += [terms[c][s][0] for c in having]
        prob += [terms[c][s][1] for c in having]
    full += [cell[-1][0] for cell in terms]
    prob += [cell[-1][1] for cell in terms]
    # the inverse of order by a scatter: np.argsort's kernels cost resident memory
    rows = np.empty(len(cells), dtype=np.int64)
    rows[order] = np.arange(len(cells))
    return np.array(full), _popcounts(full), np.array(prob), spans, rows


@functools.cache
def _lex_plan(r_count: int, lower: int):
    """The lexicographic term of every digit code: the rivals of smaller id
    (mask ``lower``) rank above a tie; the full above-mask, how many rivals
    it holds, and whether the bidder is at the bottom of its block."""
    cells = _digit_cells(r_count)
    full = [above | (tied & lower) for tied, above in cells]
    bottom = np.array([(tied & ~lower) == 0 for tied, _ in cells])
    return np.array(full), _popcounts(full), bottom


def _gim_utilities(setting: GimSetting, i: int, mech: MechanismSpec,
                   prices: np.ndarray | None) -> np.ndarray:
    """Expected utilities of bidder i over (bid, digit code, price index);
    zero at bid 0.

    A digit code puts rival rank 0 in its most significant base-3 digit (0
    below, 1 tied, 2 above).  ``prices`` holds the rounded price per argmax
    index (None under first price, where the bottom of a tied block pays its
    own bid and the last axis has length one).  Each lottery term of a cell
    is (prob * clicks) * (v - price): its weight is a scalar of the cell and
    its price factor a vector over the bids, or over the price indices for
    the bottom term.  The weights of every term of every cell come from one
    gather over a cached plan (:func:`_lottery_plan`, :func:`_lex_plan`);
    the terms of a cell are then summed in lottery order, one numpy step per
    term over the cells that have it, so each cell is the IEEE result a
    scalar per-cell evaluation gives, sign of zero included.
    """
    k_max = mech.k_max
    r_count = setting.n - 1
    q = float(setting.qualities[i])
    v = float(setting.values[i])
    f = setting.externality[i]
    own = v - np.arange(1, k_max + 1, dtype=float)
    paid = None if prices is None else v - prices
    width = 1 if prices is None else len(prices)
    util = np.empty((k_max + 1, 3 ** r_count, width))
    util[0] = 0.0

    if mech.tie_rule == "lexicographic":
        # deterministic rank: rivals 0..i-1 are ranks 0..i-1
        full, ahead, bottom = _lex_plan(r_count, (1 << i) - 1)
        weight = np.where(ahead < setting.m, q * f[full], 0.0)
        fixed = (weight[:, None] * own).T
        if paid is None:
            util[1:, :, 0] = fixed
        else:
            util[1:] = np.where(bottom[:, None], weight[:, None] * paid, fixed[..., None])
        return util

    full, ahead, prob, spans, rows = _lottery_plan(r_count, mech.gim_tie_lottery)
    weight = prob * np.where(ahead < setting.m, q * f[full], 0.0)
    terms = weight[:-len(rows), None] * own
    total = np.zeros((len(rows), k_max))
    for start, count in spans:
        total[:count] += terms[start:start + count]
    total = total[rows].T
    last = weight[-len(rows):]
    if paid is None:
        util[1:, :, 0] = total + last * own[:, None]
    else:
        util[1:] = total[..., None] + last[:, None] * paid
    return util


def encode(setting: Setting, mech: MechanismSpec, **kwargs) -> ActionGraphGame:
    """Dispatch on the setting shape and mechanism family."""
    if isinstance(setting, GimSetting):
        return encode_gim_gsp(setting, mech, **kwargs)
    if mech.family == "gfp":
        return encode_gfp(setting, mech, **kwargs)
    return encode_gsp(setting, mech, **kwargs)
