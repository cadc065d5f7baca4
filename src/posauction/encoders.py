"""Compile auction settings into action-graph games.

A game is one stack per bidder and the payoff kernel that reads it (see
:mod:`posauction.agg`).  Every encoder builds the same frame
(:class:`_Assembly`): per bidder and bid amount one action, and per
*effective bid* (bid times bidder weight) one slot, distinct (bidder, bid)
pairs with the same effective bid sharing it.  Under second price the
largest slot below a bid recovers the next lower effective bid, and each
bidder's stack holds its rounded price at every such slot on its last axis.

What each encoder adds is how a bid sees its rivals, and the stack layout
that goes with it.  The no-externality encoder counts the rivals that tie
with a bid and those that beat it.  The externality encoder gives each
rival one base-3 rank digit (0 below, 1 tied, 2 above), so its stacks span
only the reachable digit codes.  Each encoder hands the payoff kernel the
flat steps of its own layout.

Bids of zero are non-participation: their stack rows are zero, and they tie
with and beat no one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .agg import ActionGraphGame
from .mechanisms import MechanismSpec, apply_weight_rule
from .models import AuctionSetting, GimSetting, Setting

VALUE_CAP = 100_000  # distinct effective bids per game
ENTRY_CAP = 20_000_000  # estimated table entries per externality game


class EncodingSizeError(RuntimeError):
    """The encoded game would exceed a size cap."""


@dataclass(frozen=True)
class EffectiveBidIndex:
    """Sorted distinct effective bids with a (bidder, bid) -> slot map.

    ``values[0]`` is always 0.0 (the empty-bid sentinel); every positive
    (bidder, bid) pair maps to the slot of its exact product.
    """

    values: np.ndarray
    index: np.ndarray  # (n, k_max + 1) slots into values


def effective_bid_index(weights: np.ndarray, k_max: int) -> EffectiveBidIndex:
    products = [[k * w for k in range(k_max + 1)] for w in np.asarray(weights, float).tolist()]
    values = sorted(set().union(*products))  # numpy's sort kernels cost resident memory
    if len(values) > VALUE_CAP:
        raise EncodingSizeError(
            f"{len(values)} distinct effective bids exceed the cap of {VALUE_CAP}")
    slot = {v: t for t, v in enumerate(values)}
    return EffectiveBidIndex(np.array(values), np.array([[slot[v] for v in r] for r in products]))


def _pair_kernel(slots: np.ndarray, stacks: list[np.ndarray], gsp: bool,
                 tie: list[list[int]], above: list[list[int]]):
    """Bidder i's payoff is its C-ordered stack (own bid, rival axes, price)
    at own-bid offset + sum over rivals j of ``P_ij[b_i, b_j]`` (+ under GSP
    max over j of ``R_ij[b_i, b_j]``, j's slot where below i's, else 0).
    ``P_ij`` adds the flat step ``tie[i][j]`` where j ties i and
    ``above[i][j]`` where j beats it; the encoder reads both from its own
    stack layout.  Each table is (k+1)^2, so on an ``np.ix_`` box each term
    is 2-D; they are built on the first call.
    """
    @functools.cache
    def tables():  # all at once, over (i, j, b_i, b_j); the diagonal goes unused
        n = len(stacks)
        bid_step = np.array([s.strides[0] // s.itemsize for s in stacks])
        mine, theirs = slots[:, None, :, None], slots[None, :, None, :]
        step = (np.array(tie)[..., None, None] * (theirs == mine)
                + np.array(above)[..., None, None] * (theirs > mine))
        # last rival first: on a box the full-size adds then run longer rows
        return (np.arange(slots.shape[1]) * bid_step[:, None], step,
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


class _Assembly:
    """The frame of every encoded game: the weights, the effective-bid index
    and the action ids, numbered bidder-major."""

    def __init__(self, setting: Setting, mech: MechanismSpec):
        n, k_max = setting.n, mech.k_max
        self.mech = mech
        self.gsp = mech.family == "gsp"
        self.weights = apply_weight_rule(setting, mech)
        self.ebi = effective_bid_index(self.weights, k_max)
        self.agents = [list(range(i * (k_max + 1), (i + 1) * (k_max + 1))) for i in range(n)]

    def prices(self, i: int) -> np.ndarray:
        """Bidder i's rounded price per price index (slot below its top bid)."""
        return _rounded_prices(self.ebi.values[:self.ebi.index[i, -1]],
                               float(self.weights[i]), self.mech.rounding)

    def game(self, stacks: list[np.ndarray], tie: list[list[int]],
             above: list[list[int]], lo: int = 0) -> ActionGraphGame:
        return ActionGraphGame(
            self.agents, _pair_kernel(self.ebi.index, stacks, self.gsp, tie, above),
            stacks, self.ebi.index, self.gsp, lo)


def _rounded_prices(next_eff: np.ndarray, weight: float, rule: str) -> np.ndarray:
    """:func:`mechanisms.rounded_price` of every ``next_eff`` at one weight,
    cell for cell: the same start, stepped while the same product test holds."""
    guess = next_eff / weight
    if rule in ("up", "up_plus_one"):
        p, step, moving = np.maximum(np.floor(guess) - 1, 0), 1, lambda p: p * weight < next_eff
    elif rule == "down":
        p, step, moving = np.floor(guess) + 2, -1, lambda p: p * weight > next_eff
    else:  # nearest, half up: largest p with (2p - 1) * w <= 2 * next_eff
        p, step, moving = (np.floor(guess + 0.5) + 2, -1,
                           lambda p: (2 * p - 1) * weight > 2 * next_eff)
    while (cells := moving(p)).any():
        p[cells] += step
    return p + 1 if rule == "up_plus_one" else np.maximum(p, 0)


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


def _encode_no_ext(setting: AuctionSetting, mech: MechanismSpec) -> ActionGraphGame:
    n, k_max = setting.n, mech.k_max
    asm = _Assembly(setting, mech)
    gsp = asm.gsp
    lex = mech.tie_rule == "lexicographic"

    # per bidder one array over (bid, config axes..., price index): the
    # table of bid k is a view of row k, row 0 (no bid) stays zero, and the
    # price axis spans every slot below the bidder's top bid
    clicks_x, values_x = _extended_rows(setting)
    ks = np.arange(1, k_max + 1, dtype=float)[:, None, None]
    stacks = []
    for i in range(n):
        prices = asm.prices(i) if gsp else None
        width = len(prices) if gsp else 1
        if not lex:
            # axes (rival ties, rivals above)
            ell = np.arange(1, n + 1)[:, None]
            g = np.arange(n)[None, :]
            s1 = np.concatenate([[0.0], np.cumsum(clicks_x[i] * values_x[i])])
            s2 = np.concatenate([[0.0], np.cumsum(clicks_x[i])])
            stack = np.zeros((k_max + 1, n, n, width))
            if gsp:
                mid = (s1[g + ell - 1] - s1[g]) - ks * (s2[g + ell - 1] - s2[g])
                c_last = clicks_x[i][g + ell - 1]
                v_last = values_x[i][g + ell - 1]
                # in place: the same operations, no full-size temporaries
                np.add(mid[..., None], c_last[:, :, None] * (v_last[:, :, None] - prices),
                       out=stack[1:])
                stack[1:] /= ell[:, :, None]
            else:
                stack[1:, :, :, 0] = ((s1[g + ell] - s1[g]) - ks * (s2[g + ell] - s2[g])) / ell
        else:
            # axes (tied rivals with smaller id, with larger id, rivals
            # above): position is g + lo + 1 and only the block's bottom
            # bidder (no tied rival with larger id) pays rho
            lo = np.arange(n)[:, None]
            g = np.arange(n)[None, :]
            c_here = clicks_x[i][lo + g]  # at 0-based position lo + g
            v_here = values_x[i][lo + g]
            own = c_here * (v_here - ks)  # axes (bid, lo, g)
            stack = np.zeros((k_max + 1, n, n, n, width))
            stack[1:] = own[:, :, None, :, None]
            if gsp:
                stack[1:, :, 0] = c_here[:, :, None] * (v_here[:, :, None] - prices)
        stacks.append(stack)

    # a tie steps axis 1 (under lexicographic ties, axis 2 for a rival of
    # larger id); a rival above steps the axis before the price axis
    tie = [[s.strides[1 + (lex and j > i)] // s.itemsize for j in range(n)]
           for i, s in enumerate(stacks)]
    above = [[s.strides[-2] // s.itemsize] * n for s in stacks]
    # uniform ties count the bidder itself on the tie axis
    return asm.game(stacks, tie, above, lo=0 if lex else 1)


def encode_gfp(setting: AuctionSetting, mech: MechanismSpec) -> ActionGraphGame:
    """First-price encoding: winners pay their own bid."""
    if mech.family != "gfp":
        raise ValueError("encode_gfp requires a gfp mechanism")
    return _encode_no_ext(setting, mech)


def encode_gsp(setting: AuctionSetting, mech: MechanismSpec) -> ActionGraphGame:
    """Second-price encoding: the largest slot below a bid recovers the next
    lower effective bid, divided by the winner's weight and rounded."""
    if mech.family != "gsp":
        raise ValueError("encode_gsp requires a gsp mechanism")
    return _encode_no_ext(setting, mech)


def encode_gim_gsp(setting: GimSetting, mech: MechanismSpec) -> ActionGraphGame:
    """Externality-setting encoding with one rank digit per rival.

    Against bidder i's slot t, rival j is one base-3 digit: 0 below, 1 tied,
    2 above.  Each bidder's stack has one axis per rival digit, rank 0
    first, between the bid axis and the price index, so every cell of a
    bid's table is reachable.

    Utility tables average over the tied-rival lottery: by default each tied
    rival ranks above independently with probability one half; the
    ``permutation`` option weighs subsets as a uniform random order of the
    tied block instead.  The bidder pays the second price only when every
    tied rival ranks above it (it sits at the bottom of its block).

    The stacks are evaluated per bidder (see :func:`_gim_utilities`).
    """
    n, k_max = setting.n, mech.k_max
    asm = _Assembly(setting, mech)
    T = len(asm.ebi.values)

    est = n * k_max * 3 ** (n - 1) * max(T - 1, 1)
    if est > ENTRY_CAP:
        raise EncodingSizeError(
            f"estimated {est} table entries exceed the cap of {ENTRY_CAP}")

    shape = (k_max + 1,) + (3,) * (n - 1) + (-1,)
    stacks = [_gim_utilities(setting, i, mech, asm.prices(i) if asm.gsp else None).reshape(shape)
              for i in range(n)]
    # rival j of bidder i is digit rank j - (j > i), on axis 1 + that rank;
    # a tie is digit 1 there and ranking above is digit 2
    tie = [[s.strides[1 + j - (j > i)] // s.itemsize for j in range(n)]
           for i, s in enumerate(stacks)]
    return asm.game(stacks, tie, [[2 * step for step in row] for row in tie])


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
    below, 1 tied, 2 above).  ``prices`` holds the rounded price per price
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
        np.add(total[..., None], last[:, None] * paid, out=util[1:])
    return util


def encode(setting: Setting, mech: MechanismSpec) -> ActionGraphGame:
    """Dispatch on the setting shape and mechanism family."""
    if isinstance(setting, GimSetting):
        return encode_gim_gsp(setting, mech)
    if mech.family == "gfp":
        return encode_gfp(setting, mech)
    return encode_gsp(setting, mech)
