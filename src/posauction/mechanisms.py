"""Auction rules and the direct outcome simulator.

The simulator ranks bidders by effective bid, enumerates the tie-breaking
lottery, and prices per auction family from first principles.  It is the
ground-truth oracle that the action-graph encodings are checked against, so
it deliberately shares no evaluation code with that path (only the mechanism
definitions below).

The welfare optimizers and VCG find no-externality allocations with an
in-repo exact assignment solver, :func:`linear_sum_assignment`, which makes
the same choice as SciPy's among tied optimal assignments.  Externality
allocations come from one table per setting, ``GimSetting.orderings``: every
ordered subset of at most m bidders with each placed bidder's click rate,
enumerated once and read by :func:`max_welfare`, :func:`max_clicks` and
:func:`vcg` alike.

A bid of zero is a non-participation bid: the bidder receives no slot, pays
nothing, and does not influence anyone else's position or price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import AuctionSetting, GimSetting, Setting

FAMILIES = ("gfp", "gsp")
WEIGHT_RULES = ("unit", "quality", "cascade", "squashed")
TIE_RULES = ("uniform", "lexicographic")
ROUNDING_RULES = ("up", "down", "nearest", "up_plus_one")
TIE_LOTTERIES = ("independent", "permutation")


@dataclass(frozen=True)
class MechanismSpec:
    """One position-auction variant: family, weighting, ties, rounding, grid.

    ``k_max`` fixes the integer bid grid 0..k_max.  ``gim_tie_lottery``
    selects, for externality settings under random tie-breaking, between the
    independent coin-per-rival lottery (default) and a uniform random
    permutation of the tied block.
    """

    family: str = "gsp"
    weight_rule: str = "quality"
    squash: float = 1.0
    tie_rule: str = "uniform"
    rounding: str = "up"
    k_max: int = 30
    gim_tie_lottery: str = "independent"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown auction family {self.family!r}")
        if self.weight_rule not in WEIGHT_RULES:
            raise ValueError(f"unknown weight rule {self.weight_rule!r}")
        if self.tie_rule not in TIE_RULES:
            raise ValueError(f"unknown tie rule {self.tie_rule!r}")
        if self.rounding not in ROUNDING_RULES:
            raise ValueError(f"unknown rounding rule {self.rounding!r}")
        if self.gim_tie_lottery not in TIE_LOTTERIES:
            raise ValueError(f"unknown tie lottery {self.gim_tie_lottery!r}")
        if not 0.0 <= self.squash <= 1.0:
            raise ValueError("squash exponent must lie in [0, 1]")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")


def bidder_weights(setting: Setting, rule: str, squash: float = 1.0) -> np.ndarray:
    """Per-bidder ranking weights.

    unit -> 1, quality -> q, cascade -> q / (1 - continuation),
    squashed -> q ** squash.
    """
    n = setting.n
    if rule == "unit":
        return np.ones(n)
    if rule == "quality":
        return np.asarray(setting.qualities, dtype=float).copy()
    if rule == "squashed":
        return np.asarray(setting.qualities, dtype=float) ** squash
    if rule == "cascade":
        cont = getattr(setting, "continuation", None)
        if cont is None:
            raise ValueError("cascade weights need continuation probabilities")
        if np.any(cont >= 1.0):
            raise ValueError("cascade weights are undefined at continuation = 1")
        return np.asarray(setting.qualities, dtype=float) / (1.0 - cont)
    raise ValueError(f"unknown weight rule {rule!r}")


def apply_weight_rule(setting: Setting, mech: MechanismSpec) -> np.ndarray:
    return bidder_weights(setting, mech.weight_rule, mech.squash)


def rounded_price(next_eff: float, weight: float, rule: str) -> int:
    """Round ``next_eff / weight`` onto the bid grid.

    Comparisons are done on products (p * weight vs next_eff) so a price of
    the form (k * w) / w lands on k exactly, which keeps equal-weight
    mechanisms equivalent bit for bit.
    """
    if weight <= 0:
        raise ValueError("weight must be positive")
    if next_eff <= 0:
        return 1 if rule == "up_plus_one" else 0
    guess = next_eff / weight
    if rule in ("up", "up_plus_one"):
        p = max(0, math.floor(guess) - 1)
        while p * weight < next_eff:
            p += 1
        return p + 1 if rule == "up_plus_one" else p
    if rule == "down":
        p = math.floor(guess) + 2
        while p * weight > next_eff:
            p -= 1
        return max(p, 0)
    # nearest, half up: largest p with (2p - 1) * w <= 2 * next_eff
    p = math.floor(guess + 0.5) + 2
    while (2 * p - 1) * weight > 2 * next_eff:
        p -= 1
    return max(p, 0)


# --------------------------------------------------------------------------
# outcomes

@dataclass
class Outcome:
    """Realized (possibly randomized) result of one bid profile.

    ``slot_lottery[i]`` lists the marginal lottery faced by bidder i as
    ``(position, clicks, price_per_click, probability)`` tuples, position 0
    meaning unallocated.  ``welfare`` is the expected total true value of
    the allocation, whatever the payments.  VCG outcomes also fill
    ``payments_total`` so zero-click winners keep a well-defined payment.
    """

    slot_lottery: list[list[tuple[int, float, float, float]]]
    expected_utility: np.ndarray
    revenue: float
    expected_clicks: float
    welfare: float
    payments_total: np.ndarray | None = None


def _finish_outcome(setting: Setting, lottery, payments_total=None) -> Outcome:
    n = setting.n
    utility = np.zeros(n)
    revenue = 0.0
    clicks_total = 0.0
    welfare = 0.0
    values = setting.values.tolist()
    per_slot = isinstance(setting, AuctionSetting)
    for i in range(n):
        gross = 0.0
        paid = 0.0
        for pos, clicks, price, prob in lottery[i]:
            value = prob * clicks * (0.0 if pos < 1 else
                                     values[i][pos - 1] if per_slot else values[i])
            gross += value
            welfare += value
            paid += prob * clicks * price
            clicks_total += prob * clicks
        if payments_total is not None:
            paid = float(payments_total[i])  # exact totals for VCG
        utility[i] = gross - paid
        revenue += paid
    return Outcome(lottery, utility, float(revenue), float(clicks_total), welfare,
                   payments_total=payments_total)


def _tie_blocks(eff: np.ndarray, bids) -> list[list[int]]:
    """Participating bidders grouped by exact effective bid, highest first;
    blocks are ordered by bidder index internally."""
    live = [i for i in range(len(eff)) if bids[i] > 0]
    by_value: dict[float, list[int]] = {}
    for i in live:
        by_value.setdefault(float(eff[i]), []).append(i)
    return [sorted(by_value[v]) for v in sorted(by_value, reverse=True)]


def _clicks_no_ext(setting: AuctionSetting, i: int, pos: int) -> float:
    if pos < 1 or pos > setting.n:
        return 0.0
    return float(setting.clicks[i, pos - 1])


def _subset_lottery(rivals: list[int], model: str):
    """Yield (above_subset, probability) over the tied rivals of one bidder."""
    ell = len(rivals)
    if model == "independent":
        p = 1.0 / (1 << ell)
        for r in range(1 << ell):
            yield [rivals[b] for b in range(ell) if r >> b & 1], p
    else:  # uniform random permutation of the tied block
        for r in range(1 << ell):
            subset = [rivals[b] for b in range(ell) if r >> b & 1]
            s = len(subset)
            prob = (math.factorial(s) * math.factorial(ell - s)
                    / math.factorial(ell + 1))
            yield subset, prob


def simulate_outcome(setting: Setting, mech: MechanismSpec, bids) -> Outcome:
    """Run the auction directly on a bid profile.

    Prices: gfp charges each winner their own bid; gsp charges the next
    lower effective bid divided by the winner's weight, rounded per the
    mechanism's rule, except that bidders tied above the bottom of their
    block pay their own bid.  Expectations are taken over the tie lottery.
    """
    bids = [int(b) for b in bids]
    if any(b < 0 or b > mech.k_max for b in bids):
        raise ValueError("bid outside the grid")
    w = apply_weight_rule(setting, mech)
    eff = np.array([b * wi for b, wi in zip(bids, w)])
    blocks = _tie_blocks(eff, bids)

    n = setting.n
    lottery: list[list[tuple[int, float, float, float]]] = [[] for _ in range(n)]
    for i in range(n):
        if bids[i] == 0:
            lottery[i].append((0, 0.0, 0.0, 1.0))

    if isinstance(setting, AuctionSetting):
        g = 0
        for b, block in enumerate(blocks):
            ell = len(block)
            rho = eff[blocks[b + 1][0]] if b + 1 < len(blocks) else 0.0
            for rank, i in enumerate(block, start=1):
                bottom_price = (bids[i] if mech.family == "gfp"
                                else rounded_price(rho, w[i], mech.rounding))
                if mech.tie_rule == "lexicographic":
                    pos = g + rank
                    price = bottom_price if rank == ell else float(bids[i])
                    lottery[i].append((pos, _clicks_no_ext(setting, i, pos), float(price), 1.0))
                else:
                    for t in range(1, ell + 1):
                        pos = g + t
                        price = bottom_price if t == ell else float(bids[i])
                        lottery[i].append((pos, _clicks_no_ext(setting, i, pos),
                                           float(price), 1.0 / ell))
            g += ell
        return _finish_outcome(setting, lottery)

    # externality setting: clicks scale with the set of bidders shown above
    g_set: list[int] = []
    g = 0
    for b, block in enumerate(blocks):
        ell = len(block)
        rho = eff[blocks[b + 1][0]] if b + 1 < len(blocks) else 0.0
        for i in block:
            rivals = [j for j in block if j != i]
            bottom_price = (bids[i] if mech.family == "gfp"
                            else rounded_price(rho, w[i], mech.rounding))
            if mech.tie_rule == "lexicographic":
                subsets = [([j for j in rivals if j < i], 1.0)]
            else:
                subsets = _subset_lottery(rivals, mech.gim_tie_lottery)
            for above_subset, prob in subsets:
                above = g_set + above_subset
                pos = len(above) + 1
                clicks = (setting.qualities[i] * setting.externality_factor(i, above)
                          if pos <= setting.m else 0.0)
                price = (bottom_price if len(above_subset) == len(rivals)
                         else float(bids[i]))
                lottery[i].append((pos, float(clicks), float(price), prob))
        g_set = g_set + block
        g += ell
    return _finish_outcome(setting, lottery)


def outcome_groups(setting: Setting, mech: MechanismSpec, profiles
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Group bid profiles by the outcome :func:`simulate_outcome` gives them.

    The key of a profile is what the simulator reads: the ordered tie blocks
    of participating effective bids, every participant's bottom price, and
    every tied bidder's own bid (its price above the bottom of its block).
    Profiles with one key get equal outcomes, field for field.  Returns
    ``(first, group)``: the index of one representative profile per key, and
    the group index of every profile.
    """
    n = setting.n
    bids = np.asarray(profiles, dtype=np.int64).reshape(-1, n)
    if bids.size and (bids.min() < 0 or bids.max() > mech.k_max):
        raise ValueError("bid outside the grid")
    w = apply_weight_rule(setting, mech)
    eff = bids * w
    live = bids > 0
    # [profile, i, j]: j takes part with an effective bid above / equal to i's
    above = live[:, None, :] & (eff[:, None, :] > eff[:, :, None])
    level = live[:, None, :] & (eff[:, None, :] == eff[:, :, None])
    # a block counts once toward the ranks below it, at its lowest-indexed bidder
    head = live & ~(level & np.tri(n, k=-1, dtype=bool)).any(axis=2)
    rank = np.where(live, (above & head[:, None, :]).sum(axis=2), -1)
    tied = level.sum(axis=2) > 1
    if mech.family == "gfp":
        bottom = bids
    else:
        # the next lower block's effective bid, 0 below the last block
        below = live[:, None, :] & ~above & ~level
        rho = np.where(below, eff[:, None, :], 0.0).max(axis=2)[live]
        values, value_of = np.unique(rho, return_inverse=True)
        pairs, pair_of = np.unique(value_of * n + np.nonzero(live)[1], return_inverse=True)
        prices = [rounded_price(values[p // n], w[p % n], mech.rounding)
                  for p in pairs.tolist()]
        bottom = np.zeros_like(bids)
        bottom[live] = np.array(prices, dtype=np.int64)[pair_of]
    key = np.concatenate([rank, bottom, np.where(tied, bids, 0)], axis=1)
    # one opaque item per row: a 1-D unique sorts these much faster than
    # np.unique(axis=0) sorts the rows field by field
    rows = key.view(np.dtype((np.void, key.itemsize * 3 * n))).ravel()
    _, first, group = np.unique(rows, return_index=True, return_inverse=True)
    return first, group


# --------------------------------------------------------------------------
# welfare and click optimization

def linear_sum_assignment(cost) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost assignment of every row of ``cost`` to a distinct column.

    Shortest augmenting paths with dual updates (Crouse, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016), the algorithm of
    ``scipy.optimize.linear_sum_assignment``, followed step for step so that
    among tied optimal assignments it makes SciPy's choice: the remaining
    columns start in reverse order and a chosen one is swapped with the last,
    reduced costs are summed left to right, and of the columns tied at the
    lowest path cost the last unassigned one found wins, else the first.
    Takes a finite square or wide matrix (rows <= columns) and returns
    ``(rows, cols)`` as integer index arrays, the rows in order.
    """
    cost = np.asarray(cost, dtype=float)
    nr, nc = cost.shape
    if nr > nc:
        raise ValueError("cost matrix has more rows than columns")
    c = cost.tolist()
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    start = list(range(nc - 1, -1, -1))
    for cur in range(nr):
        spc = [inf] * nc
        remaining = start[:]
        rows_seen = []
        cols_seen = []
        min_val = 0.0
        i = cur
        while True:
            rows_seen.append(i)
            row = c[i]
            ui = u[i]
            index = -1
            lowest = inf
            it = 0
            for j in remaining:
                r = min_val + row[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] < 0):
                    lowest = s
                    index = it
                it += 1
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            i = row4col[j]
            if i < 0:
                break
        sink = j
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.arange(nr), np.array(col4row, dtype=np.intp)


def _assign(gain: np.ndarray) -> tuple[np.ndarray, float]:
    """Each row's column in an assignment of largest total ``gain``, and
    that total."""
    row, col = linear_sum_assignment(-gain)
    return col, float(gain[row, col].sum())


def _best_ordering(setting: GimSetting, values) -> tuple[np.ndarray, int]:
    """Every ordering's total value under ``values``, and the first one that
    beats every earlier one by more than 1e-15 (row 0, the empty ordering,
    if none does)."""
    welfare = (setting.orderings[1] * values).sum(axis=1)
    best, best_w = 0, 0.0
    for row, wsum in enumerate(welfare.tolist()):
        if wsum > best_w + 1e-15:
            best, best_w = row, wsum
    return welfare, best


def max_welfare(setting: Setting, values=None):
    """Best achievable total value.

    Returns (allocation, welfare): for no-externality settings the
    allocation is a bidder -> position dict from an exact assignment
    optimization; for externality settings it is the best ordered subset of
    at most m bidders, read off the setting's ordering table.
    """
    v = setting.values if values is None else values
    if isinstance(setting, AuctionSetting):
        col, total = _assign(setting.clicks * v)
        return {i: int(j) + 1 for i, j in enumerate(col)}, total
    welfare, best = _best_ordering(setting, v)
    return setting.orderings[0][best], float(welfare[best])


def max_clicks(setting: Setting) -> float:
    """Largest achievable expected click count (same search as max_welfare
    with a click objective).  An ordering's clicks are summed in its own
    order, top slot first."""
    if isinstance(setting, AuctionSetting):
        return _assign(setting.clicks)[1]
    orders, clicks, _ = setting.orderings
    best = 0.0
    for ordering, row in zip(orders, clicks.tolist()):
        total = 0.0
        for i in ordering:
            total += row[i]
        best = max(best, total)
    return best


# --------------------------------------------------------------------------
# VCG benchmarks

def _grid_values(setting: Setting, k_max: int) -> np.ndarray:
    """Nearest-grid (half-up) reports of the true values."""
    return np.clip(np.floor(np.asarray(setting.values) + 0.5), 0.0, float(k_max))


def vcg(setting: Setting, discretize: int | None = None) -> Outcome:
    """Truthful VCG outcome with Clarke-pivot payments.

    With ``discretize`` set, every scalar value is first replaced by the
    nearest point of the 0..discretize grid and allocation and payments run
    on those reports; utilities are always computed against true values.
    """
    reports = setting.values if discretize is None else _grid_values(setting, discretize)
    n = setting.n
    if isinstance(setting, AuctionSetting):
        gain = setting.clicks * reports
        col, _ = _assign(gain)
        positions = {i: int(j) + 1 for i, j in enumerate(col)}
        others_best = {i: _assign(np.delete(gain, i, axis=0))[1] for i in positions}
        clicks, contrib = setting.clicks[range(n), col], gain[range(n), col]
    else:
        orders, table, placed = setting.orderings
        welfare, best = _best_ordering(setting, reports)
        positions = {i: pos + 1 for pos, i in enumerate(orders[best])}
        others_best = {i: float(welfare.max(initial=0.0, where=~placed[:, i]))
                       for i in positions}
        clicks = table[best]
        contrib = clicks * reports
    total_reported = float(contrib.sum())

    payments = np.zeros(n)
    for i in positions:
        payments[i] = others_best[i] - (total_reported - contrib[i])

    lottery = [[(positions[i], float(clicks[i]),
                 float(payments[i] / clicks[i]) if clicks[i] > 0 else 0.0, 1.0)]
               if i in positions else [(0, 0.0, 0.0, 1.0)] for i in range(n)]
    return _finish_outcome(setting, lottery, payments_total=payments)
