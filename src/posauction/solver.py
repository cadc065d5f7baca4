"""Dominated-bid pruning and exact pure-equilibrium enumeration.

One scan walks the pruned profile lattice in lexicographic order and keeps
a profile iff no bidder has a unilateral deviation improving its payoff by
more than 1e-9.  It reads payoffs only through ``ActionGraphGame.payoffs``,
over ``np.ix_`` boxes of bid runs; the encoders answer from the tables they
built, in their own layout, so the search knows nothing of how a game is
encoded.  A profile budget cuts the scan at a prefix of the lattice, so an
unsolved game costs no more per profile than a solved one.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .agg import ActionGraphGame
from .mechanisms import MechanismSpec, outcome_groups, simulate_outcome
from .metrics import total_envy
from .models import AuctionSetting, Setting

BR_TOL = 1e-9
DEFAULT_BUDGET = 50_000_000
_CHUNK = 1 << 19


def prune_dominated(setting: Setting, mech: MechanismSpec) -> list[list[int]]:
    """Per-bidder allowed bids: 0 up to the ceiling of the bidder's largest
    per-click value.  Bidding above that ceiling is weakly dominated; nothing
    else is removed, so the equilibrium set of the pruned game is reported
    in full.
    """
    values = np.asarray(setting.values)
    if isinstance(setting, AuctionSetting):
        vbar = values.max(axis=1)
    else:
        vbar = values
    return [list(range(0, min(mech.k_max, math.ceil(v)) + 1)) for v in vbar]


@dataclass
class EquilibriumSet:
    """All pure equilibria of one (pruned) game.

    ``solved`` is False when the scan hit its profile budget, in which case
    ``profiles`` holds only the equilibria found before the cutoff and
    downstream statistics substitute metric bounds.
    """

    profiles: list[tuple[int, ...]]
    solved: bool
    scanned: int = 0

    def __len__(self) -> int:
        return len(self.profiles)


def enumerate_psne(game: ActionGraphGame, allowed: list[list[int]] | None = None,
                   budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Enumerate every pure Nash equilibrium over the allowed bid sets.

    ``allowed`` holds one strictly increasing list of bids per bidder, in
    its action range (default: all).  Deterministic: profiles come out in
    lexicographic bid order.  One scan covers the first ``min(lattice,
    budget)`` profiles in that order; a lattice over ``budget`` is reported
    with ``solved=False`` and holds the equilibria among those profiles.
    The work is a full scan of the prefix plus at most one ``_CHUNK`` box.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if allowed is None:
        allowed = [list(range(len(a))) for a in game.agents]
    if len(allowed) != game.num_agents:
        raise ValueError(f"allowed needs one bid list per bidder ({game.num_agents})")
    for i, bids in enumerate(allowed):
        top = len(game.agents[i]) - 1
        if not len(bids) or list(bids) != sorted(set(range(top + 1)).intersection(bids)):
            raise ValueError(f"bidder {i}: allowed bids must be strictly increasing "
                             f"integers in 0..{top}, at least one, got {list(bids)}")
    total = math.prod(len(a) for a in allowed)
    stop = min(total, budget)
    return EquilibriumSet(_scan(game, allowed, stop), total <= budget, scanned=stop)


def _scan(game: ActionGraphGame, allowed: list[list[int]],
          stop: int) -> list[tuple[int, ...]]:
    """The equilibria among the first ``stop`` lexicographic profiles.

    j is the first bidder (at least 1) whose block ``prod(sizes[j:])`` fits
    in ``_CHUNK``.  Each chunk is an ``np.ix_`` box of at most ``_CHUNK``
    consecutive profiles: bidders before j-1 fixed, bidder j-1 over a run of
    its bids, the rest over all of theirs.  A bidder whose axis spans its
    set gets its exact best payoff as the max over that axis; the others
    check the survivors against every allowed deviation in one call.
    """
    n, sizes = len(allowed), [len(a) for a in allowed]
    block = [math.prod(sizes[i:]) for i in range(n + 1)]
    j = max(1, next(i for i, b in enumerate(block) if b <= _CHUNK))
    run = _CHUNK // block[j]
    bid_of = [np.asarray(a, dtype=np.int64) for a in allowed]
    hits = []
    for p, prefix in enumerate(itertools.product(*map(range, sizes[:j - 1]))):
        for first in range(0, sizes[j - 1], run):
            start = (p * sizes[j - 1] + first) * block[j]
            if start >= stop:
                return hits
            axes = ([b[k:k + 1] for b, k in zip(bid_of, prefix)]
                    + [bid_of[j - 1][first:first + run]] + bid_of[j:])
            mask = np.ones([len(ax) for ax in axes], dtype=bool)
            mask.reshape(-1)[stop - start:] = False
            for i in (i for i in range(n) if len(axes[i]) == sizes[i]):
                pay = game.payoffs(i, np.ix_(*axes))
                # pay.max(axis=i) is several times slower on a short inner axis
                best = functools.reduce(np.maximum, np.moveaxis(pay, i, 0))
                mask &= pay >= np.expand_dims(best, i) - BR_TOL
            # on a sparse mask np.nonzero costs far more than this
            at = np.unravel_index(np.flatnonzero(mask), mask.shape)
            surv = [ax[k] for ax, k in zip(axes, at)]
            for i in (i for i in range(n) if len(axes[i]) < sizes[i]):
                pay = game.payoffs(i, surv[:i] + [bid_of[i][:, None]] + surv[i + 1:])
                keep = game.payoffs(i, surv) >= pay.max(axis=0) - BR_TOL
                surv = [s[keep] for s in surv]
            hits += zip(*(s.tolist() for s in surv))
    return hits


def select(values: list[float], criterion: str) -> float:
    """min / median / max over per-equilibrium metric values; the median is
    the lower median (index floor((t-1)/2) of the ascending sort)."""
    if not values:
        raise ValueError("cannot select from an empty value list")
    if criterion == "min":
        return min(values)
    if criterion == "max":
        return max(values)
    if criterion == "median":
        ordered = sorted(values)
        return ordered[(len(ordered) - 1) // 2]
    raise ValueError(f"unknown selection criterion {criterion!r}")


def envy_free_filter(profiles, setting: Setting, mech: MechanismSpec):
    """Keep the equilibria whose total (normalized) envy is zero, in their
    order; envy is computed once per distinct outcome."""
    profiles = [tuple(p) for p in profiles]
    first, group = outcome_groups(setting, mech, profiles)
    free = []
    for f in first:
        envy = total_envy(simulate_outcome(setting, mech, list(profiles[f])), setting)
        free.append(envy is not None and envy <= 1e-9)
    return [p for p, g in zip(profiles, group) if free[g]]
