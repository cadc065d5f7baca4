"""Dominated-bid pruning and exact pure-equilibrium enumeration.

One scan walks the pruned profile lattice in lexicographic order and keeps
a profile iff no bidder has a unilateral deviation improving its payoff by
more than 1e-9.  It reads payoffs only through ``ActionGraphGame.payoffs``,
many profiles per call; the encoders answer that from the tables they
built, in their own layout, so the search knows nothing of how a game is
encoded.  A profile budget cuts the scan at a prefix of the lattice, so an
unsolved game costs no more per profile than a solved one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .agg import ActionGraphGame
from .mechanisms import MechanismSpec, outcome_groups, simulate_outcome
from .metrics import total_envy
from .models import AuctionSetting, Setting

BR_TOL = 1e-9
DEFAULT_BUDGET = 50_000_000
_CHUNK = 1 << 19


def prune_dominated(setting: Setting, mech: MechanismSpec, k_max: int | None = None
                    ) -> list[list[int]]:
    """Per-bidder allowed bids: 0 up to the ceiling of the bidder's largest
    per-click value.  Bidding above that ceiling is weakly dominated; nothing
    else is removed, so the equilibrium set of the pruned game is reported
    in full.
    """
    k_max = mech.k_max if k_max is None else k_max
    values = np.asarray(setting.values)
    if isinstance(setting, AuctionSetting):
        vbar = values.max(axis=1)
    else:
        vbar = values
    return [list(range(0, min(k_max, math.ceil(v)) + 1)) for v in vbar]


@dataclass
class EquilibriumSet:
    """All pure equilibria of one (pruned) game.

    ``solved`` is False when the scan hit its profile budget, in which case
    ``profiles`` holds only the equilibria found before the cutoff and
    downstream statistics substitute metric bounds.  ``metrics`` is filled
    by the experiment pipeline, one value list per metric aligned with
    ``profiles``.
    """

    game_id: str
    profiles: list[tuple[int, ...]]
    solved: bool
    scanned: int = 0
    metrics: dict[str, list[float]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.profiles)


def enumerate_psne(game: ActionGraphGame, allowed: list[list[int]] | None = None,
                   budget: int = DEFAULT_BUDGET) -> EquilibriumSet:
    """Enumerate every pure Nash equilibrium over the allowed bid sets.

    Deterministic: profiles come out in lexicographic bid order.  One scan
    covers the first ``min(lattice, budget)`` profiles in that order; a
    lattice over ``budget`` is reported with ``solved=False`` and holds the
    equilibria among those profiles.  The work is that of a full scan of
    the prefix plus at most one block of ``_CHUNK`` profiles.
    """
    if game.payoffs is None:
        raise ValueError("game has no payoff kernel; build it with `encode`")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if allowed is None:
        allowed = [list(range(len(a))) for a in game.agents]
    sizes = [len(a) for a in allowed]
    if any(s == 0 for s in sizes):
        raise ValueError("every bidder needs at least one allowed bid")
    total = math.prod(sizes)
    stop = min(total, budget)
    return EquilibriumSet(game.name, _scan(game, allowed, stop), total <= budget,
                          scanned=stop)


def _scan(game: ActionGraphGame, allowed: list[list[int]],
          stop: int) -> list[tuple[int, ...]]:
    """The equilibria among the first ``stop`` lexicographic profiles.

    Bidder i's axis has stride ``prod(sizes[i+1:])``, so a block of
    ``prod(sizes[i:])`` consecutive profiles holds each of its rival
    profiles with every own bid.  Chunks hold whole blocks of the first
    bidder j whose block fits in ``_CHUNK``; for every bidder from j on, the
    max over its axis is its exact best payoff.  Bidders before j check the
    survivors against every allowed deviation.
    """
    sizes = [len(a) for a in allowed]
    block = [math.prod(sizes[i:]) for i in range(len(sizes) + 1)]
    j = next(i for i, b in enumerate(block) if b <= _CHUNK)
    step = block[j] * (_CHUNK // block[j])
    end = -(-stop // block[j]) * block[j]  # the cut rounded up to a whole block
    bid_of = [np.asarray(a, dtype=np.int64) for a in allowed]
    hits = []
    for start in range(0, end, step):
        flat = np.arange(start, min(start + step, end))
        bids = np.array([b[row] for b, row in zip(bid_of, np.unravel_index(flat, sizes))])
        mask = flat < stop
        for i in range(j, len(sizes)):
            pay = game.payoffs(i, bids).reshape(-1, sizes[i], block[i + 1])
            mask &= (pay >= pay.max(axis=1, keepdims=True) - BR_TOL).ravel()
        bids = bids[:, mask]
        for i in range(j):
            trial = bids.copy()
            best = np.full(bids.shape[1], -np.inf)
            for bid in allowed[i]:
                trial[i] = bid
                best = np.maximum(best, game.payoffs(i, trial))
            bids = bids[:, game.payoffs(i, bids) >= best - BR_TOL]
        hits += map(tuple, bids.T.tolist())
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
