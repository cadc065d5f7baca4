"""Dominated-bid pruning and exact pure-equilibrium enumeration.

The scan walks the pruned profile lattice and keeps a profile iff no bidder
has a unilateral deviation improving its payoff by more than 1e-9.  It
reads payoffs only through :meth:`ActionGraphGame.payoffs`, many profiles
per call; the encoders answer that from the tables they built, in their
own layout, so the search knows nothing of how a game is encoded.
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

    Deterministic: profiles come out in lexicographic bid order.  If the
    lattice exceeds ``budget`` profiles, only the first ``budget`` of them
    (in that order) are checked, each against every allowed deviation, and
    the set is reported with ``solved=False``.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if allowed is None:
        allowed = [list(range(len(a))) for a in game.agents]
    sizes = [len(a) for a in allowed]
    if any(s == 0 for s in sizes):
        raise ValueError("every bidder needs at least one allowed bid")
    total = math.prod(sizes)
    if total <= budget:
        return EquilibriumSet(game.name, _scan(game, allowed), True, scanned=total)
    return EquilibriumSet(game.name, _scan_prefix(game, allowed, budget), False,
                          scanned=budget)


def _chunks(allowed: list[list[int]], stop: int, size: int = _CHUNK):
    """Consecutive lexicographic profile blocks below ``stop``: the allowed
    indices and the bids, both (agents x profiles)."""
    sizes = [len(a) for a in allowed]
    bid_of = [np.asarray(a, dtype=np.int64) for a in allowed]
    for start in range(0, stop, size):
        idx = np.array(np.unravel_index(np.arange(start, min(start + size, stop)), sizes))
        yield idx, np.array([b[row] for b, row in zip(bid_of, idx)])


def _scan(game: ActionGraphGame, allowed: list[list[int]]) -> list[tuple[int, ...]]:
    """Full-lattice scan in two passes over profile chunks: the first
    collects each bidder's best payoff against every rival profile, the
    second keeps profiles where everybody best-responds."""
    n = game.num_agents
    sizes = np.array([len(a) for a in allowed])
    total = int(np.prod(sizes))

    # strides of the rival-profile key for each bidder (own axis removed)
    rival_strides = []
    for i in range(n):
        stride = np.ones(n, dtype=np.int64)
        acc = 1
        for j in range(n - 1, -1, -1):
            if j == i:
                stride[j] = 0
                continue
            stride[j] = acc
            acc *= sizes[j]
        rival_strides.append(stride)
    best = [np.full(total // sizes[i], -np.inf) for i in range(n)]

    for idx, bids in _chunks(allowed, total):
        for i in range(n):
            key = rival_strides[i] @ idx
            np.maximum.at(best[i], key, game.payoffs(i, bids))

    hits = []
    for idx, bids in _chunks(allowed, total):
        mask = np.ones(idx.shape[1], dtype=bool)
        for i in range(n):
            key = rival_strides[i] @ idx
            mask &= game.payoffs(i, bids) >= best[i][key] - BR_TOL
        hits += map(tuple, bids[:, mask].T.tolist())
    return hits


def _scan_prefix(game: ActionGraphGame, allowed: list[list[int]],
                 budget: int) -> list[tuple[int, ...]]:
    """The equilibria among the first ``budget`` lexicographic profiles,
    each checked against every allowed deviation of every bidder."""
    widest = max(len(a) for a in allowed)
    hits = []
    for idx, bids in _chunks(allowed, budget, max(_CHUNK // widest, 1)):
        cols = idx.shape[1]
        mask = np.ones(cols, dtype=bool)
        for i, own in enumerate(allowed):
            trial = np.repeat(bids, len(own), axis=1)
            trial[i] = np.tile(own, cols)
            grid = game.payoffs(i, trial).reshape(cols, len(own))
            mask &= grid[np.arange(cols), idx[i]] >= grid.max(axis=1) - BR_TOL
        hits += map(tuple, bids[:, mask].T.tolist())
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
