"""Dominated-bid pruning and exact pure-equilibrium enumeration.

One scan walks the pruned profile lattice in lexicographic order and keeps
a profile iff no bidder has a unilateral deviation improving its payoff by
more than 1e-9.  It reads payoffs only through ``ActionGraphGame.payoffs``,
over boxes of bid runs, into one payoff buffer it keeps; the encoders answer
from the tables they built, in their own layout, so the search knows nothing
of how a game is encoded.  Each box narrows as its bidders are checked: the
bids of a checked bidder that no surviving profile holds leave it, so the
bidders checked later read fewer profiles (conditional pruning, as in
Porter, Nudelman & Shoham, GEB 2008, here exact).  A profile budget cuts the
scan at a prefix of the lattice, so an unsolved game costs no more per
profile than a solved one.
"""

from __future__ import annotations

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

    ``bids`` holds one equilibrium per row, in lexicographic order;
    ``profiles`` lists the same equilibria as tuples.  ``solved`` is False
    when the scan hit its profile budget, in which case only the equilibria
    found before the cutoff are held and downstream statistics substitute
    metric bounds.
    """

    bids: np.ndarray  # (equilibria, bidders) integer bids
    solved: bool
    scanned: int = 0

    @property
    def profiles(self) -> list[tuple[int, ...]]:
        return list(map(tuple, self.bids.tolist()))

    def __len__(self) -> int:
        return len(self.bids)


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


def _scan(game: ActionGraphGame, allowed: list[list[int]], stop: int) -> np.ndarray:
    """The equilibria among the first ``stop`` lexicographic profiles, one
    per row of an (equilibria, bidders) array.

    j is the first bidder (at least 1) whose block ``prod(sizes[j:])`` fits
    in ``_CHUNK``.  Each chunk is a box of at most ``_CHUNK`` consecutive
    profiles: bidders before j-1 fixed, bidder j-1 over a run of its bids,
    the rest over all of theirs.  A bidder whose axis spans its set gets its
    exact best payoff as the max over that axis.  After each such check but
    the last, the axes of the bidders already checked drop the bids that no
    surviving profile holds: a bidder checked later still spans its set, so
    the box narrows without losing a deviation, and it keeps its order.  The
    other bidders check the survivors against every allowed deviation.  The
    payoff and comparison buffers are kept across bidders and chunks.
    """
    n, sizes = len(allowed), [len(a) for a in allowed]
    block = [math.prod(sizes[i:]) for i in range(n + 1)]
    j = max(1, next(i for i, b in enumerate(block) if b <= _CHUNK))
    run = _CHUNK // block[j]
    bid_of = [np.asarray(a, dtype=np.intp) for a in allowed]
    width = min(run, sizes[j - 1]) * block[j]  # the largest box
    buffers = np.empty(width), np.empty(width, dtype=bool)
    hits = [np.empty((0, n), dtype=np.intp)]
    for p, prefix in enumerate(itertools.product(*map(range, sizes[:j - 1]))):
        for first in range(0, sizes[j - 1], run):
            start = (p * sizes[j - 1] + first) * block[j]
            if start >= stop:
                return np.concatenate(hits)
            axes = ([b[k:k + 1] for b, k in zip(bid_of, prefix)]
                    + [bid_of[j - 1][first:first + run]] + bid_of[j:])
            hits.append(_chunk(game, bid_of, axes, stop - start, buffers))
    return np.concatenate(hits)


def _chunk(game: ActionGraphGame, bid_of: list[np.ndarray], axes: list[np.ndarray],
           stop: int, buffers: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The equilibria among the first ``stop`` profiles of the box ``axes``."""
    n = len(axes)
    mask = np.ones([len(ax) for ax in axes], dtype=bool)
    mask.reshape(-1)[stop:] = False
    views = [[-1 if d == e else 1 for e in range(n)] for d in range(n)]
    box = [ax.reshape(view) for ax, view in zip(axes, views)]
    full = [i for i in range(n) if len(axes[i]) == len(bid_of[i])]
    for c, i in enumerate(full):
        size = mask.size
        pay = game.payoffs(i, box, out=buffers[0][:size].reshape(mask.shape))
        # (before i, i, after i): the max over the middle axis, one slice at
        # a time, is the best payoff against each rival profile;
        # pay.max(axis=i) is several times slower on a short inner axis
        pay = pay.reshape(math.prod(mask.shape[:i]), mask.shape[i], -1)
        best = pay[:, :1].copy()
        for k in range(1, pay.shape[1]):
            np.maximum(best, pay[:, k:k + 1], out=best)
        best -= BR_TOL
        ok = np.greater_equal(pay, best, out=buffers[1][:size].reshape(pay.shape))
        mask &= ok.reshape(mask.shape)
        if c + 1 == len(full):
            break
        # the bids of each checked bidder that some survivor holds; dropping
        # whole empty slices of one axis leaves the other axes' counts alone
        keeps, rest = [], mask
        for d in full[:c + 1]:
            while rest.ndim > n - d:
                rest = rest.any(axis=0)
            keeps.append((d, rest.reshape(len(rest), -1).any(axis=1)))
        for d, keep in keeps:
            if not keep.all():
                axes[d] = axes[d][keep]
                box[d] = axes[d].reshape(views[d])
                mask = mask.compress(keep, axis=d)
        if not mask.size:
            return np.empty((0, n), dtype=np.intp)
    # on a sparse mask np.nonzero costs far more than this
    at = np.unravel_index(np.flatnonzero(mask), mask.shape)
    surv = [ax[k] for ax, k in zip(axes, at)]
    for i in (i for i in range(n) if i not in full):
        pay = game.payoffs(i, surv[:i] + [bid_of[i][:, None]] + surv[i + 1:])
        keep = game.payoffs(i, surv) >= pay.max(axis=0) - BR_TOL
        surv = [s[keep] for s in surv]
    return np.stack(surv, axis=1)


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
