"""Action-graph games in the form the encoders build them.

In an action-graph game (Jiang, Leyton-Brown & Bhat, "Action-Graph Games",
GEB 2011) each action's payoff is its utility table read at the
configuration of its neighbourhood, where function nodes reduce token
counts (sums) or pick the largest active source (argmax).  Here each
bidder's utility tables are one array, its *stack*, over (own bid,
configuration axes, price index); row 0 (no bid) is zero.  The
configuration axes are the encoder's own (rivals tied and above, or one
rank digit per rival), and the price index is the effective-bid slot of
the next lower bid.  The encoder's payoff kernel is the function-node
arithmetic: it steps the flat stack index per tied or higher rival (the
sums) and adds the largest lower slot (the argmax), over whole boxes of
profiles at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ConfigTable:
    """One action's utility table: ``data`` over a box of integer
    configurations whose smallest corner is ``lo``; ``dims`` is its shape."""

    def __init__(self, lo: tuple[int, ...], data: np.ndarray):
        self.lo = lo
        self.data = data
        self.dims = data.shape

    def __len__(self) -> int:
        return self.data.size


@dataclass
class ActionGraphGame:
    """A game: per-bidder action lists, utility stacks and the payoff kernel.

    ``agents[i]`` lists bidder i's action ids in action order (action index
    == bid amount), numbered bidder-major.  ``payoffs(i, bids, out=None)``
    gives bidder i's payoffs for ``bids``, one integer action array per
    bidder, broadcast together: at every profile of an ``np.ix_``-shaped
    box, or per column of an (agents x profiles) array.  Given ``out``, a
    float array of the broadcast shape, it writes the payoffs there and
    returns it.  The kernel keeps scratch buffers between calls, so one game
    is not read from two threads at once.  ``stacks[i]`` is bidder i's
    stack, ``slots[i, k]`` the effective-bid slot of its bid k, ``gsp``
    whether the stack's last axis is the price index (else it has length
    one) and ``lo`` where the first configuration axis starts.
    """

    agents: list[list[int]]
    payoffs: Callable[..., np.ndarray]  # (i, bids, out=None)
    stacks: list[np.ndarray]
    slots: np.ndarray
    gsp: bool
    lo: int = 0

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @functools.cached_property
    def tables(self) -> dict[int, ConfigTable]:
        """Each action's table, built on first read: bid k at slot t is the
        view ``stacks[i][k, ..., :t]`` (``[..., 0]`` under first price), bid
        0 one constant zero."""
        tables = {}
        for i, (actions, stack) in enumerate(zip(self.agents, self.stacks)):
            axes = stack.ndim - (1 if self.gsp else 2)
            corner = ((self.lo,) + (0,) * axes)[:axes]
            tables[actions[0]] = ConfigTable((), np.zeros(()))
            for k, t in enumerate(self.slots[i, 1:].tolist(), start=1):
                tables[actions[k]] = ConfigTable(
                    corner, stack[k, ..., :t] if self.gsp else stack[k, ..., 0])
        return tables


def evaluate_profile(game: ActionGraphGame, profile) -> np.ndarray:
    """Per-bidder payoffs of a pure strategy profile."""
    return np.array([game.payoffs(i, profile) for i in range(game.num_agents)])


def size_stats(game: ActionGraphGame) -> dict[str, int]:
    """Action and table-entry counts; the encoder growth claims are checked
    against these."""
    return {
        "action_nodes": sum(len(actions) for actions in game.agents),
        "total_table_entries": sum(len(t) for t in game.tables.values()),
    }
