"""Action-graph games with contribution-independent function nodes.

A game is a DAG of action nodes (one token per bidder on its chosen node)
and function nodes.  Node values propagate in topological order:

* action: 1 if chosen, else 0
* sum: total value of its sources
* or: 1 if any source is nonzero
* argmax: index (1-based, into the node's weight-ascending arc list) of the
  largest-weight arc whose source is active; 0 when none is.  The weight of
  the selected arc is the real quantity the node represents (here: the next
  lower effective bid).

A bidder's payoff is its chosen node's table entry at the tuple of in-arc
source values (in in-arc order).  Tables must be total over reachable
configurations; a missing entry is an encoder bug, not a user error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

ACTION = "action"
SUM = "sum"
OR = "or"
ARGMAX = "argmax"


class MissingTableEntry(LookupError):
    """A reachable configuration has no utility-table entry."""


@dataclass
class Node:
    kind: str
    in_arcs: list[tuple[int, float | None]] = field(default_factory=list)
    owner: int | None = None  # bidder id for action nodes
    label: str = ""

    def sources(self) -> list[int]:
        return [src for src, _ in self.in_arcs]


class ConfigTable(Mapping):
    """Dense utility table over a box of integer configurations.

    ``dims`` gives the size of each config axis and ``lo`` its smallest
    value.  Cells may be NaN to mark holes inside the box (configurations
    that can never occur); reading one raises :class:`MissingTableEntry`.
    """

    def __init__(self, dims: tuple[int, ...], lo: tuple[int, ...], data: np.ndarray):
        assert data.shape == dims
        self.dims = dims
        self.lo = lo
        self.data = data

    def _flat(self, key: tuple) -> tuple:
        if len(key) != len(self.dims):
            raise MissingTableEntry(f"config {key} has wrong arity")
        idx = []
        for k, lo, dim in zip(key, self.lo, self.dims):
            k = int(k) - lo
            if not 0 <= k < dim:
                raise MissingTableEntry(f"config {key} outside table box")
            idx.append(k)
        return tuple(idx)

    def __getitem__(self, key: tuple) -> float:
        value = float(self.data[self._flat(key)])
        if np.isnan(value):
            raise MissingTableEntry(f"config {key} marked unreachable")
        return value

    def __iter__(self) -> Iterator[tuple]:
        for idx in np.ndindex(*self.dims):
            if not np.isnan(self.data[idx]):
                yield tuple(int(i) + lo for i, lo in zip(idx, self.lo))

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.data)))


@dataclass
class ActionGraphGame:
    """Immutable game: per-bidder action lists, nodes, and utility tables.

    ``agents[i]`` lists bidder i's action-node ids in action order (for
    encoded auctions, action index == bid amount).  ``tables`` maps each
    action-node id to its utility table (a dict or :class:`ConfigTable`).

    :meth:`payoffs` gives one bidder's payoff at many profiles at once.  An
    encoder supplies ``kernel``, a vectorized read of the same tables by the
    layout it built them in; a game without one evaluates the graph per
    profile.  All semantics live in the graph itself.
    """

    agents: list[list[int]]
    nodes: list[Node]
    tables: dict[int, Mapping]
    name: str = ""
    kernel: Callable[[int, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self._topo: list[int] | None = None

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def payoffs(self, i: int, bids: np.ndarray) -> np.ndarray:
        """Bidder i's payoff at every column of ``bids``, an (agents x
        profiles) array of action indices."""
        if self.kernel is not None:
            return self.kernel(i, bids)
        return np.array([evaluate_profile(self, col)[i] for col in bids.T], dtype=float)

    def topo_order(self) -> list[int]:
        if self._topo is None:
            self._topo = _topological_order(self.nodes)
        return self._topo


def _topological_order(nodes: list[Node]) -> list[int]:
    """Evaluation order of the function nodes.

    Action-node in-arcs only feed utility tables (tokens are placed, not
    derived), so acyclicity is required of function-node dependencies only.
    """
    is_fn = [n.kind != ACTION for n in nodes]
    pending = [sum(1 for s in n.sources() if is_fn[s]) if is_fn[v] else 0
               for v, n in enumerate(nodes)]
    dependents: list[list[int]] = [[] for _ in nodes]
    for v, node in enumerate(nodes):
        if not is_fn[v]:
            continue
        for src in node.sources():
            if is_fn[src]:
                dependents[src].append(v)
    order = [v for v in range(len(nodes)) if is_fn[v] and pending[v] == 0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for dep in dependents[v]:
            pending[dep] -= 1
            if pending[dep] == 0:
                order.append(dep)
    if len(order) != sum(is_fn):
        raise ValueError("function-node dependencies contain a cycle")
    return order


def node_values(game: ActionGraphGame, profile, order=None) -> np.ndarray:
    """Propagate token counts through the graph for one pure profile."""
    nodes = game.nodes
    values = np.zeros(len(nodes), dtype=np.int64)
    for i, choice in enumerate(profile):
        values[game.agents[i][choice]] = 1
    for v in (order if order is not None else game.topo_order()):
        node = nodes[v]
        if node.kind == ACTION:
            continue
        if node.kind == SUM:
            values[v] = sum(values[src] for src in node.sources())
        elif node.kind == OR:
            values[v] = int(any(values[src] for src in node.sources()))
        elif node.kind == ARGMAX:
            best = 0
            for rank, (src, _weight) in enumerate(node.in_arcs, start=1):
                if values[src]:
                    best = max(best, rank)
            values[v] = best
        else:
            raise ValueError(f"unknown node kind {node.kind!r}")
    return values


def evaluate_profile(game: ActionGraphGame, profile) -> np.ndarray:
    """Per-bidder payoffs of a pure strategy profile.

    Raises :class:`MissingTableEntry` if an encoder produced a non-total
    table.
    """
    values = node_values(game, profile)
    payoffs = np.zeros(game.num_agents)
    for i, choice in enumerate(profile):
        node_id = game.agents[i][choice]
        config = tuple(int(values[src]) for src in game.nodes[node_id].sources())
        try:
            payoffs[i] = game.tables[node_id][config]
        except KeyError as exc:
            raise MissingTableEntry(
                f"node {node_id} has no entry for config {config}") from exc
    return payoffs


def deviation_best_response(game: ActionGraphGame, profile, agent: int):
    """Best payoff the agent can reach by a unilateral action change, with
    the set of actions attaining it (1e-9 payoff tolerance)."""
    profile = list(profile)
    best = -np.inf
    best_actions: list[int] = []
    for action in range(len(game.agents[agent])):
        trial = profile.copy()
        trial[agent] = action
        payoff = evaluate_profile(game, trial)[agent]
        if payoff > best + 1e-9:
            best = payoff
            best_actions = [action]
        elif payoff >= best - 1e-9:
            best_actions.append(action)
    return best, best_actions


def size_stats(game: ActionGraphGame) -> dict[str, int]:
    """Node and table-entry counts; the encoder growth claims are checked
    against these."""
    action_nodes = sum(1 for n in game.nodes if n.kind == ACTION)
    function_nodes = len(game.nodes) - action_nodes
    entries = sum(len(t) for t in game.tables.values())
    return {
        "action_nodes": action_nodes,
        "function_nodes": function_nodes,
        "total_table_entries": entries,
    }


def dump_graph(game: ActionGraphGame) -> str:
    """One node per line: id, kind, owner, in-arcs (with argmax weights)."""
    lines = []
    for i, node in enumerate(game.nodes):
        arcs = ", ".join(
            f"{src}" if w is None else f"{src}(w={w:g})" for src, w in node.in_arcs)
        owner = "-" if node.owner is None else str(node.owner)
        label = f" {node.label}" if node.label else ""
        lines.append(f"{i}\t{node.kind}\towner={owner}\t[{arcs}]{label}")
    return "\n".join(lines) + "\n"


def payoff_tensors(game: ActionGraphGame, allowed=None) -> list[np.ndarray]:
    """Dense per-bidder payoff arrays over the (restricted) profile grid.

    Reference implementation by exhaustive :func:`evaluate_profile`; the
    encoders' vectorized kernels are tested against it.
    """
    import itertools

    if allowed is None:
        allowed = [list(range(len(a))) for a in game.agents]
    shape = tuple(len(a) for a in allowed)
    out = [np.zeros(shape) for _ in range(game.num_agents)]
    for idx in itertools.product(*(range(s) for s in shape)):
        profile = [allowed[i][idx[i]] for i in range(game.num_agents)]
        payoffs = evaluate_profile(game, profile)
        for i in range(game.num_agents):
            out[i][idx] = payoffs[i]
    return out
