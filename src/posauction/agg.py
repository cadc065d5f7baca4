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

Each game is compiled once into a cached evaluation plan, which relies on
the game being immutable once built (nodes, arcs and tables alike).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

ACTION = "action"
SUM = "sum"
OR = "or"
ARGMAX = "argmax"


class MissingTableEntry(KeyError):
    """A reachable configuration has no utility-table entry."""

    __str__ = LookupError.__str__  # the message, unquoted


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

    def __getitem__(self, key: tuple) -> float:
        if len(key) != len(self.dims):
            raise MissingTableEntry(f"config {key} has wrong arity")
        idx = []
        for k, lo, dim in zip(key, self.lo, self.dims):
            k = int(k) - lo
            if not 0 <= k < dim:
                raise MissingTableEntry(f"config {key} outside table box")
            idx.append(k)
        value = self.data.item(*idx)
        if value != value:
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

    ``payoffs(i, bids)`` gives bidder i's payoff at every column of
    ``bids``, an (agents x profiles) array of action indices.  The encoder
    supplies it: a vectorized read of the same tables by the layout it built
    them in.  A hand-built game has none.  All semantics live in the graph
    itself.
    """

    agents: list[list[int]]
    nodes: list[Node]
    tables: dict[int, Mapping]
    name: str = ""
    payoffs: Callable[[int, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self._topo: list[int] | None = None
        self._plan: tuple[list, list] | None = None

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def topo_order(self) -> list[int]:
        if self._topo is None:
            self._topo = _topological_order(self.nodes)
        return self._topo

    def plan(self) -> tuple[list, list]:
        """Topological function-node steps; (node, config getter, read) per action."""
        if self._plan is None:
            reads = [[(v, _getter(self.nodes[v].sources()),
                       self.tables.get(v, {}).__getitem__) for v in actions]
                     for actions in self.agents]
            order = self.topo_order()
            unknown = {self.nodes[v].kind for v in order} - {SUM, OR, ARGMAX}
            if unknown:
                raise ValueError(f"unknown node kind {unknown.pop()!r}")
            steps = [(v, self.nodes[v].kind, _getter(self.nodes[v].sources()))
                     for v in order]
            self._plan = (steps, reads)
        return self._plan


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


def _getter(srcs: list[int]):
    """Tuple of the values at ``srcs``, read from a list of node values."""
    if len(srcs) == 1:
        return lambda values, src=srcs[0]: (values[src],)
    return operator.itemgetter(*srcs) if srcs else lambda values: ()


def _walk(game: ActionGraphGame, profile, steps) -> list[int]:
    values = [0] * len(game.nodes)
    for i, choice in enumerate(profile):
        values[game.agents[i][choice]] = 1
    for v, kind, get in steps:
        src = get(values)
        if kind == SUM:
            values[v] = sum(src)
        elif kind == OR:
            values[v] = 1 if any(src) else 0
        else:  # argmax: the highest rank whose source is active
            rank = len(src)
            while rank and not src[rank - 1]:
                rank -= 1
            values[v] = rank
    return values


def node_values(game: ActionGraphGame, profile) -> np.ndarray:
    """Propagate token counts through the graph for one pure profile."""
    return np.array(_walk(game, profile, game.plan()[0]), dtype=np.int64)


def evaluate_profile(game: ActionGraphGame, profile) -> np.ndarray:
    """Per-bidder payoffs of a pure strategy profile.

    Raises :class:`MissingTableEntry` if an encoder produced a non-total
    table.
    """
    steps, reads = game.plan()
    values = _walk(game, profile, steps)
    payoffs = [0.0] * game.num_agents
    for i, choice in enumerate(profile):
        node_id, get, read = reads[i][choice]
        config = get(values)
        try:
            payoffs[i] = read(config)
        except KeyError as exc:
            raise MissingTableEntry(
                f"node {node_id} has no entry for config {config}") from exc
    return np.array(payoffs, dtype=float)


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

