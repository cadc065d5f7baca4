"""Action-graph games with contribution-independent function nodes.

A game is a DAG of action nodes (one token per bidder on its chosen node)
and function nodes, listed so that every function node comes after the
function nodes it reads.  Node values propagate in list order:

* action: 1 if chosen, else 0
* sum: total value of its sources
* argmax: index (1-based, into the node's weight-ascending arc list) of the
  largest-weight arc whose source is active; 0 when none is.  The weight of
  the selected arc is the real quantity the node represents (here: the next
  lower effective bid).

A bidder's payoff is its chosen node's table entry at the tuple of in-arc
source values (in in-arc order).  Tables must be total over reachable
configurations; a missing entry is an encoder bug, not a user error.

A game's graph is built at most once, and is immutable after (nodes, arcs
and tables alike): each game is compiled once into a cached evaluation plan.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

ACTION = "action"
SUM = "sum"
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

    ``lo`` gives the smallest value of each config axis and ``data.shape``
    (``dims``) its size.  Cells may be NaN to mark holes inside the box
    (configurations that can never occur); reading one raises
    :class:`MissingTableEntry`.
    """

    def __init__(self, lo: tuple[int, ...], data: np.ndarray):
        self.lo = lo
        self.data = data
        self.dims = data.shape

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


class _Graph:
    """A game's ``nodes`` or ``tables``, reached only while both are unset:
    one call to the game's ``build`` sets them as plain attributes."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, game, owner=None):
        if game is None:
            return None  # the field's default
        game.nodes, game.tables = game.build()
        game.build = None
        return getattr(game, self.name)


@dataclass
class ActionGraphGame:
    """A game: per-bidder action lists, nodes, and utility tables.

    ``agents[i]`` lists bidder i's action-node ids in action order (for
    encoded auctions, action index == bid amount).  ``tables`` maps each
    action-node id to its utility table (a dict or :class:`ConfigTable`).
    An encoder gives ``build`` in place of both: it returns them, on the
    first read of either, so a caller of ``payoffs`` alone never builds them.

    ``payoffs(i, bids)`` gives bidder i's payoffs for ``bids``, one integer
    action array per bidder, broadcast together: at every profile of an
    ``np.ix_`` box, or per column of an (agents x profiles) array.  The
    encoder supplies it, reading the same tables by the layout it built them
    in.  A hand-built game has none.  All semantics live in the graph itself.
    """

    agents: list[list[int]]
    nodes: list[Node] = _Graph()
    tables: dict[int, Mapping] = _Graph()
    payoffs: Callable[[int, Sequence[np.ndarray]], np.ndarray] | None = None
    build: Callable[[], tuple[list[Node], dict[int, Mapping]]] | None = None

    def __post_init__(self):
        self._plan: tuple[list, list] | None = None
        if self.build is not None:
            del self.nodes, self.tables  # unset: the first read builds them

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def plan(self) -> tuple[list, list]:
        """Function-node steps in list order; (node, config getter, read)
        per action.  Action-node in-arcs only feed utility tables (tokens
        are placed, not derived), so only a function node reading a function
        node listed at or after it is rejected, and with it every cycle."""
        if self._plan is None:
            reads = [[(v, _getter(self.nodes[v].sources()),
                       self.tables.get(v, {}).__getitem__) for v in actions]
                     for actions in self.agents]
            steps = []
            for v, node in enumerate(self.nodes):
                if node.kind == ACTION:
                    continue
                if node.kind not in (SUM, ARGMAX):
                    raise ValueError(f"unknown node kind {node.kind!r}")
                if any(src >= v and self.nodes[src].kind != ACTION for src in node.sources()):
                    raise ValueError(f"function node {v} reads a function node "
                                     "not listed before it")
                steps.append((v, node.kind, _getter(node.sources())))
            self._plan = (steps, reads)
        return self._plan


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

