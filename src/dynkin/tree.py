"""Finite scenario trees, node-indexed processes, and stopping times.

A scenario tree is a rooted tree whose nodes are indexed ``0..K-1`` in
topological order (every parent precedes its children, node 0 is the
root).  The time of a node is its depth, every leaf sits at the common
horizon depth, and each edge carries a strictly positive conditional
probability; sibling probabilities sum to one, so every node is reached
with positive probability.

A stopping time is represented by its canonical stop-set: an antichain
of nodes meeting every root-to-leaf path exactly once.  Stopping "at
the horizon" on a path means stopping at that path's leaf.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

PROB_TOL = 1e-12
DEFAULT_ENUM_CAP = 20_000


class TreeError(ValueError):
    """Structural violation in a scenario tree or its use."""


class EnumerationCapError(TreeError):
    """Refusal to enumerate a stopping-time family larger than the cap."""

    def __init__(self, count: int, cap: int):
        # str() of a huge count can exceed Python's digit limit
        bits = count.bit_length()
        shown = str(count) if bits <= 64 else f"at least 2**{bits - 1}"
        super().__init__(
            f"tree admits {shown} stopping times, which exceeds the "
            f"enumeration cap of {cap}"
        )
        self.count = count
        self.cap = cap


class ScenarioTree:
    """Finite event tree with conditional branch probabilities.

    Parameters
    ----------
    parents:
        Parent id per node, ``None`` for the root (node 0 only).
        Parents must precede children.
    cond_probs:
        Conditional probability of reaching each node from its parent,
        in ``(0, 1]``.  The root entry must be 1.  For every internal
        node the children's entries must sum to 1 within ``PROB_TOL``.
    horizon:
        Optional declared horizon; checked against the tree if given.
        Every leaf must sit at this depth and it must be at least 1.
    """

    __slots__ = (
        "parents",
        "cond_probs",
        "n_nodes",
        "horizon",
        "depth",
        "children",
        "leaves",
        "leaf_index",
        "prob",
        "leaf_probs",
    )

    def __init__(
        self,
        parents: Sequence[Optional[int]],
        cond_probs: Sequence[float],
        horizon: Optional[int] = None,
    ):
        parents = tuple(parents)
        probs = tuple(float(p) for p in cond_probs)
        n = len(parents)
        if n != len(probs):
            raise TreeError(
                f"{n} parent entries but {len(probs)} probability entries"
            )
        if n < 2:
            raise TreeError("a tree needs at least a root and one leaf")
        if parents[0] is not None:
            raise TreeError("node 0 must be the root (parent None)")
        for v in range(1, n):
            p = parents[v]
            if not isinstance(p, int) or isinstance(p, bool):
                raise TreeError(f"node {v}: parent must be an integer id")
            if not 0 <= p < v:
                raise TreeError(
                    f"node {v}: parent {p} does not precede it "
                    "(ids must be topological)"
                )
        for v, p in enumerate(probs):
            if not math.isfinite(p) or not 0.0 < p <= 1.0:
                raise TreeError(f"node {v}: cond_prob {p!r} not in (0, 1]")
        if abs(probs[0] - 1.0) > PROB_TOL:
            raise TreeError(f"root cond_prob must be 1, got {probs[0]!r}")

        kids: list[list[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            kids[parents[v]].append(v)
        for v in range(n):
            if kids[v]:
                s = math.fsum(probs[c] for c in kids[v])
                if abs(s - 1.0) > PROB_TOL:
                    raise TreeError(
                        f"children of node {v} have cond_prob sum {s!r}, "
                        "expected 1"
                    )

        depth = [0] * n
        prob = [1.0] * n
        for v in range(1, n):
            p = parents[v]
            depth[v] = depth[p] + 1
            prob[v] = prob[p] * probs[v]

        leaves = tuple(v for v in range(n) if not kids[v])
        m = depth[leaves[0]]
        for v in leaves:
            if depth[v] != m:
                deeper = v if depth[v] > m else leaves[0]
                other = leaves[0] if deeper == v else v
                raise TreeError(
                    f"leaf {other} at depth {depth[other]} but leaf "
                    f"{deeper} at depth {depth[deeper]}: all leaves must "
                    "share one horizon"
                )
        if horizon is not None and horizon != m:
            raise TreeError(
                f"declared horizon {horizon} but leaves sit at depth {m}"
            )
        if m < 1:
            raise TreeError("horizon must be at least 1")

        self.parents = parents
        self.cond_probs = probs
        self.n_nodes = n
        self.horizon = m
        self.depth = tuple(depth)
        self.children = tuple(tuple(c) for c in kids)
        self.leaves = leaves
        self.leaf_index = {v: k for k, v in enumerate(leaves)}
        self.prob = tuple(prob)
        self.leaf_probs = tuple(prob[v] for v in leaves)

    @classmethod
    def uniform(cls, depth: int, branching: int) -> "ScenarioTree":
        """Tree where every internal node has ``branching`` equally
        likely children, down to the given depth."""
        if depth < 1:
            raise TreeError("horizon must be at least 1")
        if branching < 1:
            raise TreeError("branching must be at least 1")
        parents: list[Optional[int]] = [None]
        probs = [1.0]
        p = 1.0 / branching
        frontier = [0]
        for _ in range(depth):
            nxt = []
            for v in frontier:
                for _ in range(branching):
                    parents.append(v)
                    probs.append(p)
                    nxt.append(len(parents) - 1)
            frontier = nxt
        return cls(parents, probs)

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def node_prob(self, v: int) -> float:
        """Unconditional probability of reaching node ``v`` (root: 1)."""
        return self.prob[v]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ScenarioTree):
            return NotImplemented
        return (
            self.parents == other.parents
            and self.cond_probs == other.cond_probs
        )

    def __repr__(self) -> str:
        return (
            f"ScenarioTree(nodes={self.n_nodes}, horizon={self.horizon}, "
            f"leaves={len(self.leaves)})"
        )


@dataclass(frozen=True)
class AdaptedProcess:
    """Real value per tree node, indexed like the tree's node ids."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(x) for x in self.values)
        for v, x in enumerate(vals):
            if not math.isfinite(x):
                raise TreeError(f"node {v}: process value {x!r} not finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, tree: ScenarioTree, value: float) -> "AdaptedProcess":
        return cls((float(value),) * tree.n_nodes)

    def __getitem__(self, v: int) -> float:
        return self.values[v]

    def __len__(self) -> int:
        return len(self.values)


def _check_process(tree: ScenarioTree, process: AdaptedProcess) -> None:
    if len(process.values) != tree.n_nodes:
        raise TreeError(
            f"process has {len(process.values)} values but tree has "
            f"{tree.n_nodes} nodes"
        )


class StoppingTime:
    """Stopping time as a canonical stop-set over a scenario tree.

    Instances are built through :func:`canonicalize` (or the helpers
    below) and are immutable.  ``stop_set`` is an antichain meeting
    every root-to-leaf path exactly once; per-leaf stop nodes and depths
    are precomputed for pathwise work.
    """

    __slots__ = ("tree", "stop_set", "node_by_leaf", "depth_by_leaf")

    def __init__(
        self,
        tree: ScenarioTree,
        stop_set: frozenset[int],
        node_by_leaf: tuple[int, ...],
        depth_by_leaf: tuple[int, ...],
    ):
        self.tree = tree
        self.stop_set = stop_set
        self.node_by_leaf = node_by_leaf
        self.depth_by_leaf = depth_by_leaf

    @classmethod
    def _from_leaf_nodes(
        cls, tree: ScenarioTree, node_by_leaf: Sequence[int]
    ) -> "StoppingTime":
        nodes = tuple(node_by_leaf)
        depths = tuple(tree.depth[v] for v in nodes)
        return cls(tree, frozenset(nodes), nodes, depths)

    def depth_at(self, leaf: int) -> int:
        """Stopping depth along the path ending at ``leaf``."""
        return self.depth_by_leaf[self.tree.leaf_index[leaf]]

    def stop_node_at(self, leaf: int) -> int:
        """Stop node on the path ending at ``leaf``."""
        return self.node_by_leaf[self.tree.leaf_index[leaf]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoppingTime):
            return NotImplemented
        if self.tree is not other.tree and self.tree != other.tree:
            return False
        return self.stop_set == other.stop_set

    def __hash__(self) -> int:
        return hash(self.stop_set)

    def __repr__(self) -> str:
        return f"StoppingTime({sorted(self.stop_set)})"


def _check_stop(tree: ScenarioTree, tau: StoppingTime) -> None:
    if tau.tree is not tree and tau.tree != tree:
        raise TreeError("stopping time lives on a different tree")


def _first_on_path(tree: ScenarioTree, stops: Iterable[int]) -> list[int]:
    """Per node, the first node of ``stops`` on its root path (the node
    itself included), or -1 where the path has not met ``stops`` yet."""
    marked = bytearray(tree.n_nodes)
    for v in stops:
        marked[v] = 1
    first = [-1] * tree.n_nodes
    if marked[0]:
        first[0] = 0
    parents = tree.parents
    for v in range(1, tree.n_nodes):
        inherited = first[parents[v]]
        if inherited >= 0:
            first[v] = inherited
        elif marked[v]:
            first[v] = v
    return first


def canonicalize(raw_stop_nodes: Iterable[int], tree: ScenarioTree) -> StoppingTime:
    """Reduce an arbitrary node set to a canonical stopping time.

    On every root-to-leaf path only the first marked node is kept;
    paths that meet no marked node stop at their leaf (the horizon).
    """
    n = tree.n_nodes
    raw = tuple(raw_stop_nodes)
    for v in raw:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            raise TreeError(f"unknown node id {v!r} in stop set")
    first = _first_on_path(tree, raw)
    node_by_leaf = tuple(
        first[leaf] if first[leaf] >= 0 else leaf for leaf in tree.leaves
    )
    return StoppingTime._from_leaf_nodes(tree, node_by_leaf)


def horizon_stop(tree: ScenarioTree) -> StoppingTime:
    """The stopping time that waits until the horizon on every path."""
    return StoppingTime._from_leaf_nodes(tree, tree.leaves)


def depth_stop(tree: ScenarioTree, depth: int) -> StoppingTime:
    """The stopping time that stops at a fixed depth on every path."""
    if not 0 <= depth <= tree.horizon:
        raise TreeError(f"depth {depth} outside 0..{tree.horizon}")
    keep = [v for v in range(tree.n_nodes) if tree.depth[v] == depth]
    return canonicalize(keep, tree)


def min_stop(*taus: StoppingTime) -> StoppingTime:
    """Pathwise minimum of one or more stopping times."""
    if not taus:
        raise TreeError("min_stop needs at least one stopping time")
    out = taus[0]
    for tau in taus[1:]:
        _check_stop(out.tree, tau)
        nodes = tuple(
            a if da <= db else b
            for a, da, b, db in zip(
                out.node_by_leaf,
                out.depth_by_leaf,
                tau.node_by_leaf,
                tau.depth_by_leaf,
            )
        )
        out = StoppingTime._from_leaf_nodes(out.tree, nodes)
    return out


def leq(first: StoppingTime, second: StoppingTime) -> bool:
    """Whether ``first`` stops no later than ``second`` on every path."""
    _check_stop(first.tree, second)
    return all(
        a <= b for a, b in zip(first.depth_by_leaf, second.depth_by_leaf)
    )


def expect_at(
    tree: ScenarioTree, process: AdaptedProcess, tau: StoppingTime
) -> float:
    """Expected value of the process sampled at the stopping time."""
    _check_process(tree, process)
    _check_stop(tree, tau)
    vals = process.values
    prob = tree.prob
    return math.fsum(prob[v] * vals[v] for v in sorted(tau.stop_set))


def count_stopping_times(tree: ScenarioTree) -> int:
    """Number of canonical stopping times the tree admits."""
    s = [0] * tree.n_nodes
    for v in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[v]
        if not kids:
            s[v] = 1
        else:
            prod = 1
            for c in kids:
                prod *= s[c]
            s[v] = 1 + prod
    return s[0]


def enumerate_stopping_times(
    tree: ScenarioTree, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[StoppingTime]:
    """Yield every canonical stopping time, refusing above the cap."""
    total = count_stopping_times(tree)
    if total > cap:
        raise EnumerationCapError(total, cap)

    # Per node, the stop sets of its subtree, built bottom-up (children
    # have larger ids); a child's list is dropped once its parent used it.
    options: dict[int, list[tuple[int, ...]]] = {}
    for v in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[v]
        out = [(v,)]
        if kids:
            for combo in itertools.product(*(options.pop(c) for c in kids)):
                out.append(tuple(itertools.chain.from_iterable(combo)))
        options[v] = out

    for nodes in options[0]:
        yield canonicalize(nodes, tree)
