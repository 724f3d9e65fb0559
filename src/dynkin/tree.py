"""Finite scenario trees, node-indexed processes, and stopping times.

A scenario tree is a rooted tree whose nodes are indexed ``0..K-1`` in
topological order (every parent precedes its children, node 0 is the
root).  The time of a node is its depth, every leaf sits at the common
horizon depth, and each edge carries a strictly positive conditional
probability; sibling probabilities sum to one, so every node is reached
with positive probability (``tree.prob[v]`` for node ``v``).

A process is a length-K float tuple indexed by node id.  Payoffs are
checked once, when a :class:`~dynkin.game.GameSpec` is built; this
module only checks a process's length.

A stopping time is represented by its stop node on each root-to-leaf
path; these nodes form its canonical stop-set, an antichain meeting every
path once.  Stopping "at the horizon" on a path means at that path's leaf.
Because ids are topological, a node's id grows with its depth along any
root-to-leaf path: of two stops on one path the earlier is the one with
the smaller id, and two stops at one depth are the same node.  Stops
are compared by id only; depths are derived where a caller asks.
Node sets from outside (profile files, library callers) enter through
:func:`canonicalize`; the envelope and the enumeration build per-leaf
stops directly.  Bottom-up passes start from the leaves and walk
``tree.internal``, the internal ids in decreasing order: children first.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, islice
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
        Conditional probability of reaching each node from its parent, a
        number (not a bool) in ``(0, 1]``; the root's entry must be 1.
        Siblings' entries must sum to 1 within ``PROB_TOL``.
    horizon:
        Optional declared horizon; checked against the tree if given.
        Every leaf must sit at this depth and it must be at least 1.

    The parents and probabilities are checked as whole arrays; a
    node-by-node loop runs only to name the first fault.  One pass over
    the nodes then builds the children, depths and path probabilities.

    ``internal`` holds the internal node ids in decreasing order, every
    child before its parent: the package's one bottom-up order.
    """

    __slots__ = (
        "parents",
        "cond_probs",
        "n_nodes",
        "horizon",
        "depth",
        "children",
        "leaves",
        "internal",
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
        raw = tuple(cond_probs)
        floats = set(map(type, raw)) <= {float}  # the common case
        probs = raw if floats else tuple(map(_number, raw))
        n = len(parents)
        if n != len(probs):
            raise TreeError(
                f"{n} parent entries but {len(probs)} probability entries"
            )
        if n < 2:
            raise TreeError("a tree needs at least a root and one leaf")
        if parents[0] is not None:
            raise TreeError("node 0 must be the root (parent None)")
        # One int object per id, shared by ``children``, ``leaves`` and
        # ``depth``.
        ids = list(range(n))
        # the parents after the root, uncopied: a copy raises peak memory
        if not (set(map(type, islice(parents, 1, n))) <= {int}
                and min(islice(parents, 1, n)) >= 0
                and all(map(operator.lt, islice(parents, 1, n), range(1, n)))):
            for v in ids[1:]:
                p = parents[v]
                if not isinstance(p, int) or isinstance(p, bool):
                    raise TreeError(f"node {v}: parent must be an integer id")
                if not 0 <= p < v:
                    raise TreeError(
                        f"node {v}: parent {p} does not precede it "
                        "(ids must be topological)"
                    )
        if not (floats and all(map((0.0).__lt__, probs))
                and all(map((1.0).__ge__, probs))):  # NaN fails both
            for v, p in enumerate(probs):
                if p is None:
                    raise TreeError(
                        f"node {v}: cond_prob {raw[v]!r} not a number"
                    )
                if not math.isfinite(p) or not 0.0 < p <= 1.0:
                    raise TreeError(f"node {v}: cond_prob {p!r} not in (0, 1]")
        if abs(probs[0] - 1.0) > PROB_TOL:
            raise TreeError(f"root cond_prob must be 1, got {probs[0]!r}")

        kids: list[list[int]] = [[] for _ in ids]
        depth = [0] * n
        prob = [1.0] * n
        for v in ids[1:]:
            p = parents[v]
            kids[p].append(v)
            depth[v] = ids[depth[p] + 1]
            prob[v] = prob[p] * probs[v]
        for v, c in enumerate(kids):
            if c:
                # one child: its probability, already checked finite
                s = probs[c[0]] if len(c) == 1 else math.fsum(
                    map(probs.__getitem__, c))
                if abs(s - 1.0) > PROB_TOL:
                    raise TreeError(
                        f"children of node {v} have cond_prob sum {s!r}, "
                        "expected 1"
                    )

        leaves = tuple(v for v in ids if not kids[v])
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

        self.parents = parents
        self.cond_probs = probs
        self.n_nodes = n
        self.horizon = m
        self.depth = tuple(depth)
        self.children = tuple(tuple(c) for c in kids)
        self.leaves = leaves
        # ``parents[c[0]]`` is the node whose children are c, as an int
        # object ``parents`` already holds: the tuple adds no int per node.
        self.internal = tuple(parents[c[0]] for c in reversed(kids) if c)
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


def _number(x) -> Optional[float]:
    """The one number rule for probabilities and payoffs: ``x`` as a float
    (an int beyond float range is ±inf, as 1e400), None if not a number."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _check_process(tree: ScenarioTree, process: Sequence[float]) -> None:
    if len(process) != tree.n_nodes:
        raise TreeError(
            f"process has {len(process)} values but tree has "
            f"{tree.n_nodes} nodes"
        )


class StoppingTime:
    """Stopping time as its stop node on every root-to-leaf path.

    Only ``node_by_leaf`` (entry ``k`` on the path to ``tree.leaves[k]``)
    is stored, and times are compared path by path through these ids,
    which grow along every path; ``depth_by_leaf`` and ``stop_set`` are
    derived on each access.  Node sets from outside come in through
    :func:`canonicalize`; inside the package (:func:`horizon_stop`,
    :func:`min_stop`, the enumeration, the envelope, the solver) valid
    per-leaf stops are built directly, unchecked.  Every routine that
    computes with a time checks that it lives on the routine's tree and
    has one stop per leaf, else :class:`TreeError`.  Instances are
    immutable.
    """

    __slots__ = ("tree", "node_by_leaf")

    def __init__(self, tree: ScenarioTree, node_by_leaf: Iterable[int]):
        self.tree = tree
        self.node_by_leaf = tuple(node_by_leaf)

    @property
    def depth_by_leaf(self) -> tuple[int, ...]:
        return tuple(map(self.tree.depth.__getitem__, self.node_by_leaf))

    @property
    def stop_set(self) -> frozenset[int]:
        return frozenset(self.node_by_leaf)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StoppingTime):
            return NotImplemented
        if self.tree is not other.tree and self.tree != other.tree:
            return False
        return self.node_by_leaf == other.node_by_leaf

    def __hash__(self) -> int:
        return hash(self.node_by_leaf)

    def __repr__(self) -> str:
        return f"StoppingTime({sorted(self.stop_set)})"


def _check_stop(tree: ScenarioTree, tau: StoppingTime) -> None:
    """``tau`` lives on ``tree`` and has one stop per leaf."""
    if tau.tree is not tree and tau.tree != tree:
        raise TreeError("stopping time lives on a different tree")
    if len(tau.node_by_leaf) != len(tree.leaves):
        raise TreeError(f"stopping time has {len(tau.node_by_leaf)} stops "
                        f"for {len(tree.leaves)} leaves")


def _marks(tree: ScenarioTree, stops: Iterable[int]) -> bytearray:
    """One flag per node, set on the nodes of ``stops``."""
    marked = bytearray(tree.n_nodes)
    for v in stops:
        marked[v] = 1
    return marked


def _first_on_path(
    tree: ScenarioTree,
    marked: Sequence[int],
    nodes: Optional[Iterable[int]] = None,
    first: Optional[list[int]] = None,
) -> list[int]:
    """Per node, the first marked node on its root path (the node itself
    included), or -1 where the path has not met a mark yet: the
    package's one top-down cut walk.

    ``marked`` holds one flag per node.  A full pass (``nodes`` None)
    fills a new list.  Otherwise only ``nodes`` are recomputed, in the
    order given, into ``first``: each from its parent's entry, so a
    parent must come before its child or hold its final entry already.
    """
    if nodes is None:
        nodes = range(tree.n_nodes)
        first = [-1] * tree.n_nodes
    parents = tree.parents
    for v in nodes:
        p = parents[v]
        a = -1 if p is None else first[p]
        first[v] = a if a >= 0 else v if marked[v] else -1
    return first


def canonicalize(raw_stop_nodes: Iterable[int], tree: ScenarioTree) -> StoppingTime:
    """Reduce an arbitrary node set to a canonical stopping time.

    On every root-to-leaf path only the first marked node is kept;
    paths that meet no marked node stop at their leaf (the horizon).
    Every id is checked: node sets come from outside the package.
    """
    n = tree.n_nodes
    raw = tuple(raw_stop_nodes)
    for v in raw:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            raise TreeError(f"unknown node id {v!r} in stop set")
    first = _first_on_path(tree, _marks(tree, raw))
    node_by_leaf = tuple(
        first[leaf] if first[leaf] >= 0 else leaf for leaf in tree.leaves
    )
    return StoppingTime(tree, node_by_leaf)


def horizon_stop(tree: ScenarioTree) -> StoppingTime:
    """The stopping time that waits until the horizon on every path."""
    return StoppingTime(tree, tree.leaves)


def min_stop(*taus: StoppingTime) -> StoppingTime:
    """Pathwise minimum of one or more stopping times: on each path the
    stop with the smaller id."""
    if not taus:
        raise TreeError("min_stop needs at least one stopping time")
    out = taus[0]
    _check_stop(out.tree, out)
    for tau in taus[1:]:
        _check_stop(out.tree, tau)
        out = StoppingTime(out.tree, [
            a if a <= b else b
            for a, b in zip(out.node_by_leaf, tau.node_by_leaf)
        ])
    return out


def leq(first: StoppingTime, second: StoppingTime) -> bool:
    """Whether ``first`` stops no later than ``second`` on every path."""
    _check_stop(first.tree, first)
    _check_stop(first.tree, second)
    return all(map(operator.le, first.node_by_leaf, second.node_by_leaf))


def count_stopping_times(tree: ScenarioTree) -> int:
    """Number of canonical stopping times the tree admits."""
    return _stop_counts(tree)[0]


def _stop_counts(tree: ScenarioTree) -> list[int]:
    """Per node, the number of canonical stopping times of its subtree."""
    s = [1] * tree.n_nodes
    for v in tree.internal:
        prod = 1
        for c in tree.children[v]:
            prod *= s[c]
        s[v] = 1 + prod
    return s


def enumerate_stopping_times(
    tree: ScenarioTree, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[StoppingTime]:
    """Yield every canonical stopping time, refusing above the cap (or
    at a NaN cap) with :class:`EnumerationCapError`."""
    stops, order = _depth_first_stops(tree, cap)
    for nodes in stops:
        yield StoppingTime(tree, map(nodes.__getitem__, order))


def _depth_first_stops(
    tree: ScenarioTree, cap: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Every canonical stopping time as raw per-leaf stops over the leaves
    in depth-first order, in enumeration order, refusing above the cap;
    and the positions that put such a tuple in ``tree.leaves`` order.
    The last tuple stops at every leaf, so it lists the leaves
    depth-first."""
    total = count_stopping_times(tree)
    if not total <= cap:  # a NaN cap refuses
        raise EnumerationCapError(total, cap)

    # At v, every leaf below stops at v.
    stops = _joined(
        tree, lambda v, combos: (v,) * (len(combos[0]) if combos else 1)
    )
    # ``tree.leaves`` need not list the leaves depth-first.
    where = {leaf: k for k, leaf in enumerate(stops[-1])}
    return stops, [where[leaf] for leaf in tree.leaves]


def _joined(tree: ScenarioTree, own) -> list:
    """One value per canonical stopping time, in enumeration order: per
    node from the leaves up, ``own(v, combos)`` (stop at v), then
    ``combos``, the children's lists joined with ``+`` in product order
    (last child fastest), empty at a leaf.  Lists are kept in reverse,
    which the product keeps, so a lone child's list grows in place."""
    options = {}
    for v in chain(tree.leaves, tree.internal):
        kids = tree.children[v]
        combos = options.pop(kids[0]) if kids else []
        for c in kids[1:]:
            more = options.pop(c)
            combos = [a + b for a in combos for b in more]
        combos.append(own(v, combos))
        options[v] = combos
    return options[0][::-1]
