"""N-player stopping games on a shared scenario tree.

Each player ``i`` carries three processes, length-K float tuples
indexed by node id and checked once when the :class:`GameSpec` is
built: ``X[i]`` is the value collected when the player stops strictly
first, ``Q[i]`` the value when the player stops simultaneously with the
earliest opponent, and ``Y[i]`` the value when some opponent stops
strictly first.  The standing order assumption is ``X <= Q <= Y``
nodewise; a second assumption constrains where ``Q`` may touch ``Y``
before the horizon.  One cut pass and one freeze pass build a player's
obstacle against an opponents' cutoff: over the whole tree for
:func:`cutoff_obstacle` and the witness, over the root paths whose
cutoff stop moved for the solver's updates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Sequence

from .tree import (
    ScenarioTree,
    StoppingTime,
    _check_stop,
    _marks,
    _number,
    min_stop,
)


class GameError(ValueError):
    """Malformed game definition."""


@dataclass(frozen=True)
class GameSpec:
    """Shared tree plus per-player payoff triples (X, Q, Y).

    Each payoff is a length-K sequence indexed by node id.  Building
    a spec is where payoffs are checked, once: booleans, non-numbers and
    non-finite values are rejected, and the spec keeps float tuples, so
    the processes derived from them later need no check of their own.
    """

    tree: ScenarioTree
    X: tuple[tuple[float, ...], ...]
    Q: tuple[tuple[float, ...], ...]
    Y: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.X)
        if n < 2:
            raise GameError(f"need at least 2 players, got {n}")
        if len(self.Q) != n or len(self.Y) != n:
            raise GameError(
                f"process counts differ: X has {n}, Q has {len(self.Q)}, "
                f"Y has {len(self.Y)}"
            )
        for name in ("X", "Q", "Y"):
            procs = []
            for i, vals in enumerate(getattr(self, name)):
                if len(vals) != self.tree.n_nodes:
                    raise GameError(
                        f"player {i}: {name} has {len(vals)} values "
                        f"but tree has {self.tree.n_nodes} nodes"
                    )
                for v, x in enumerate(vals):
                    f = x if type(x) is float else _number(x)  # floats first
                    if f is None:
                        raise GameError(
                            f"processes.{name}[{i}]: node {v}: process "
                            f"value {x!r} not a number"
                        )
                    if not math.isfinite(f):
                        raise GameError(
                            f"processes.{name}[{i}]: node {v}: process "
                            f"value {f!r} not finite"
                        )
                procs.append(tuple(map(float, vals)))
            object.__setattr__(self, name, tuple(procs))

    @property
    def n_players(self) -> int:
        return len(self.X)


@dataclass(frozen=True)
class A3Violation:
    """Order violation X <= Q <= Y at one node for one player."""

    player: int
    node: int
    x: float
    q: float
    y: float


@dataclass(frozen=True)
class A4Violation:
    """Touching-rule violation at an internal node.

    Player ``trigger_player`` has Q strictly below Y there, which
    requires every player's X to sit strictly below their Y, and
    ``blocking_player`` breaks that requirement.
    """

    node: int
    trigger_player: int
    blocking_player: int


@dataclass(frozen=True)
class AssumptionReport:
    a3_violations: tuple[A3Violation, ...]
    a4_violations: tuple[A4Violation, ...]
    strict_tol: float

    @property
    def passed(self) -> bool:
        return not self.a3_violations and not self.a4_violations


class AssumptionError(GameError):
    """Raised when a caller requires the standing assumptions to hold."""

    def __init__(self, report: AssumptionReport):
        parts = []
        for v in report.a3_violations[:3]:
            parts.append(
                f"player {v.player} node {v.node}: order X <= Q <= Y "
                f"broken ({v.x!r}, {v.q!r}, {v.y!r})"
            )
        for v in report.a4_violations[:3]:
            parts.append(
                f"node {v.node}: player {v.trigger_player} has Q < Y but "
                f"player {v.blocking_player} lacks X < Y"
            )
        extra = len(report.a3_violations) + len(report.a4_violations) - len(parts)
        if extra > 0:
            parts.append(f"and {extra} more")
        super().__init__("; ".join(parts) or "assumption check failed")
        self.report = report


def validate_assumptions(
    spec: GameSpec, strict_tol: float = 0.0
) -> AssumptionReport:
    """Check the nodewise order and the touching rule.

    The order check is exact: a violation is recorded wherever
    ``X > Q`` or ``Q > Y``.  The touching rule applies at internal
    nodes only: whenever some player's Q sits strictly below their Y
    (tested as ``Y - Q > strict_tol``), every player's X must sit
    strictly below their Y (tested as ``Y - X > strict_tol``).
    Violations come in node order, then player order (order), or
    trigger then blocker order (touching rule).  Both checks compare
    whole per-player arrays.
    """
    tree = spec.tree
    players = range(spec.n_players)
    gt = operator.gt
    X, Q, Y = spec.X, spec.Q, spec.Y

    disorder = sorted(
        (v, i)
        for i in players
        for v in compress(
            range(tree.n_nodes),
            map(operator.or_, map(gt, X[i], Q[i]), map(gt, Q[i], Y[i])),
        )
    )
    a3 = [A3Violation(i, v, X[i][v], Q[i][v], Y[i][v]) for v, i in disorder]

    # Blockers are rare, so triggers are only tested where one occurs.
    tol = repeat(strict_tol)
    blockers = [
        bytes(map(operator.not_, map(gt, map(operator.sub, Y[j], X[j]), tol)))
        for j in players
    ]
    some_blocker = _any_of(blockers)
    a4 = [
        A4Violation(v, i, j)
        for v in reversed(tree.internal)
        if some_blocker[v]
        for i in players
        if Y[i][v] - Q[i][v] > strict_tol
        for j in players
        if blockers[j][v]
    ]
    return AssumptionReport(tuple(a3), tuple(a4), strict_tol)


def _any_of(masks: Sequence[bytes]) -> bytes:
    """Per node, 1 where any of the per-node 0/1 masks is set: OR-ing
    the masks as integers ORs them byte by byte."""
    bits = 0
    for m in masks:
        bits |= int.from_bytes(m, "little")
    return bits.to_bytes(len(masks[0]), "little")


def end_payoff(spec: GameSpec, player: int) -> tuple[float, ...]:
    """Value the player receives when opponents end the game at a node:
    their Y strictly before the horizon, their Q at it."""
    out = list(spec.Y[player])
    q = spec.Q[player]
    for v in spec.tree.leaves:
        out[v] = q[v]
    return tuple(out)


def cutoff_obstacle(
    spec: GameSpec, player: int, cutoff: StoppingTime
) -> tuple[float, ...]:
    """Obstacle for the player's one-sided problem given an opponents'
    cutoff: X strictly before the cutoff, then the end payoff taken at
    the cutoff node and frozen along the rest of each path."""
    return tuple(_cut_obstacle(spec, player, cutoff)[1])


def _cut_obstacle(spec, player, cutoff):
    """The cutoff's cut and the obstacle over the whole tree, for the
    witness and :func:`cutoff_obstacle`; the solver's updates run the
    same pass over the root paths whose cutoff stop moved."""
    _check_stop(spec.tree, cutoff)
    ep = end_payoff(spec, player)
    marked = _marks(spec.tree, cutoff.node_by_leaf)
    return _freeze(spec.tree, marked, spec.X[player], ep, ep)


def best_response_process(
    spec: GameSpec, player: int, others: Sequence[StoppingTime]
) -> tuple[float, ...]:
    """Process H whose stopped expectation reproduces the player's
    payoff against the fixed opponents.

    Let R be the earliest stop among ``others``.  H equals X strictly
    before R, Q at the R node, and the R node's Y frozen on the rest of
    each path.
    """
    rival = _rival_time(spec, player, others)
    marked = _marks(spec.tree, rival.node_by_leaf)
    return tuple(_freeze(
        spec.tree, marked, spec.X[player], spec.Q[player], spec.Y[player]
    )[1])


def _freeze(tree, marked, x, at, below, nodes=None, cut=None, out=None):
    """The cut of the ``marked`` nodes and the frozen process, in one
    top-down walk.

    The cut is what ``_first_on_path`` gives for ``marked``: per node,
    the first marked node on its root path, or -1.  The process is ``x``
    strictly before the cut, ``at`` on the cut node, and the cut node's
    ``below`` value frozen on the rest of each path.  A full pass
    (``nodes`` None) fills new lists; otherwise only ``nodes`` are
    recomputed, in the order given, into ``cut`` and ``out``: each from
    its parent's cut, so a parent must come before its child or hold its
    final cut already.
    """
    if nodes is None:
        nodes = range(tree.n_nodes)
        cut = [-1] * tree.n_nodes
        out = [0.0] * tree.n_nodes
    parents = tree.parents
    for v in nodes:
        p = parents[v]
        a = -1 if p is None else cut[p]
        if a >= 0:
            cut[v] = a
            out[v] = below[a]
        elif marked[v]:
            cut[v] = v
            out[v] = at[v]
        else:
            cut[v] = -1
            out[v] = x[v]
    return cut, out


def payoff(
    spec: GameSpec, player: int, profile: Sequence[StoppingTime]
) -> float:
    """Expected yield for ``player`` under a full stopping profile.

    On each root-to-leaf path, with t the player's stop node and r the
    earliest opponent stop node (ids grow along a path, so t < r means
    the player stops strictly first): the player collects X at t when
    t < r, Q there when t == r, and Y at r when t > r.  The result is
    the probability-weighted sum over leaves.
    """
    profile = tuple(profile)
    if len(profile) != spec.n_players:
        raise GameError(
            f"profile has {len(profile)} stopping times for "
            f"{spec.n_players} players"
        )
    _check_stop(spec.tree, profile[player])
    others = [tau for j, tau in enumerate(profile) if j != player]
    rival = _rival_time(spec, player, others)
    return _insertion_payoff(spec, player, rival, profile[player])


def _rival_time(
    spec: GameSpec, player: int, others: Sequence[StoppingTime]
) -> StoppingTime:
    others = tuple(others)
    if len(others) != spec.n_players - 1:
        raise GameError(
            f"expected {spec.n_players - 1} opponent stopping times, "
            f"got {len(others)}"
        )
    for tau in others:
        _check_stop(spec.tree, tau)
    return min_stop(*others)


def _collected(spec, player, stops, rivals) -> list[float]:
    """Per path, what the player collects stopping at node t of ``stops``
    when the opponents' earliest stop on that path is node r of
    ``rivals``: X at t if t < r, Q at t if t == r, Y at r if t > r (ids
    grow along a path).  The one place this case split lives."""
    x = spec.X[player]
    q = spec.Q[player]
    y = spec.Y[player]
    return [
        x[t] if t < r else q[t] if t == r else y[r]
        for t, r in zip(stops, rivals)
    ]


def _insertion_payoff(spec, player, rival: StoppingTime, tau: StoppingTime):
    """Payoff against the opponents' earliest stop, for the profile
    evaluator (the brute-force responder scores the same terms)."""
    vals = _collected(spec, player, tau.node_by_leaf, rival.node_by_leaf)
    return _fsum(list(map(operator.mul, spec.tree.leaf_probs, vals)))


def _tie_gap(spec, player, tau: StoppingTime, cut: StoppingTime) -> float:
    """Expected Y - Q gap collected where ``tau`` stops together with
    ``cut`` strictly before the horizon (at a node that is not a leaf)."""
    y = spec.Y[player]
    q = spec.Q[player]
    children = spec.tree.children
    return _fsum([
        p * (y[v] - q[v])
        for p, v, c in zip(
            spec.tree.leaf_probs, tau.node_by_leaf, cut.node_by_leaf
        )
        if v == c and children[v]
    ])


def _fsum(terms: Sequence[float]) -> float:
    """The one summation rule for expected values: correctly rounded, and
    ±inf beyond the float range, where ``math.fsum`` raises.  The terms
    are probability-weighted, so the sum of their halves stays in range."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return 2 * math.fsum(t / 2 for t in terms)
