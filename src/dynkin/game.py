"""N-player stopping games on a shared scenario tree.

Each player ``i`` carries three processes, length-K float tuples
indexed by node id and checked once when the :class:`GameSpec` is
built: ``X[i]`` is the value collected when the player stops strictly
first, ``Q[i]`` the value when the player stops simultaneously with the
earliest opponent, and ``Y[i]`` the value when some opponent stops
strictly first.  The standing order assumption is ``X <= Q <= Y``
nodewise; a second assumption constrains where ``Q`` may touch ``Y``
before the horizon.  A player's obstacle against an opponents' cutoff
is the cutoff's cut (``tree._first_on_path``) filled by one rule
(``_fill_obstacle``): over the whole tree for :func:`cutoff_obstacle`
and the witness, over the root paths whose cutoff stop moved for the
solver's updates.
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
    _first_on_path,
    _floats,
    _marks,
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
                procs.append(_floats(
                    tuple(vals), (math.isfinite,),
                    f"processes.{name}[{i}]: node {{}}: process value",
                    "not finite", GameError))
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
    (tested as ``not Y - Q <= strict_tol``), every player's X must sit
    strictly below their Y (tested as ``Y - X > strict_tol``), so a NaN
    ``strict_tol`` triggers the rule everywhere and fails every player.
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
        if not Y[i][v] - Q[i][v] <= strict_tol  # NaN fails closed
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
    witness and :func:`cutoff_obstacle`."""
    tree = spec.tree
    _check_stop(tree, cutoff)
    cut = _first_on_path(tree, _marks(tree, cutoff.node_by_leaf))
    obstacle = [0.0] * tree.n_nodes
    _fill_obstacle(obstacle, range(tree.n_nodes), cut, spec.X[player],
                   end_payoff(spec, player))
    return cut, obstacle


def _fill_obstacle(out, nodes, cut, x, ep) -> None:
    """The obstacle at ``nodes``, written into ``out``: ``x`` strictly
    before the cut, the cut node's end payoff ``ep`` from it on.  Over
    the whole tree here, over the moved root paths in the solver."""
    for v in nodes:
        a = cut[v]
        out[v] = x[v] if a < 0 else ep[a]


def best_response_process(
    spec: GameSpec, player: int, others: Sequence[StoppingTime]
) -> tuple[float, ...]:
    """Process H whose stopped expectation reproduces the player's
    payoff against the fixed opponents.

    Let R be the earliest stop among ``others``.  H equals X strictly
    before R, Q at the R node, and the R node's Y frozen on the rest of
    each path.
    """
    return _rival_process(spec, player, _rival_time(spec, player, others))


def _rival_process(spec, player, rival: StoppingTime) -> tuple[float, ...]:
    """:func:`best_response_process` against the opponents' earliest stop
    ``rival``; the Nash check derives that stop once per player."""
    n = spec.tree.n_nodes
    cut = _first_on_path(spec.tree, _marks(spec.tree, rival.node_by_leaf))
    # Before R the rival's node is one past every id: the player is first.
    rivals = [n if a < 0 else a for a in cut]
    return tuple(_collected(spec, player, range(n), rivals))


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
    _check_count(spec, profile)
    _check_stop(spec.tree, profile[player])
    others = [tau for j, tau in enumerate(profile) if j != player]
    rival = _rival_time(spec, player, others)
    return _insertion_payoff(spec, player, rival, profile[player])


def _check_count(spec: GameSpec, *profiles) -> None:
    """One stopping time per player in each profile, else ``GameError``."""
    for times in profiles:
        if len(times) != spec.n_players:
            raise GameError(f"profile has {len(times)} stopping times for "
                            f"{spec.n_players} players")


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
