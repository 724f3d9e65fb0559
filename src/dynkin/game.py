"""N-player stopping games on a shared scenario tree.

Each player ``i`` carries three node-indexed processes: ``X[i]`` is the
value collected when the player stops strictly first, ``Q[i]`` the
value when the player stops simultaneously with the earliest opponent,
and ``Y[i]`` the value when some opponent stops strictly first.  The
standing order assumption is ``X <= Q <= Y`` nodewise; a second
assumption constrains where ``Q`` may touch ``Y`` before the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .tree import (
    AdaptedProcess,
    ScenarioTree,
    StoppingTime,
    _check_stop,
    _first_on_path,
    min_stop,
)


class GameError(ValueError):
    """Malformed game definition."""


@dataclass(frozen=True)
class GameSpec:
    """Shared tree plus per-player payoff triples (X, Q, Y)."""

    tree: ScenarioTree
    X: tuple[AdaptedProcess, ...]
    Q: tuple[AdaptedProcess, ...]
    Y: tuple[AdaptedProcess, ...]

    def __post_init__(self):
        object.__setattr__(self, "X", tuple(self.X))
        object.__setattr__(self, "Q", tuple(self.Q))
        object.__setattr__(self, "Y", tuple(self.Y))
        n = len(self.X)
        if n < 2:
            raise GameError(f"need at least 2 players, got {n}")
        if len(self.Q) != n or len(self.Y) != n:
            raise GameError(
                f"process counts differ: X has {n}, Q has {len(self.Q)}, "
                f"Y has {len(self.Y)}"
            )
        for name, procs in (("X", self.X), ("Q", self.Q), ("Y", self.Y)):
            for i, proc in enumerate(procs):
                if len(proc.values) != self.tree.n_nodes:
                    raise GameError(
                        f"player {i}: {name} has {len(proc.values)} values "
                        f"but tree has {self.tree.n_nodes} nodes"
                    )

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
    trigger_q: float
    trigger_y: float
    blocking_x: float
    blocking_y: float


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
    """
    tree = spec.tree
    a3 = []
    a4 = []
    n = spec.n_players
    for v in range(tree.n_nodes):
        for i in range(n):
            x, q, y = spec.X[i][v], spec.Q[i][v], spec.Y[i][v]
            if x > q or q > y:
                a3.append(A3Violation(i, v, x, q, y))
        if tree.is_leaf(v):
            continue
        triggers = [
            i for i in range(n) if spec.Y[i][v] - spec.Q[i][v] > strict_tol
        ]
        if not triggers:
            continue
        blockers = [
            j for j in range(n)
            if not spec.Y[j][v] - spec.X[j][v] > strict_tol
        ]
        for i in triggers:
            for j in blockers:
                a4.append(
                    A4Violation(
                        node=v,
                        trigger_player=i,
                        blocking_player=j,
                        trigger_q=spec.Q[i][v],
                        trigger_y=spec.Y[i][v],
                        blocking_x=spec.X[j][v],
                        blocking_y=spec.Y[j][v],
                    )
                )
    return AssumptionReport(tuple(a3), tuple(a4), strict_tol)


def end_payoff(spec: GameSpec, player: int) -> AdaptedProcess:
    """Value the player receives when opponents end the game at a node:
    their Y strictly before the horizon, their Q at it."""
    tree = spec.tree
    y = spec.Y[player].values
    q = spec.Q[player].values
    return AdaptedProcess(
        tuple(q[v] if tree.is_leaf(v) else y[v] for v in range(tree.n_nodes))
    )


def cutoff_obstacle(
    spec: GameSpec, player: int, cutoff: StoppingTime
) -> AdaptedProcess:
    """Obstacle for the player's one-sided problem given an opponents'
    cutoff: X strictly before the cutoff, then the end payoff taken at
    the cutoff node and frozen along the rest of each path."""
    _check_stop(spec.tree, cutoff)
    ep = end_payoff(spec, player).values
    return _freeze(spec, spec.X[player].values, ep, ep, cutoff)


def best_response_process(
    spec: GameSpec, player: int, others: Sequence[StoppingTime]
) -> AdaptedProcess:
    """Process H whose stopped expectation reproduces the player's
    payoff against the fixed opponents.

    Let R be the earliest stop among ``others``.  H equals X strictly
    before R, Q at the R node, and the R node's Y frozen on the rest of
    each path.
    """
    rival = _rival_time(spec, player, others)
    return _freeze(spec, spec.X[player].values, spec.Q[player].values,
                   spec.Y[player].values, rival)


def _freeze(spec, x, at, below, cut: StoppingTime) -> AdaptedProcess:
    """``x`` strictly before the cut, ``at`` on the cut node, and the cut
    node's ``below`` value frozen on the rest of each path."""
    first = _first_on_path(spec.tree, cut.stop_set)
    out = list(x)
    for v, a in enumerate(first):
        if a == v:
            out[v] = at[v]
        elif a >= 0:
            out[v] = below[a]
    return AdaptedProcess(tuple(out))


def payoff(
    spec: GameSpec, player: int, profile: Sequence[StoppingTime]
) -> float:
    """Expected yield for ``player`` under a full stopping profile.

    On each root-to-leaf path, with t the player's stopping depth and r
    the earliest opponent stopping depth: the player collects X at its
    own stop node when t < r, Q there when t == r, and Y at the
    opponents' stop node when t > r.  The result is the probability-
    weighted sum over leaves.
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


def _insertion_payoff(spec, player, rival: StoppingTime, tau: StoppingTime):
    """Payoff against the opponents' earliest stop; shared by the profile
    evaluator and the brute-force responder so both use one case split."""
    x = spec.X[player].values
    q = spec.Q[player].values
    y = spec.Y[player].values
    probs = spec.tree.leaf_probs
    t_depths = tau.depth_by_leaf
    t_nodes = tau.node_by_leaf
    r_depths = rival.depth_by_leaf
    r_nodes = rival.node_by_leaf
    terms = []
    for k, p in enumerate(probs):
        t = t_depths[k]
        r = r_depths[k]
        if t < r:
            val = x[t_nodes[k]]
        elif t == r:
            val = q[t_nodes[k]]
        else:
            val = y[r_nodes[k]]
        terms.append(p * val)
    return math.fsum(terms)


def _tie_gap(spec, player, tau: StoppingTime, cut: StoppingTime) -> float:
    """Expected Y - Q gap collected where ``tau`` stops together with
    ``cut`` strictly before the horizon."""
    y = spec.Y[player].values
    q = spec.Q[player].values
    horizon = spec.tree.horizon
    terms = []
    for k, p in enumerate(spec.tree.leaf_probs):
        d = tau.depth_by_leaf[k]
        if d == cut.depth_by_leaf[k] and d < horizon:
            v = tau.node_by_leaf[k]
            terms.append(p * (y[v] - q[v]))
    return math.fsum(terms)
