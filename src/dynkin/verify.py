"""Independent certification of candidate equilibria.

Two routes are kept deliberately separate: the envelope-based best
response (fast, used for certificates) and a brute-force best response
that enumerates every stopping time and evaluates raw payoffs (slow,
used as an oracle against the fast route on small trees).  The oracle
scores each enumerated time on its raw per-leaf stop tuple: per leaf,
a table holds the leaf's probability times the raw X, Q or Y value
collected at each node of its path against the opponents' earliest
stop there, and a time scores the ``math.fsum`` of its entries, the
correctly rounded sum :func:`~dynkin.game.payoff` also takes.  Only the
maximizers become :class:`~dynkin.tree.StoppingTime` objects.  The
witness's obstacles come from :func:`~dynkin.game.cutoff_obstacle`'s
routine, as the solver's do.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .game import (
    GameSpec,
    best_response_process,
    payoff,
    _collected,
    _cut_obstacle,
    _fsum,
    _rival_time,
    _tie_gap,
)
from .snell import EQ_TOL, snell_envelope
from .solver import EquilibriumCandidate
from .tree import (
    StoppingTime,
    _check_stop,
    _depth_first_stops,
    _first_on_path,
    _marks,
    min_stop,
    DEFAULT_ENUM_CAP,
)

BRUTE_TIE_TOL = 1e-12


def best_response(
    spec: GameSpec, player: int, others: Sequence[StoppingTime]
) -> tuple[float, StoppingTime]:
    """Best payoff the player can reach against fixed opponents, with
    the earliest stopping time attaining it."""
    h = best_response_process(spec, player, others)
    res = snell_envelope(spec.tree, h)
    return res.root_value, res.first_hit


def brute_force_best_response(
    spec: GameSpec,
    player: int,
    others: Sequence[StoppingTime],
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[float, StoppingTime]:
    """Enumerate every stopping time and maximize the raw payoff.

    Scores come from per-leaf tables (see the module docstring).  Ties
    within ``BRUTE_TIE_TOL`` of the maximum are resolved toward the
    pathwise-smallest maximizer, matching the earliest-hit convention
    of the envelope route.
    """
    tree = spec.tree
    rival = _rival_time(spec, player, others)
    first = _first_on_path(tree, _marks(tree, rival.node_by_leaf))
    stops, order = _depth_first_stops(tree, cap)
    parents = tree.parents
    tables = []
    for leaf in stops[-1]:  # the leaves in depth-first order
        path = [leaf]
        while path[-1]:
            path.append(parents[path[-1]])
        p = tree.prob[leaf]
        vals = _collected(spec, player, path, itertools.repeat(first[leaf]))
        tables.append({v: p * val for v, val in zip(path, vals)})
    try:
        scores = [
            math.fsum(map(operator.getitem, tables, nodes)) for nodes in stops
        ]
    except OverflowError:  # a sum passed the float range: ``payoff``'s rule
        scores = [_fsum([*map(operator.getitem, tables, nodes)])
                  for nodes in stops]
    best_val = max(scores)
    winners = [
        StoppingTime(tree, map(nodes.__getitem__, order))
        for val, nodes in zip(scores, stops)
        if val >= best_val - BRUTE_TIE_TOL
    ]
    return best_val, min_stop(*winners)


@dataclass(frozen=True)
class PlayerCertificate:
    player: int
    equilibrium_payoff: float
    best_response_value: float
    gap: float


@dataclass(frozen=True)
class NashCertificate:
    players: tuple[PlayerCertificate, ...]
    is_nash: bool
    tol: float

    @property
    def max_gap(self) -> float:
        return max(p.gap for p in self.players)


def verify_nash(
    spec: GameSpec, profile: Sequence[StoppingTime], tol: float = EQ_TOL
) -> NashCertificate:
    """Compare each player's payoff under the profile against their
    best response to the rest of it."""
    profile = tuple(profile)
    entries = []
    for i in range(spec.n_players):
        j_i = payoff(spec, i, profile)
        others = tuple(t for j, t in enumerate(profile) if j != i)
        value, _ = best_response(spec, i, others)
        entries.append(
            PlayerCertificate(
                player=i,
                equilibrium_payoff=j_i,
                best_response_value=value,
                gap=value - j_i,
            )
        )
    is_nash = all(e.gap <= tol for e in entries)
    return NashCertificate(tuple(entries), is_nash, tol)


@dataclass(frozen=True)
class StreamlinePlayerCheck:
    """Envelope-witness conditions for one player at a candidate.

    The witness is the Snell envelope of the player's obstacle against
    their opponents' cutoff; only the booleans are kept.  They record:
    the witness is a martingale strictly before the overall earliest
    stop and a supermartingale strictly before the opponents' cutoff;
    it dominates X strictly before that cutoff and meets X where the
    player actually stops strictly before it; at the cutoff it equals Y
    (before the horizon) or Q (at it); and Y meets Q wherever the
    player's stop coincides with the cutoff strictly before the horizon.
    """

    player: int
    martingale_ok: bool
    supermartingale_ok: bool
    dominance_ok: bool
    hit_equality_ok: bool
    boundary_ok: bool
    residual_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.martingale_ok
            and self.supermartingale_ok
            and self.dominance_ok
            and self.hit_equality_ok
            and self.boundary_ok
            and self.residual_ok
        )


@dataclass(frozen=True)
class StreamlineCertificate:
    players: tuple[StreamlinePlayerCheck, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.players)


def verify_streamline(
    spec: GameSpec, candidate: EquilibriumCandidate, tol: float = EQ_TOL
) -> StreamlineCertificate:
    """Check each player's envelope witness (see
    :class:`StreamlinePlayerCheck`) at the candidate.  Every time of the
    candidate must live on the spec's tree, else ``TreeError``."""
    tree = spec.tree
    children = tree.children
    cond = tree.cond_probs
    for tau in (candidate.R_star, *candidate.T_star, *candidate.R_star_i):
        _check_stop(tree, tau)
    joint = _first_on_path(tree, _marks(tree, candidate.R_star.node_by_leaf))
    checks = []
    for i in range(spec.n_players):
        t_i = candidate.T_star[i]
        r_i = candidate.R_star_i[i]
        cut, obstacle = _cut_obstacle(spec, i, r_i)
        x = spec.X[i]
        w = snell_envelope(tree, obstacle).envelope

        # One walk; on hand-built candidates R_star may pass the cutoff.
        martingale_ok = supermartingale_ok = dominance_ok = True
        for v in range(tree.n_nodes):
            before_joint = joint[v] < 0
            before_cut = cut[v] < 0
            if not (before_joint or before_cut):
                continue
            cont = 0.0
            for c in children[v]:
                cont += cond[c] * w[c]
            u = w[v]
            if before_joint and not abs(u - cont) <= tol:
                martingale_ok = False
            if before_cut:
                if not u >= cont - tol:
                    supermartingale_ok = False
                if not w[v] >= x[v] - tol:
                    dominance_ok = False
        hit_equality_ok = all(
            abs(w[v] - x[v]) <= tol
            for v in t_i.node_by_leaf
            if cut[v] < 0
        )

        # On the cut the obstacle holds the end payoff.
        boundary_ok = all(
            abs(w[a] - obstacle[a]) <= tol for a in r_i.node_by_leaf
        )
        y = spec.Y[i]
        q = spec.Q[i]
        residual_ok = all(
            abs(y[v] - q[v]) <= tol
            for v, a in zip(t_i.node_by_leaf, r_i.node_by_leaf)
            if v == a and not tree.is_leaf(v)
        )

        checks.append(
            StreamlinePlayerCheck(
                player=i,
                martingale_ok=martingale_ok,
                supermartingale_ok=supermartingale_ok,
                dominance_ok=dominance_ok,
                hit_equality_ok=hit_equality_ok,
                boundary_ok=boundary_ok,
                residual_ok=residual_ok,
            )
        )
    return StreamlineCertificate(tuple(checks), tol)


def residual_yq(
    spec: GameSpec, candidate: EquilibriumCandidate
) -> tuple[float, ...]:
    """Per player, the expected Y - Q gap collected where their stop
    coincides with their opponents' earliest stop strictly before the
    horizon.  Zero for a sound equilibrium."""
    return tuple(
        _tie_gap(spec, i, candidate.T_star[i], candidate.R_star_i[i])
        for i in range(spec.n_players)
    )
