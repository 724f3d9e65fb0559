"""Independent certification of candidate equilibria.

Two routes are kept deliberately separate: the envelope-based best
response (fast, used for certificates) and a brute-force best response
that enumerates every stopping time and evaluates raw payoffs (slow,
used as an oracle against the fast route on small trees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .game import (
    GameSpec,
    best_response_process,
    cutoff_obstacle,
    payoff,
    _insertion_payoff,
    _rival_time,
    _tie_gap,
)
from .snell import (
    is_martingale_before,
    is_supermartingale_before,
    snell_envelope,
)
from .solver import EquilibriumCandidate
from .tree import (
    AdaptedProcess,
    StoppingTime,
    _first_on_path,
    enumerate_stopping_times,
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
    tie_tol: float = BRUTE_TIE_TOL,
) -> tuple[float, StoppingTime]:
    """Enumerate every stopping time and maximize the raw payoff.

    Ties within ``tie_tol`` of the maximum are resolved toward the
    pathwise-smallest maximizer, matching the earliest-hit convention
    of the envelope route.
    """
    rival = _rival_time(spec, player, others)
    best_val = -math.inf
    values = []
    candidates = []
    for tau in enumerate_stopping_times(spec.tree, cap):
        val = _insertion_payoff(spec, player, rival, tau)
        candidates.append(tau)
        values.append(val)
        if val > best_val:
            best_val = val
    winners = [
        tau for tau, val in zip(candidates, values)
        if val >= best_val - tie_tol
    ]
    return best_val, min_stop(*winners)


@dataclass(frozen=True)
class PlayerCertificate:
    player: int
    equilibrium_payoff: float
    best_response_value: float
    gap: float
    best_response_time: StoppingTime


@dataclass(frozen=True)
class NashCertificate:
    players: tuple[PlayerCertificate, ...]
    is_nash: bool
    tol: float

    @property
    def max_gap(self) -> float:
        return max(p.gap for p in self.players)


def verify_nash(
    spec: GameSpec, profile: Sequence[StoppingTime], tol: float = 1e-9
) -> NashCertificate:
    """Compare each player's payoff under the profile against their
    best response to the rest of it."""
    profile = tuple(profile)
    entries = []
    for i in range(spec.n_players):
        j_i = payoff(spec, i, profile)
        others = tuple(t for j, t in enumerate(profile) if j != i)
        value, argmax = best_response(spec, i, others)
        entries.append(
            PlayerCertificate(
                player=i,
                equilibrium_payoff=j_i,
                best_response_value=value,
                gap=value - j_i,
                best_response_time=argmax,
            )
        )
    is_nash = all(e.gap <= tol for e in entries)
    return NashCertificate(tuple(entries), is_nash, tol)


@dataclass(frozen=True)
class StreamlinePlayerCheck:
    """Envelope-witness conditions for one player at a candidate.

    ``witness`` is the Snell envelope of the player's obstacle against
    their opponents' cutoff.  The booleans record: the witness is a
    martingale strictly before the overall earliest stop and a
    supermartingale strictly before the opponents' cutoff; it dominates
    X strictly before that cutoff and meets X where the player actually
    stops strictly before it; at the cutoff it equals Y (before the
    horizon) or Q (at it); and Y meets Q wherever the player's stop
    coincides with the cutoff strictly before the horizon.
    """

    player: int
    martingale_ok: bool
    supermartingale_ok: bool
    dominance_ok: bool
    hit_equality_ok: bool
    boundary_ok: bool
    residual_ok: bool
    witness: AdaptedProcess

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
    spec: GameSpec, candidate: EquilibriumCandidate, tol: float = 1e-9
) -> StreamlineCertificate:
    tree = spec.tree
    checks = []
    for i in range(spec.n_players):
        t_i = candidate.T_star[i]
        r_i = candidate.R_star_i[i]
        w = snell_envelope(tree, cutoff_obstacle(spec, i, r_i)).envelope

        martingale_ok = is_martingale_before(tree, w, candidate.R_star, tol)
        supermartingale_ok = is_supermartingale_before(tree, w, r_i, tol)

        cut = _first_on_path(tree, r_i.stop_set)
        x = spec.X[i].values
        dominance_ok = all(
            w.values[v] >= x[v] - tol
            for v in range(tree.n_nodes)
            if cut[v] < 0
        )
        hit_equality_ok = all(
            abs(w.values[v] - x[v]) <= tol
            for v in t_i.stop_set
            if cut[v] < 0
        )

        y = spec.Y[i].values
        q = spec.Q[i].values
        boundary_ok = True
        for a in r_i.stop_set:
            target = q[a] if tree.is_leaf(a) else y[a]
            if abs(w.values[a] - target) > tol:
                boundary_ok = False
                break
        residual_ok = all(
            abs(y[v] - q[v]) <= tol
            for v in (r_i.stop_set & t_i.stop_set)
            if not tree.is_leaf(v)
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
                witness=w,
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
