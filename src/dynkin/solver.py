"""Cyclic stopping-time iteration that drives the game to equilibrium.

Players start at the horizon and are updated one at a time in a round-
robin.  On a player's turn the opponents' latest stopping times are
merged into a cutoff, the player's obstacle against it is built (the
cut walk and the fill :func:`~dynkin.game.cutoff_obstacle` runs), its
Snell envelope and earliest optimal stop are computed, and the
player's stopping time shrinks accordingly: on paths where stopping
early (but still before the cutoff) is optimal the stop moves up,
elsewhere it stays.  The per-player stopping times are non-increasing
along the iteration, so the process reaches a fixed point, the
returned equilibrium candidate.

:func:`run` owns one cache per player and hands the dict to every
:func:`step` through the private keyword ``_caches``.  A cache holds the
player's last record and, per node, its end payoff, envelope, hit
flags and flat-check gaps.  An update recomputes these only on the
root paths of the leaves whose cutoff stop moved (``_update``), with
the arithmetic of a full pass, then takes its first hits from one full
cut walk over the hit flags, so its record is bit for bit the full
recomputation's.  A cutoff equal to the player's previous one is a
no-op: the update rule ``m if m < t else o`` is idempotent for a fixed
earliest optimal stop and cutoff, so the player's previous record
repeats.  A player's first update, and every direct ``step(state,
spec)`` call, starts from an empty cache, where every node counts as
moved.  The caches are dropped when ``run`` returns; the audit and the
certifiers work from the records and the game alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import compress
from typing import Optional, Sequence

from .game import GameSpec, _fill_obstacle, end_payoff
from .snell import EQ_TOL, _backward
from .tree import (
    StoppingTime,
    _check_stop,
    _first_on_path,
    _marks,
    horizon_stop,
    leq,
    min_stop,
)


@dataclass(frozen=True)
class TraceRecord:
    """One player update: flat step index ``n``, the updated player,
    the opponents' cutoff, the earliest optimal stop of the one-sided
    problem, the player's new stopping time, the root envelope value,
    and the largest |envelope - obstacle| at or after the cutoff with
    the first node where it occurs."""

    n: int
    player: int
    theta: StoppingTime
    mu: StoppingTime
    tau: StoppingTime
    root_value: float
    flat_gap: float
    flat_node: int


@dataclass(frozen=True)
class SolverState:
    """Stopping times after the update with flat index ``n``, one record
    per update; every run starts from the horizon profile at ``n`` = N,
    the number of players (:func:`init_state`), so the first is N + 1."""

    n: int
    current: tuple[StoppingTime, ...]
    trace: tuple[TraceRecord, ...]


@dataclass(frozen=True)
class EquilibriumCandidate:
    """Limit profile of the iteration with its derived cutoffs."""

    T_star: tuple[StoppingTime, ...]
    R_star_i: tuple[StoppingTime, ...]
    R_star: StoppingTime
    rounds_used: int
    converged: bool


def make_candidate(
    T_star: Sequence[StoppingTime], rounds_used: int = 0, converged: bool = True
) -> EquilibriumCandidate:
    """Assemble a candidate from a profile, deriving each player's
    earliest-opponent cutoff and the overall earliest stop."""
    T = tuple(T_star)
    if len(T) < 2:
        raise ValueError("a candidate needs at least 2 players")
    R_i = tuple(
        min_stop(*(tau for j, tau in enumerate(T) if j != i))
        for i in range(len(T))
    )
    return EquilibriumCandidate(
        T_star=T,
        R_star_i=R_i,
        R_star=min_stop(*T),
        rounds_used=rounds_used,
        converged=converged,
    )


def init_state(spec: GameSpec) -> SolverState:
    """All players start by waiting until the horizon."""
    n = spec.n_players
    return SolverState(n=n, current=(horizon_stop(spec.tree),) * n, trace=())


class _Cache:
    """One player's last update: its record and, per node, the end
    payoff, and the envelope, hit flags and flat-check gaps against the
    record's cutoff.  Empty (``record`` None) before the player's first
    update."""

    __slots__ = ("record", "ep", "w", "hit", "gaps")

    def __init__(self):
        self.record = None


def step(state: SolverState, spec: GameSpec, *, _caches=None) -> SolverState:
    """Advance the iteration by one player update; ``_caches`` is
    :func:`run`'s per-player cache dict, else the update starts fresh.
    Every current time must live on the spec's tree with one stop per
    leaf, else :class:`~dynkin.tree.TreeError`."""
    tree = spec.tree
    n_next = state.n + 1
    player = state.n % spec.n_players
    for tau in state.current:
        _check_stop(tree, tau)
    theta = min_stop(*(t for j, t in enumerate(state.current) if j != player))
    old = state.current[player]
    caches = {} if _caches is None else _caches
    cache = caches.setdefault(player, _Cache())
    prev = cache.record

    if prev is not None and prev.tau is old and prev.theta == theta:
        # The same cutoff gives the same mu, and the update rule is
        # idempotent for fixed mu and cutoff: nothing moves.
        record = replace(prev, n=n_next)
    else:
        mu, root_value, flat_gap, flat_node = _update(
            spec, player, theta, cache
        )
        # Pathwise update: mu where it stops strictly before the cutoff,
        # else the old stop; the result stays canonical.  Where mu stops
        # before the cutoff it never passes the old stop, so this is
        # min(mu, old) there.  Ids grow along a path, so comparing stops
        # is comparing ids.
        chosen = [
            m if m < t else o
            for m, o, t in zip(
                mu.node_by_leaf, old.node_by_leaf, theta.node_by_leaf
            )
        ]
        record = TraceRecord(
            n=n_next,
            player=player,
            theta=theta,
            mu=mu,
            tau=StoppingTime(tree, chosen),
            root_value=root_value,
            flat_gap=flat_gap,
            flat_node=flat_node,
        )
    cache.record = record
    current = list(state.current)
    current[player] = record.tau
    return SolverState(n_next, tuple(current), state.trace + (record,))


def _update(spec: GameSpec, player: int, theta: StoppingTime, cache: _Cache):
    """Bring the player's cache from its last cutoff to ``theta``; return
    the earliest optimal stop, the root value, and the flat check's
    largest |envelope - obstacle| at or after the cutoff with the first
    node where it occurs (a NaN gap never counts).

    Only the root paths of the leaves whose cutoff stop moved are
    recomputed, in the same order and with the same arithmetic as a full
    pass: the cut and the obstacle top-down, the envelope and the hit
    flags bottom-up.  The first hits then come from one full cut walk
    over the hit flags.  An empty cache counts every leaf as moved.
    Cutoffs are canonical, so a node off the moved paths keeps its cut,
    and a node on them is a stop only of moved leaves.
    """
    tree = spec.tree
    n = tree.n_nodes
    if cache.record is None:
        cache.ep = end_payoff(spec, player)
        cache.w = [0.0] * n
        cache.hit = _marks(tree, tree.leaves)  # every leaf is a hit
        # A leaf is at or after every cutoff, and its envelope is its
        # obstacle, which is finite: its gap is 0.0 for good.
        cache.gaps = [0.0] * n
        leaves, stops = tree.leaves, theta.node_by_leaf
    else:
        moved = list(map(
            operator.ne, cache.record.theta.node_by_leaf, theta.node_by_leaf
        ))
        leaves = list(compress(tree.leaves, moved))
        stops = list(compress(theta.node_by_leaf, moved))
    # every moved root path, or every node when every leaf moved
    internal = (tree.internal if len(leaves) == len(tree.leaves)
                else _root_paths(tree, leaves))
    down = [*reversed(internal), *leaves]  # every parent first

    # The envelope is built in place over the obstacle.
    w, hit, gaps, ep = cache.w, cache.hit, cache.gaps, cache.ep
    cut = _first_on_path(tree, _marks(tree, stops), down, [-1] * n)
    _fill_obstacle(w, down, cut, spec.X[player], ep)
    _backward(tree, w, hit, internal)
    first = _first_on_path(tree, hit)

    # At and after the cutoff the obstacle is the cut node's end payoff,
    # and at a hit the envelope is the obstacle.
    for v in internal:
        a = cut[v]
        if a < 0:
            gaps[v] = -1.0
        elif hit[v]:
            gaps[v] = 0.0
        else:
            gap = abs(w[v] - ep[a])
            gaps[v] = gap if gap >= 0.0 else -1.0
    flat_gap = max(gaps)  # every leaf counts, with gap 0.0
    mu = StoppingTime(tree, map(first.__getitem__, tree.leaves))
    return mu, w[0], flat_gap, gaps.index(flat_gap)


def _root_paths(tree, leaves):
    """The internal nodes on the root paths of ``leaves``, children
    first."""
    parents = tree.parents
    on = bytearray(tree.n_nodes)
    internal = []
    for leaf in leaves:
        on[leaf] = 1
        v = parents[leaf]
        while v is not None and not on[v]:
            on[v] = 1
            internal.append(v)
            v = parents[v]
    internal.sort(reverse=True)
    return internal


def default_round_bound(spec: GameSpec) -> int:
    tree = spec.tree
    return spec.n_players * len(tree.leaves) * tree.horizon + 2


def run(
    spec: GameSpec, max_rounds: Optional[int] = None
) -> tuple[EquilibriumCandidate, SolverState]:
    """Iterate full rounds until a round changes nothing.

    Non-convergence within ``max_rounds`` is reported through the
    candidate's ``converged`` flag, never silently.  A negative
    ``max_rounds`` raises :class:`ValueError`.
    """
    if max_rounds is None:
        max_rounds = default_round_bound(spec)
    elif max_rounds < 0:
        raise ValueError(f"max_rounds must be at least 0, got {max_rounds}")
    state = init_state(spec)
    caches: dict = {}

    converged = False
    rounds_used = 0
    for _ in range(max_rounds):
        before = state.current
        for _ in range(spec.n_players):
            state = step(state, spec, _caches=caches)
        rounds_used += 1
        if before == state.current:
            converged = True
            break
    candidate = make_candidate(
        state.current, rounds_used=rounds_used, converged=converged
    )
    return candidate, state


@dataclass(frozen=True)
class AuditViolation:
    n: int
    check: str
    detail: str


def audit_iteration(
    state: SolverState, tol: float = EQ_TOL
) -> list[AuditViolation]:
    """Re-check the bookkeeping identities of every recorded update.

    Checked per record: the earliest optimal stop never passes the
    cutoff; each player's stopping time is non-increasing between its
    consecutive updates; the earliest optimal stop equals the minimum
    of the new stopping time and the cutoff; the new stopping time
    follows the pathwise update rule; the envelope equals the obstacle
    at and after the cutoff (a NaN gap or ``tol`` is a violation); and
    the next update's earliest optimal stop never passes this update's
    stopping time.  A record's times on different trees, or with a
    stop count other than the leaf count, raise
    :class:`~dynkin.tree.TreeError`.
    """
    violations: list[AuditViolation] = []
    if not state.trace:
        return violations
    by_n = {rec.n: rec for rec in state.trace}
    n_players = len(state.current)
    tree = state.trace[0].tau.tree
    hor = horizon_stop(tree)

    for rec in state.trace:
        if not leq(rec.mu, rec.theta):
            violations.append(
                AuditViolation(rec.n, "mu_leq_theta",
                               "earliest optimal stop passes the cutoff")
            )
        prev_rec = by_n.get(rec.n - n_players)
        prev_tau = prev_rec.tau if prev_rec is not None else hor
        if not leq(rec.tau, prev_tau):
            violations.append(
                AuditViolation(rec.n, "tau_monotone",
                               "stopping time increased between updates")
            )
        if min_stop(rec.tau, rec.theta) != rec.mu:
            violations.append(
                AuditViolation(rec.n, "mu_eq_min_tau_theta",
                               "earliest optimal stop is not the minimum "
                               "of the new stop and the cutoff")
            )
        tau = rec.tau.node_by_leaf
        rule = [m if m < t else o for m, t, o in zip(
            rec.mu.node_by_leaf, rec.theta.node_by_leaf,
            prev_tau.node_by_leaf)]
        if rule != list(tau):
            bad_leaf = next(leaf for leaf, want, got
                            in zip(tree.leaves, rule, tau) if want != got)
            violations.append(
                AuditViolation(rec.n, "tau_update_rule",
                               f"update rule broken on the path to leaf "
                               f"{bad_leaf}")
            )
        if not rec.flat_gap <= tol:  # a NaN gap or tol fails closed
            violations.append(
                AuditViolation(rec.n, "envelope_flat_after_cutoff",
                               f"envelope differs from obstacle at "
                               f"node {rec.flat_node} beyond the cutoff")
            )
        nxt = by_n.get(rec.n + n_players)
        if nxt is not None and not leq(nxt.mu, rec.tau):
            violations.append(
                AuditViolation(rec.n, "next_mu_leq_tau",
                               "next update's earliest optimal stop passes "
                               "this update's stopping time")
            )
    return violations
