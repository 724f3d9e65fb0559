"""Cyclic stopping-time iteration that drives the game to equilibrium.

Players start at the horizon and are updated one at a time in a round-
robin.  On a player's turn the opponents' latest stopping times are
merged into a cutoff, the player's obstacle against it is built (by
:func:`~dynkin.game.cutoff_obstacle`'s routine), its Snell envelope and
earliest optimal stop are computed, and the player's stopping time
shrinks accordingly: on paths where stopping early (but still before
the cutoff) is optimal the stop moves up, elsewhere it stays.  The
per-player stopping times are non-increasing along the iteration, so
the process reaches a fixed point, the returned equilibrium candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .game import GameSpec, _cut_obstacle
from .snell import EQ_TOL, snell_envelope
from .tree import StoppingTime, horizon_stop, leq, min_stop


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


def step(state: SolverState, spec: GameSpec) -> SolverState:
    """Advance the iteration by one player update."""
    tree = spec.tree
    n_next = state.n + 1
    player = state.n % spec.n_players
    theta = min_stop(*(t for j, t in enumerate(state.current) if j != player))
    # One cut walk feeds the obstacle and the flat check.
    cut, obstacle = _cut_obstacle(spec, player, theta)
    res = snell_envelope(tree, obstacle)
    mu = res.first_hit
    old = state.current[player]

    # From the cutoff on, the envelope must equal the frozen obstacle.
    w = res.envelope
    flat_gap, flat_node = -1.0, -1
    for v, a in enumerate(cut):
        if a >= 0:
            gap = abs(w[v] - obstacle[v])
            if gap > flat_gap:
                flat_gap, flat_node = gap, v

    # Pathwise update: mu where it stops strictly before the cutoff, else
    # the old stop; the result stays canonical.  Where mu stops before the
    # cutoff it never passes the old stop, so this is min(mu, old) there.
    # Ids grow along a path, so comparing stops is comparing ids.
    chosen = [
        m if m < t else o
        for m, o, t in zip(
            mu.node_by_leaf, old.node_by_leaf, theta.node_by_leaf
        )
    ]
    tau_new = StoppingTime(tree, chosen)

    record = TraceRecord(
        n=n_next,
        player=player,
        theta=theta,
        mu=mu,
        tau=tau_new,
        root_value=res.root_value,
        flat_gap=flat_gap,
        flat_node=flat_node,
    )
    current = list(state.current)
    current[player] = tau_new
    return SolverState(
        n=n_next,
        current=tuple(current),
        trace=state.trace + (record,),
    )


def default_round_bound(spec: GameSpec) -> int:
    tree = spec.tree
    return spec.n_players * len(tree.leaves) * tree.horizon + 2


def run(
    spec: GameSpec, max_rounds: Optional[int] = None
) -> tuple[EquilibriumCandidate, SolverState]:
    """Iterate full rounds until a round changes nothing.

    Non-convergence within ``max_rounds`` is reported through the
    candidate's ``converged`` flag, never silently.
    """
    if max_rounds is None:
        max_rounds = default_round_bound(spec)
    state = init_state(spec)

    converged = False
    rounds_used = 0
    for _ in range(max_rounds):
        before = state.current
        for _ in range(spec.n_players):
            state = step(state, spec)
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
    at and after the cutoff; and the next update's earliest optimal
    stop never passes this update's stopping time.
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
        prev_tau = (
            prev_rec.tau if prev_rec is not None else hor
        )
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
        bad_leaf = None
        for leaf, m, t, o, got in zip(
            tree.leaves,
            rec.mu.node_by_leaf,
            rec.theta.node_by_leaf,
            prev_tau.node_by_leaf,
            rec.tau.node_by_leaf,
        ):
            if got != (m if m < t else o):
                bad_leaf = leaf
                break
        if bad_leaf is not None:
            violations.append(
                AuditViolation(rec.n, "tau_update_rule",
                               f"update rule broken on the path to leaf "
                               f"{bad_leaf}")
            )
        if rec.flat_gap > tol:
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
