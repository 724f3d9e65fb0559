"""Cyclic stopping-time iteration that drives the game to equilibrium.

Players start at the horizon and are updated one at a time in a round-
robin.  On a player's turn the opponents' latest stopping times are
merged into a cutoff, the player's one-sided obstacle against that
cutoff is built, its Snell envelope and earliest optimal stop are
computed, and the player's stopping time shrinks accordingly: on paths
where stopping early (but still before the cutoff) is optimal the stop
moves up, elsewhere it stays.  The per-player stopping times are non-
increasing along the iteration, so the process reaches a fixed point;
the fixed point is the returned equilibrium candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .game import (
    GameSpec,
    cutoff_obstacle,
    _insertion_payoff,
    _rival_time,
    _tie_gap,
)
from .snell import snell_envelope
from .tree import (
    StoppingTime,
    _first_on_path,
    canonicalize,
    enumerate_stopping_times,
    horizon_stop,
    leq,
    min_stop,
    DEFAULT_ENUM_CAP,
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
    n: int
    current: tuple[StoppingTime, ...]
    trace: tuple[TraceRecord, ...]
    initial: tuple[StoppingTime, ...]


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
    hor = horizon_stop(spec.tree)
    n = spec.n_players
    profile = (hor,) * n
    return SolverState(n=n, current=profile, trace=(), initial=profile)


def step(state: SolverState, spec: GameSpec) -> SolverState:
    """Advance the iteration by one player update."""
    tree = spec.tree
    n_players = spec.n_players
    n_next = state.n + 1
    player = state.n % n_players
    others = tuple(
        tau for j, tau in enumerate(state.current) if j != player
    )
    theta = min_stop(*others)
    obstacle = cutoff_obstacle(spec, player, theta)
    res = snell_envelope(spec.tree, obstacle)
    mu = res.first_hit
    old = state.current[player]

    # From the cutoff on, the envelope must equal the frozen obstacle.
    cut = _first_on_path(tree, theta.stop_set)
    u = obstacle.values
    w = res.envelope.values
    flat_gap, flat_node = -1.0, -1
    for v, a in enumerate(cut):
        if a >= 0:
            gap = abs(w[v] - u[v])
            if gap > flat_gap:
                flat_gap, flat_node = gap, v

    # Pathwise update: move to min(mu, old) where that stop still falls
    # strictly before the cutoff, otherwise keep the old stop.
    chosen = []
    for k in range(len(spec.tree.leaves)):
        md, od, td = (
            mu.depth_by_leaf[k],
            old.depth_by_leaf[k],
            theta.depth_by_leaf[k],
        )
        if md <= od:
            early_node, early_depth = mu.node_by_leaf[k], md
        else:
            early_node, early_depth = old.node_by_leaf[k], od
        if early_depth < td:
            chosen.append(early_node)
        else:
            chosen.append(old.node_by_leaf[k])
    tau_new = canonicalize(chosen, spec.tree)

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
        initial=state.initial,
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
        if all(
            a.stop_set == b.stop_set for a, b in zip(before, state.current)
        ):
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
    state: SolverState, tol: float = 1e-9
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

    for rec in state.trace:
        if not leq(rec.mu, rec.theta):
            violations.append(
                AuditViolation(rec.n, "mu_leq_theta",
                               "earliest optimal stop passes the cutoff")
            )
        prev_rec = by_n.get(rec.n - n_players)
        prev_tau = (
            prev_rec.tau if prev_rec is not None else state.initial[rec.player]
        )
        if not leq(rec.tau, prev_tau):
            violations.append(
                AuditViolation(rec.n, "tau_monotone",
                               "stopping time increased between updates")
            )
        if min_stop(rec.tau, rec.theta).stop_set != rec.mu.stop_set:
            violations.append(
                AuditViolation(rec.n, "mu_eq_min_tau_theta",
                               "earliest optimal stop is not the minimum "
                               "of the new stop and the cutoff")
            )
        bad_leaf = None
        for k in range(len(tree.leaves)):
            md = rec.mu.depth_by_leaf[k]
            td = rec.theta.depth_by_leaf[k]
            want = (
                rec.mu.depth_by_leaf[k]
                if md < td
                else prev_tau.depth_by_leaf[k]
            )
            if rec.tau.depth_by_leaf[k] != want:
                bad_leaf = tree.leaves[k]
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


def audit_deviation_bound(
    spec: GameSpec,
    state: SolverState,
    cap: int = DEFAULT_ENUM_CAP,
    tol: float = 1e-9,
) -> list[AuditViolation]:
    """Check, for every recorded update, that no deviation beats the
    new stopping time by more than the simultaneous-stop slack.

    For the update of player i with cutoff theta and new stop tau, and
    for every alternative stopping time s, the payoff of s against the
    opponents' stopping times in force at that update must not exceed
    the payoff of tau plus the expected Y - Q gap collected where tau
    meets the cutoff strictly before the horizon.
    """
    violations: list[AuditViolation] = []
    if not state.trace:
        return violations
    alternatives = list(enumerate_stopping_times(spec.tree, cap))
    latest = list(state.initial)

    for rec in state.trace:
        others = [t for j, t in enumerate(latest) if j != rec.player]
        rival = _rival_time(spec, rec.player, others)
        base = _insertion_payoff(spec, rec.player, rival, rec.tau)
        slack = _tie_gap(spec, rec.player, rec.tau, rec.theta)
        bound = base + slack
        for alt in alternatives:
            val = _insertion_payoff(spec, rec.player, rival, alt)
            if val > bound + tol:
                violations.append(
                    AuditViolation(
                        rec.n,
                        "deviation_bound",
                        f"deviation {sorted(alt.stop_set)} earns "
                        f"{val!r} against bound {bound!r}",
                    )
                )
                break
        latest[rec.player] = rec.tau
    return violations

