"""Independent certification of candidate equilibria.

Two routes are kept deliberately separate: the envelope-based best
response (fast, used for certificates) and a brute-force best response
that enumerates every stopping time and evaluates raw payoffs (slow,
used as an oracle against the fast route on small trees).  The oracle
sums the terms :func:`~dynkin.game.payoff` sums (per leaf, its
probability times the raw X, Q or Y value collected) exactly, as
integers shared over subtrees, and rounds each time's sum once: each
score is the value ``payoff`` gives the time.  Rounding is monotone, so
the best value rounds the largest sum, and the earliest maximizer stops,
on each path, at the first node where the best time stopping there
ties: exact subtree maxima, one pass up and one down, give that time's
sum per node.  The witness's obstacles come from
:func:`~dynkin.game.cutoff_obstacle`'s routine, as the solver's do; the
witness builds its envelope over each one and checks it in one pass of
its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .game import (
    GameSpec,
    best_response_process,
    _check_count,
    _collected,
    _cut_obstacle,
    _insertion_payoff,
    _rival_process,
    _rival_time,
    _tie_gap,
)
from .snell import EQ_TOL, snell_envelope
from .solver import EquilibriumCandidate
from .tree import (
    StoppingTime,
    _check_stop,
    _first_on_path,
    _joined,
    _marks,
    _stop_counts,
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

    Scores are exact sums rounded once (see the module docstring).  The
    best value rounds the largest exact sum.  Ties within
    ``BRUTE_TIE_TOL`` of it are resolved toward the pathwise-smallest
    maximizer, matching the earliest-hit convention of the envelope
    route: on each path it stops at the first node where the best time
    stopping there ties.  A tree with more stopping times than ``cap``,
    or any tree at a NaN cap, raises
    :class:`~dynkin.tree.EnumerationCapError`.
    """
    tree = spec.tree
    rival = _rival_time(spec, player, others)
    first = _first_on_path(tree, _marks(tree, rival.node_by_leaf))
    _stop_counts(tree, cap)
    # Per node, the exact sum over its leaves of the terms for stopping
    # there, as an integer at one power-of-two scale.
    parents, prob = tree.parents, tree.prob
    nodes, rivals, probs = [], [], []
    for leaf in tree.leaves:
        path = [leaf]
        while path[-1]:
            path.append(parents[path[-1]])
        nodes += path
        rivals += [first[leaf]] * len(path)
        probs += [prob[leaf]] * len(path)
    vals = _collected(spec, player, nodes, rivals)
    terms = [(p * val).as_integer_ratio() for p, val in zip(probs, vals)]
    scale = max(den for _, den in terms)
    stop = [0] * tree.n_nodes
    for v, (num, den) in zip(nodes, terms):
        stop[v] += num * (scale // den)
    sums = _joined(tree, lambda v, _: stop[v])
    inv = 1 / scale

    def score(n):
        # float(n) is correctly rounded and scaling it by 1 / scale exact:
        # where the score is subnormal, n is below 2**52.
        try:
            return float(n) * inv
        except OverflowError:  # beyond the float range, ``_fsum``'s rule:
            top = (2**1024 - 2**970) * scale  # the least sum rounding to inf
            return (n / scale if -top < n < top else
                    math.inf if n > 0 else -math.inf)

    # Rounding is monotone in n, so the top sum gives the top score, and
    # a tied time stops at v exactly when the best time stopping there
    # ties.  Per node: ``most``, the top sum of a time of its subtree,
    # ``inner``, its children's ``most`` summed, and ``rest``, the top
    # sum off its subtree of a time that stops there.
    best_val = score(max(sums))
    low = best_val - BRUTE_TIE_TOL
    most, inner, rest = stop[:], [0] * tree.n_nodes, [0] * tree.n_nodes
    for v in tree.internal:
        inner[v] = sum(most[c] for c in tree.children[v])
        most[v] = max(stop[v], inner[v])
    for v in reversed(tree.internal):
        for c in tree.children[v]:
            rest[c] = rest[v] + inner[v] - most[c]
    # The maximizers' pathwise minimum stops where one of them stops first.
    marked = [score(n + r) >= low for n, r in zip(stop, rest)]
    cut = _first_on_path(tree, marked)
    return best_val, StoppingTime(tree, map(cut.__getitem__, tree.leaves))


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
        # a NaN gap wins: max() alone skips a NaN that does not come first
        return max((p.gap for p in self.players), key=lambda g: (g != g, g))


def verify_nash(
    spec: GameSpec, profile: Sequence[StoppingTime], tol: float = EQ_TOL
) -> NashCertificate:
    """Compare each player's payoff under the profile against their
    best response to the rest of it.  The opponents' earliest stop is
    derived once per player, for both, after
    :func:`~dynkin.game.payoff`'s checks in its order."""
    profile = tuple(profile)
    _check_count(spec, profile)
    entries = []
    for i in range(spec.n_players):
        _check_stop(spec.tree, profile[i])
        rival = _rival_time(spec, i, profile[:i] + profile[i + 1:])
        j_i = _insertion_payoff(spec, i, rival, profile[i])
        h = _rival_process(spec, i, rival)
        value = snell_envelope(spec.tree, h).root_value
        entries.append(PlayerCertificate(i, j_i, value, value - j_i))
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
    :class:`StreamlinePlayerCheck`) at the candidate.  The candidate must
    hold one time per player, else ``GameError``, and every time must
    live on the spec's tree, else ``TreeError``."""
    tree = spec.tree
    children = tree.children
    cond = tree.cond_probs
    _check_count(spec, candidate.T_star, candidate.R_star_i)
    for tau in (candidate.R_star, *candidate.T_star, *candidate.R_star_i):
        _check_stop(tree, tau)
    joint = _first_on_path(tree, _marks(tree, candidate.R_star.node_by_leaf))
    last = tree.n_nodes - 1
    checks = []
    for i in range(spec.n_players):
        t_i = candidate.T_star[i]
        r_i = candidate.R_star_i[i]
        cut, w = _cut_obstacle(spec, i, r_i)
        x, y, q = spec.X[i], spec.Y[i], spec.Q[i]
        ends = [w[a] for a in r_i.node_by_leaf]  # before the pass's writes

        # One pass, children first: the envelope in place at internal
        # nodes by ``snell._backward``'s rule, and the checks before either
        # cut.  On hand-built candidates R_star may pass the cutoff, and a
        # leaf may lie before a cut (``cont`` is 0.0 there).
        martingale_ok = supermartingale_ok = dominance_ok = True
        for v, kids in zip(range(last, -1, -1), reversed(children)):
            cont = 0.0
            for c in kids:
                cont += cond[c] * w[c]
            u = w[v]
            if kids and not u >= cont - EQ_TOL:
                u = w[v] = cont
            if joint[v] < 0 and not abs(u - cont) <= tol:
                martingale_ok = False
            if cut[v] < 0:
                if not u >= cont - tol:
                    supermartingale_ok = False
                if not u >= x[v] - tol:
                    dominance_ok = False
        hit_equality_ok = boundary_ok = residual_ok = True
        for v, a, end in zip(t_i.node_by_leaf, r_i.node_by_leaf, ends):
            if cut[v] < 0 and not abs(w[v] - x[v]) <= tol:
                hit_equality_ok = False
            if not abs(w[a] - end) <= tol:
                boundary_ok = False
            if v == a and children[v] and not abs(y[v] - q[v]) <= tol:
                residual_ok = False

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
    horizon.  Zero for a sound equilibrium.  The candidate must hold one
    time per player, else ``GameError``, and every time it reads must
    live on the spec's tree with one stop per leaf, else ``TreeError``."""
    _check_count(spec, candidate.T_star, candidate.R_star_i)
    for tau in (*candidate.T_star, *candidate.R_star_i):
        _check_stop(spec.tree, tau)
    return tuple(
        _tie_gap(spec, i, candidate.T_star[i], candidate.R_star_i[i])
        for i in range(spec.n_players)
    )
