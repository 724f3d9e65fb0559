"""Shared builders and reference checks for the test suite.

Seeded random trees, processes, and stopping times used by both the
module tests and the acceptance suite, plus checks only tests use:
fixed-depth stops, expectations at a stopping time, the one-step
(super)martingale condition, the brute-force deviation audit, the
game document as a dict, the reference the game writer is checked
against, and the depth-comparing pathwise minimum, order and
brute-force best response the id-comparing package routes are checked
against, and the leaf-branching envelope, stopping-time count and
enumeration the kernels over ``tree.internal`` are checked against,
the full-recomputation solver update and run the cached solver is
checked against, and the node-by-node assumption check the whole-array
one is checked against.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from dynkin import (
    AssumptionReport,
    AuditViolation,
    GameSpec,
    ScenarioTree,
    SolverState,
    StoppingTime,
    TraceRecord,
    TreeError,
    canonicalize,
    default_round_bound,
    end_payoff,
    enumerate_stopping_times,
    horizon_stop,
    init_state,
    make_candidate,
    min_stop,
)
from dynkin.game import (
    A3Violation,
    A4Violation,
    _insertion_payoff,
    _rival_time,
    _tie_gap,
)
from dynkin.snell import EQ_TOL, SnellResult
from dynkin.tree import (
    DEFAULT_ENUM_CAP,
    EnumerationCapError,
    _check_process,
    _check_stop,
)
from dynkin.verify import BRUTE_TIE_TOL


def chain_tree(depth: int) -> ScenarioTree:
    parents = [None] + list(range(depth))
    probs = [1.0] * (depth + 1)
    return ScenarioTree(parents, probs)


def random_tree(rng: random.Random, depth=None, max_branch=3) -> ScenarioTree:
    if depth is None:
        depth = rng.randint(1, 3)
    parents = [None]
    probs = [1.0]
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            b = rng.randint(1, max_branch)
            weights = [rng.randint(1, 5) for _ in range(b)]
            total = sum(weights)
            for w in weights:
                parents.append(v)
                probs.append(w / total)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return ScenarioTree(parents, probs)


def relabel(tree: ScenarioTree, rng: random.Random):
    """The same tree with its node ids renumbered in a random topological
    order, and the old id of every new node."""
    order = [0]
    ready = list(tree.children[0])
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        order.append(v)
        ready.extend(tree.children[v])
    new_id = [0] * tree.n_nodes
    for new, old in enumerate(order):
        new_id[old] = new
    parents = [None] + [new_id[tree.parents[old]] for old in order[1:]]
    probs = [tree.cond_probs[old] for old in order]
    return ScenarioTree(parents, probs), order


def relabeled_game(spec: GameSpec, rng: random.Random) -> GameSpec:
    """``spec`` moved onto a randomly renumbered copy of its tree."""
    tree, order = relabel(spec.tree, rng)

    def move(procs):
        return tuple(tuple(p[old] for old in order) for p in procs)

    return GameSpec(tree, move(spec.X), move(spec.Q), move(spec.Y))


def game_document(spec: GameSpec) -> dict:
    tree = spec.tree
    nodes = [
        {"id": v, "parent": tree.parents[v], "p": tree.cond_probs[v]}
        for v in range(tree.n_nodes)
    ]
    return {
        "horizon": tree.horizon,
        "players": spec.n_players,
        "nodes": nodes,
        "processes": {
            "X": [list(p) for p in spec.X],
            "Q": [list(p) for p in spec.Q],
            "Y": [list(p) for p in spec.Y],
        },
    }


def depth_first_leaves(tree: ScenarioTree) -> tuple[int, ...]:
    """Leaves in the order a depth-first walk from the root meets them."""
    out = []
    todo = [0]
    while todo:
        v = todo.pop()
        kids = tree.children[v]
        if not kids:
            out.append(v)
        todo.extend(reversed(kids))
    return tuple(out)


def random_process(rng, tree, lo=0.0, hi=1.0) -> tuple[float, ...]:
    return tuple(rng.uniform(lo, hi) for _ in range(tree.n_nodes))


def random_stop(rng, tree, p=0.3):
    raw = [v for v in range(tree.n_nodes) if rng.random() < p]
    return canonicalize(raw, tree)


def triple_game(tree, x, q, y, players=2) -> GameSpec:
    """Game where every player shares the same (x, q, y) node arrays."""
    return GameSpec(tree, (x,) * players, (q,) * players, (y,) * players)


def depth_stop(tree: ScenarioTree, depth: int) -> StoppingTime:
    """The stopping time that stops at a fixed depth on every path."""
    if not 0 <= depth <= tree.horizon:
        raise TreeError(f"depth {depth} outside 0..{tree.horizon}")
    keep = [v for v in range(tree.n_nodes) if tree.depth[v] == depth]
    return canonicalize(keep, tree)


def expect_at(
    tree: ScenarioTree, process: Sequence[float], tau: StoppingTime
) -> float:
    """Expected value of the process sampled at the stopping time."""
    _check_process(tree, process)
    _check_stop(tree, tau)
    prob = tree.prob
    return math.fsum(prob[v] * process[v] for v in sorted(tau.stop_set))


def strictly_before(tree: ScenarioTree, tau: StoppingTime) -> list[bool]:
    """Per node, whether no node of ``tau``'s stop set lies on its root
    path (the node itself included)."""
    stops = tau.stop_set
    before = []
    for v, p in enumerate(tree.parents):
        before.append(v not in stops and (p is None or before[p]))
    return before


def one_step_holds(tree, process, bound, martingale, tol=EQ_TOL) -> bool:
    """One-step check at every node strictly before ``bound``: equality
    within ``tol`` if ``martingale``, else the supermartingale
    inequality."""
    for v, before in enumerate(strictly_before(tree, bound)):
        if not before:
            continue
        cont = 0.0
        for c in tree.children[v]:
            cont += tree.cond_probs[c] * process[c]
        u = process[v]
        if abs(u - cont) > tol if martingale else u < cont - tol:
            return False
    return True


def audit_deviation_bound(
    spec: GameSpec,
    state: SolverState,
    cap: int = DEFAULT_ENUM_CAP,
    tol: float = EQ_TOL,
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
    latest = [horizon_stop(spec.tree)] * spec.n_players

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


# References that compare stops by depth.  They are the pathwise
# minimum, order, payoff and brute-force best response as they stood
# before the package compared stops by node id.

def min_stop_by_depth(*taus: StoppingTime) -> StoppingTime:
    """Pathwise minimum of one or more stopping times."""
    if not taus:
        raise TreeError("min_stop needs at least one stopping time")
    out = taus[0]
    for tau in taus[1:]:
        _check_stop(out.tree, tau)
        nodes = tuple(
            a if da <= db else b
            for a, da, b, db in zip(
                out.node_by_leaf,
                out.depth_by_leaf,
                tau.node_by_leaf,
                tau.depth_by_leaf,
            )
        )
        out = StoppingTime(out.tree, nodes)
    return out


def leq_by_depth(first: StoppingTime, second: StoppingTime) -> bool:
    """Whether ``first`` stops no later than ``second`` on every path."""
    _check_stop(first.tree, second)
    return all(
        a <= b for a, b in zip(first.depth_by_leaf, second.depth_by_leaf)
    )


def insertion_payoff_by_depth(spec, player, rival: StoppingTime,
                              tau: StoppingTime):
    """Payoff against the opponents' earliest stop."""
    x = spec.X[player]
    q = spec.Q[player]
    y = spec.Y[player]
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


def reference_best_response(
    spec: GameSpec,
    player: int,
    others: Sequence[StoppingTime],
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[float, StoppingTime]:
    """Enumerate every stopping time and maximize the raw payoff; ties
    within ``BRUTE_TIE_TOL`` go to the pathwise-smallest maximizer."""
    rival = min_stop_by_depth(*others)
    scored = [
        (insertion_payoff_by_depth(spec, player, rival, tau), tau)
        for tau in enumerate_stopping_times(spec.tree, cap)
    ]
    best_val = max(val for val, _ in scored)
    winners = [tau for val, tau in scored if val >= best_val - BRUTE_TIE_TOL]
    return best_val, min_stop_by_depth(*winners)


# References for the bottom-up kernels as they stood when each walked
# every node id downward and branched on leaves; the kernels that walk
# ``tree.internal`` are checked against them for identical values.

def reference_snell_envelope(
    tree: ScenarioTree, obstacle: Sequence[float]
) -> SnellResult:
    """Backward-induction envelope of ``obstacle`` with earliest hits.

    At a leaf the envelope equals the obstacle.  At an internal node the
    continuation value is the probability-weighted average of the
    children's envelope values; when the obstacle is within ``EQ_TOL``
    of matching the continuation the node counts as a hit and the
    envelope takes the obstacle value exactly, otherwise the envelope
    takes the continuation value.  ``root_value`` is the supremum of the
    expected stopped obstacle over all stopping times, attained at
    ``first_hit``.
    """
    _check_process(tree, obstacle)
    children = tree.children
    cond = tree.cond_probs
    w = [0.0] * tree.n_nodes
    hits = []
    for v in range(tree.n_nodes - 1, -1, -1):
        kids = children[v]
        if not kids:
            w[v] = obstacle[v]
            hits.append(v)
            continue
        cont = 0.0
        for c in kids:
            cont += cond[c] * w[c]
        u = obstacle[v]
        if u >= cont - EQ_TOL:
            w[v] = u
            hits.append(v)
        else:
            w[v] = cont
    first = reference_first_on_path(tree, hits)  # every leaf is a hit
    return SnellResult(
        envelope=tuple(w),
        first_hit=StoppingTime(tree, [first[leaf] for leaf in tree.leaves]),
        root_value=w[0],
    )



def reference_count_stopping_times(tree: ScenarioTree) -> int:
    """Number of canonical stopping times the tree admits."""
    s = [0] * tree.n_nodes
    for v in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[v]
        if not kids:
            s[v] = 1
        else:
            prod = 1
            for c in kids:
                prod *= s[c]
            s[v] = 1 + prod
    return s[0]


def reference_depth_first_stops(
    tree: ScenarioTree, cap: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Every canonical stopping time as raw per-leaf stops over the leaves
    in depth-first order, in enumeration order, refusing above the cap;
    and the positions that put such a tuple in ``tree.leaves`` order.
    The last tuple stops at every leaf, so it lists the leaves
    depth-first."""
    total = reference_count_stopping_times(tree)
    if total > cap:
        raise EnumerationCapError(total, cap)

    # Per node, its subtree's times as per-leaf stops over its leaves in
    # depth-first order, built bottom-up (children have larger ids); a
    # child's list is dropped once its parent used it.  Children are
    # joined one at a time, in product order (last child fastest).
    options: dict[int, list[tuple[int, ...]]] = {}
    for v in range(tree.n_nodes - 1, -1, -1):
        kids = tree.children[v]
        if not kids:
            options[v] = [(v,)]
            continue
        combos = options.pop(kids[0])
        for c in kids[1:]:
            more = options.pop(c)
            combos = [a + b for a in combos for b in more]
        # first, stop at v on every leaf below
        options[v] = [(v,) * len(combos[0]), *combos]

    # ``tree.leaves`` need not list the leaves depth-first.
    stops = options[0]
    where = {leaf: k for k, leaf in enumerate(stops[-1])}
    return stops, [where[leaf] for leaf in tree.leaves]


def reference_first_on_path(tree: ScenarioTree, stops) -> list[int]:
    """Per node, the first node of ``stops`` on its root path (the node
    itself included), or -1 where the path has not met ``stops`` yet."""
    marked = bytearray(tree.n_nodes)
    for v in stops:
        marked[v] = 1
    first = [-1] * tree.n_nodes
    if marked[0]:
        first[0] = 0
    parents = tree.parents
    for v in range(1, tree.n_nodes):
        inherited = first[parents[v]]
        if inherited >= 0:
            first[v] = inherited
        elif marked[v]:
            first[v] = v
    return first


def reference_cut_obstacle(spec: GameSpec, player: int, cutoff: StoppingTime):
    """The cutoff's cut (``reference_first_on_path`` output) and the
    player's obstacle: X strictly before the cut, the end payoff on the
    cut node, frozen along the rest of each path."""
    ep = end_payoff(spec, player)
    cut = reference_first_on_path(spec.tree, cutoff.node_by_leaf)
    out = list(spec.X[player])
    for v, a in enumerate(cut):
        if a == v:
            out[v] = ep[v]
        elif a >= 0:
            out[v] = ep[a]
    return cut, tuple(out)


# The solver's update and run as they stood when every update rebuilt
# the cut, the obstacle, the envelope and the flat check over the whole
# tree; the cached solver must reproduce every record they give.

def reference_step(state: SolverState, spec: GameSpec) -> SolverState:
    """Advance the iteration by one player update."""
    tree = spec.tree
    n_next = state.n + 1
    player = state.n % spec.n_players
    theta = min_stop(*(t for j, t in enumerate(state.current) if j != player))
    cut, obstacle = reference_cut_obstacle(spec, player, theta)
    res = reference_snell_envelope(tree, obstacle)
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


def reference_run(spec: GameSpec, max_rounds=None):
    """Iterate full rounds of ``reference_step`` until a round changes
    nothing; the candidate and the final state."""
    if max_rounds is None:
        max_rounds = default_round_bound(spec)
    state = init_state(spec)

    converged = False
    rounds_used = 0
    for _ in range(max_rounds):
        before = state.current
        for _ in range(spec.n_players):
            state = reference_step(state, spec)
        rounds_used += 1
        if before == state.current:
            converged = True
            break
    candidate = make_candidate(
        state.current, rounds_used=rounds_used, converged=converged
    )
    return candidate, state


def reference_validate_assumptions(
    spec: GameSpec, strict_tol: float = 0.0
) -> AssumptionReport:
    """The order and touching-rule checks node by node, player by
    player."""
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
        a4.extend(A4Violation(v, i, j) for i in triggers for j in blockers)
    return AssumptionReport(tuple(a3), tuple(a4), strict_tol)
