"""Shared builders and reference checks for the test suite.

Seeded random trees, processes, and stopping times used by both the
module tests and the acceptance suite, plus checks only tests use:
fixed-depth stops, expectations at a stopping time, the one-step
(super)martingale condition, the brute-force deviation audit, the
game document as a dict, the ``json`` encoding the canonical writer is
checked against, and the depth-comparing pathwise minimum, order and
brute-force best response the id-comparing package routes are checked
against, and the leaf-branching envelope, stopping-time count and
enumeration the kernels over ``tree.internal`` are checked against,
the full-recomputation solver update and run the cached solver is
checked against, and the node-by-node assumption check the whole-array
one is checked against, and the node-by-node loader and tree checks
the whole-array ones are checked against, and the table-and-``fsum``
oracle the exact per-subtree one is checked against, and the obstacle
and best-response process the package builders are checked against,
and the pre-scanning loader the first-fault scanner is checked against, and
the two-walk certifiers the one-pass witness and the once-derived Nash
check are checked against, and the two-pass tree build and the
``min_stop``-building audit the one-pass build and the list-comparing
audit are checked against, and a loader for ``tools/exact_gap.py``.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import operator
import os
import random
from itertools import islice
from operator import eq, itemgetter
from typing import Optional, Sequence

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
    leq,
    make_candidate,
    min_stop,
)
from dynkin.gamefile import (
    GameFileError,
    GameParseError,
    GameStructureError,
    _require,
)
from dynkin.game import (
    A3Violation,
    A4Violation,
    GameError,
    payoff,
    _collected,
    _cut_obstacle,
    _fsum,
    _insertion_payoff,
    _rival_time,
    _tie_gap,
)
from dynkin.snell import EQ_TOL, SnellResult, snell_envelope
from dynkin.tree import (
    DEFAULT_ENUM_CAP,
    PROB_TOL,
    EnumerationCapError,
    _check_process,
    _check_stop,
    _depth_first_stops,
    _first_on_path,
    _marks,
    _number,
)
from dynkin.verify import (
    BRUTE_TIE_TOL,
    NashCertificate,
    PlayerCertificate,
    StreamlineCertificate,
    StreamlinePlayerCheck,
    best_response,
)


# Parents and probabilities of a tree whose sibling probabilities sum
# to just above 1.
BEYOND = ([None, 0, 0], [1.0, 0.5000000000001, 0.4999999999999999])


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


def reference_canonical_bytes(doc) -> bytes:
    """The canonical encoding by ``json``'s own (pure-Python) encoder."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


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


def reference_table_best_response(
    spec: GameSpec,
    player: int,
    others: Sequence[StoppingTime],
    cap: int = DEFAULT_ENUM_CAP,
) -> tuple[float, StoppingTime]:
    """The oracle as it stood when each time scored the ``math.fsum`` of
    per-leaf table entries, before exact per-subtree sums replaced it."""
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


def reference_best_response_process(
    spec: GameSpec, player: int, others: Sequence[StoppingTime]
) -> tuple[float, ...]:
    """X strictly before the opponents' earliest stop R, Q at the R node,
    and the R node's Y on the rest of each path."""
    rival = min_stop_by_depth(*others)
    cut = reference_first_on_path(spec.tree, rival.node_by_leaf)
    x, q, y = spec.X[player], spec.Q[player], spec.Y[player]
    return tuple(
        x[v] if a < 0 else q[v] if a == v else y[a] for v, a in enumerate(cut)
    )


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
    player; a NaN ``strict_tol`` fails closed (every player triggers
    and blocks)."""
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
            i for i in range(n)
            if not spec.Y[i][v] - spec.Q[i][v] <= strict_tol
        ]
        if not triggers:
            continue
        blockers = [
            j for j in range(n)
            if not spec.Y[j][v] - spec.X[j][v] > strict_tol
        ]
        a4.extend(A4Violation(v, i, j) for i in triggers for j in blockers)
    return AssumptionReport(tuple(a3), tuple(a4), strict_tol)


def reference_node_fields(nodes: list, where: str) -> tuple[list, list]:
    """The game loader's node list check, node by node: the parents and
    the probabilities (each a float), or the first fault raised."""
    parents: list = []
    probs: list = []
    for k, entry in enumerate(nodes):
        if not isinstance(entry, dict):
            raise GameParseError(f"{where}: nodes[{k}] must be an object")
        node_id = _require(entry, "id", int, f"{where}: nodes[{k}]")
        if node_id != k:
            raise GameStructureError(
                f"{where}: nodes[{k}] has id {node_id}, ids must be "
                "0..K-1 in order"
            )
        if "parent" not in entry:
            raise GameParseError(f"{where}: nodes[{k}]: missing field 'parent'")
        parent = entry["parent"]
        if parent is not None and (
            isinstance(parent, bool) or not isinstance(parent, int)
        ):
            raise GameParseError(
                f"{where}: nodes[{k}]: field 'parent' must be an integer "
                "or null"
            )
        p = _require(entry, "p", float, f"{where}: nodes[{k}]")
        parents.append(parent)
        probs.append(p)
    return parents, probs


def reference_tree_checks(parents, cond_probs, horizon=None) -> None:
    """Every check ``ScenarioTree`` makes, node by node and in its order;
    raises the first fault as a :class:`TreeError`."""
    parents = tuple(parents)
    raw = tuple(cond_probs)
    probs = tuple(map(_number, raw))
    n = len(parents)
    if n != len(probs):
        raise TreeError(
            f"{n} parent entries but {len(probs)} probability entries"
        )
    if n < 2:
        raise TreeError("a tree needs at least a root and one leaf")
    if parents[0] is not None:
        raise TreeError("node 0 must be the root (parent None)")
    for v in range(1, n):
        p = parents[v]
        if not isinstance(p, int) or isinstance(p, bool):
            raise TreeError(f"node {v}: parent must be an integer id")
        if not 0 <= p < v:
            raise TreeError(
                f"node {v}: parent {p} does not precede it "
                "(ids must be topological)"
            )
    for v, p in enumerate(probs):
        if p is None:
            raise TreeError(f"node {v}: cond_prob {raw[v]!r} not a number")
        if not math.isfinite(p) or not 0.0 < p <= 1.0:
            raise TreeError(f"node {v}: cond_prob {p!r} not in (0, 1]")
    if abs(probs[0] - 1.0) > PROB_TOL:
        raise TreeError(f"root cond_prob must be 1, got {probs[0]!r}")
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        kids[parents[v]].append(v)
    for v in range(n):
        if kids[v]:
            s = math.fsum(probs[c] for c in kids[v])
            if abs(s - 1.0) > PROB_TOL:
                raise TreeError(
                    f"children of node {v} have cond_prob sum {s!r}, "
                    "expected 1"
                )
    depth = [0] * n
    for v in range(1, n):
        depth[v] = depth[parents[v]] + 1
    leaves = [v for v in range(n) if not kids[v]]
    m = depth[leaves[0]]
    for v in leaves:
        if depth[v] != m:
            deeper = v if depth[v] > m else leaves[0]
            other = leaves[0] if deeper == v else v
            raise TreeError(
                f"leaf {other} at depth {depth[other]} but leaf "
                f"{deeper} at depth {depth[deeper]}: all leaves must "
                "share one horizon"
            )
    if horizon is not None and horizon != m:
        raise TreeError(
            f"declared horizon {horizon} but leaves sit at depth {m}"
        )
    if m < 1:
        raise TreeError("horizon must be at least 1")


# The game loader as it stood when it type-scanned every node's fields
# before building the tree, and scanned the shaped process arrays for a
# value that is not a number whenever the spec or a shape check failed;
# the loader that leaves those checks to the tree and the spec must
# raise the same first fault.

def prescan_game_from_document(doc, where: str = "game document") -> GameSpec:
    if not isinstance(doc, dict):
        raise GameParseError(f"{where}: top level must be an object")
    horizon = _require(doc, "horizon", int, where)
    players = _require(doc, "players", int, where)
    nodes = _require(doc, "nodes", list, where)
    processes = _require(doc, "processes", dict, where)

    if players < 2:
        raise GameStructureError(f"{where}: players must be >= 2, got {players}")
    if horizon < 1:
        raise GameStructureError(
            f"{where}: horizon must be >= 1, got {horizon}"
        )

    parents, probs = prescan_node_fields(nodes, where)
    try:
        tree = ScenarioTree(parents, probs, horizon=horizon)
    except TreeError as exc:
        raise GameStructureError(f"{where}: {exc}") from exc

    # GameSpec checks every value.  Only when it or a shape check fails
    # are the arrays accepted so far scanned for a value that is not a
    # number, so a mistyped value is still reported first, in file order.
    triples = {}
    shaped = []
    try:
        for name in ("X", "Q", "Y"):
            arrays = _require(processes, name, list, f"{where}: processes")
            if len(arrays) != players:
                raise GameStructureError(
                    f"{where}: processes.{name} has {len(arrays)} players, "
                    f"expected {players}"
                )
            for i, arr in enumerate(arrays):
                if not isinstance(arr, list):
                    raise GameParseError(
                        f"{where}: processes.{name}[{i}] must be an array"
                    )
                if len(arr) != tree.n_nodes:
                    raise GameStructureError(
                        f"{where}: processes.{name}[{i}] has {len(arr)} "
                        f"values but the tree has {tree.n_nodes} nodes"
                    )
                shaped.append((name, i, arr))
            triples[name] = arrays
        return GameSpec(tree, triples["X"], triples["Q"], triples["Y"])
    except GameError as exc:
        prescan_check_numbers(shaped, where)
        raise GameStructureError(f"{where}: {exc}") from exc
    except GameFileError:
        prescan_check_numbers(shaped, where)
        raise


def prescan_node_fields(nodes: list, where: str) -> tuple[list, list]:
    """The nodes' parents and float probabilities: checked as whole
    arrays, and node by node only to name the first fault."""
    get_id = itemgetter("id")  # no list of ids: it raises peak memory
    try:
        parents, probs = (
            list(map(itemgetter(key), nodes)) for key in ("parent", "p")
        )
        in_order = set(map(type, map(get_id, nodes))) <= {int} and all(
            map(eq, map(get_id, nodes), range(len(nodes))))
    except (KeyError, TypeError):  # a missing field or a non-object node
        pass
    else:
        if (set(map(type, nodes)) <= {dict} and in_order
                and set(map(type, parents)) <= {int, type(None)}
                and set(map(type, probs)) <= {float}):
            return parents, probs
    parents, probs = [], []
    for k, entry in enumerate(nodes):
        if not isinstance(entry, dict):
            raise GameParseError(f"{where}: nodes[{k}] must be an object")
        node_id = _require(entry, "id", int, f"{where}: nodes[{k}]")
        if node_id != k:
            raise GameStructureError(
                f"{where}: nodes[{k}] has id {node_id}, ids must be "
                "0..K-1 in order"
            )
        if "parent" not in entry:
            raise GameParseError(f"{where}: nodes[{k}]: missing field 'parent'")
        parent = entry["parent"]
        if parent is not None and (
            isinstance(parent, bool) or not isinstance(parent, int)
        ):
            raise GameParseError(
                f"{where}: nodes[{k}]: field 'parent' must be an integer "
                "or null"
            )
        parents.append(parent)
        probs.append(_require(entry, "p", float, f"{where}: nodes[{k}]"))
    return parents, probs


def prescan_check_numbers(shaped, where: str) -> None:
    for name, i, arr in shaped:
        for v, x in enumerate(arr):
            if _number(x) is None:
                raise GameParseError(
                    f"{where}: processes.{name}[{i}][{v}] must be a number"
                )


# The certifiers as they stood when the Nash check derived each rival
# twice (through ``payoff`` and ``best_response``) and the witness took a
# full ``snell_envelope`` with first hits, then walked the tree again.

def reference_verify_nash(
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


def reference_verify_streamline(
    spec: GameSpec, candidate, tol: float = EQ_TOL
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


# ``ScenarioTree.__init__`` and ``audit_iteration`` as they stood when
# the tree build took the children and the depths and path probabilities
# in two passes, and the audit built a ``min_stop`` per record and
# walked the update rule leaf by leaf; the one-pass build and the
# list-comparing audit must give the same attributes, violations and
# errors.

def reference_tree_attributes(
    parents: Sequence[Optional[int]],
    cond_probs: Sequence[float],
    horizon: Optional[int] = None,
) -> dict:
    """The attributes ``ScenarioTree(parents, cond_probs, horizon)``
    sets, by name, or the first fault raised."""
    parents = tuple(parents)
    raw = tuple(cond_probs)
    floats = set(map(type, raw)) <= {float}  # the common case
    probs = raw if floats else tuple(map(_number, raw))
    n = len(parents)
    if n != len(probs):
        raise TreeError(
            f"{n} parent entries but {len(probs)} probability entries"
        )
    if n < 2:
        raise TreeError("a tree needs at least a root and one leaf")
    if parents[0] is not None:
        raise TreeError("node 0 must be the root (parent None)")
    # One int object per id, shared by ``children``, ``leaves`` and
    # ``depth``.
    ids = list(range(n))
    # the parents after the root, uncopied: a copy raises peak memory
    if not (set(map(type, islice(parents, 1, n))) <= {int}
            and min(islice(parents, 1, n)) >= 0
            and all(map(operator.lt, islice(parents, 1, n), range(1, n)))):
        for v in ids[1:]:
            p = parents[v]
            if not isinstance(p, int) or isinstance(p, bool):
                raise TreeError(f"node {v}: parent must be an integer id")
            if not 0 <= p < v:
                raise TreeError(
                    f"node {v}: parent {p} does not precede it "
                    "(ids must be topological)"
                )
    if not (floats and all(map((0.0).__lt__, probs))
            and all(map((1.0).__ge__, probs))):  # NaN fails both
        for v, p in enumerate(probs):
            if p is None:
                raise TreeError(
                    f"node {v}: cond_prob {raw[v]!r} not a number"
                )
            if not math.isfinite(p) or not 0.0 < p <= 1.0:
                raise TreeError(f"node {v}: cond_prob {p!r} not in (0, 1]")
    if abs(probs[0] - 1.0) > PROB_TOL:
        raise TreeError(f"root cond_prob must be 1, got {probs[0]!r}")

    kids: list[list[int]] = [[] for _ in ids]
    for v in ids[1:]:
        kids[parents[v]].append(v)
    for v, c in enumerate(kids):
        if c:
            # one child: its probability, already checked finite
            s = probs[c[0]] if len(c) == 1 else math.fsum(
                map(probs.__getitem__, c))
            if abs(s - 1.0) > PROB_TOL:
                raise TreeError(
                    f"children of node {v} have cond_prob sum {s!r}, "
                    "expected 1"
                )

    depth = [0] * n
    prob = [1.0] * n
    for v in range(1, n):
        p = parents[v]
        depth[v] = ids[depth[p] + 1]
        prob[v] = prob[p] * probs[v]

    leaves = tuple(v for v in ids if not kids[v])
    m = depth[leaves[0]]
    for v in leaves:
        if depth[v] != m:
            deeper = v if depth[v] > m else leaves[0]
            other = leaves[0] if deeper == v else v
            raise TreeError(
                f"leaf {other} at depth {depth[other]} but leaf "
                f"{deeper} at depth {depth[deeper]}: all leaves must "
                "share one horizon"
            )
    if horizon is not None and horizon != m:
        raise TreeError(
            f"declared horizon {horizon} but leaves sit at depth {m}"
        )
    if m < 1:
        raise TreeError("horizon must be at least 1")

    return dict(
        parents=parents,
        cond_probs=probs,
        n_nodes=n,
        horizon=m,
        depth=tuple(depth),
        children=tuple(tuple(c) for c in kids),
        leaves=leaves,
        internal=tuple(parents[c[0]] for c in reversed(kids) if c),
        prob=tuple(prob),
        leaf_probs=tuple(prob[v] for v in leaves),
    )


def reference_audit_iteration(
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


EXACT_GAP_TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools", "exact_gap.py")


def exact_gap_tool():
    """``tools/exact_gap.py`` as a module."""
    spec = importlib.util.spec_from_file_location("exact_gap", EXACT_GAP_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
