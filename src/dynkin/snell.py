"""Snell envelopes on scenario trees.

The envelope of an obstacle process is the smallest supermartingale
dominating it, computed by backward induction.  Alongside the envelope
we return the earliest optimal stopping time: the first time, on each
path, at which the obstacle matches the envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tree import (
    AdaptedProcess,
    ScenarioTree,
    StoppingTime,
    _check_process,
    _first_on_path,
    canonicalize,
)

EQ_TOL = 1e-9


@dataclass(frozen=True)
class SnellResult:
    envelope: AdaptedProcess
    first_hit: StoppingTime
    root_value: float


def snell_envelope(
    tree: ScenarioTree, obstacle: AdaptedProcess, eq_tol: float = EQ_TOL
) -> SnellResult:
    """Backward-induction envelope of ``obstacle`` with earliest hits.

    At a leaf the envelope equals the obstacle.  At an internal node the
    continuation value is the probability-weighted average of the
    children's envelope values; when the obstacle is within ``eq_tol``
    of matching the continuation the node counts as a hit and the
    envelope takes the obstacle value exactly, otherwise the envelope
    takes the continuation value.  ``root_value`` is the supremum of the
    expected stopped obstacle over all stopping times, attained at
    ``first_hit``.
    """
    _check_process(tree, obstacle)
    vals = obstacle.values
    children = tree.children
    cond = tree.cond_probs
    w = [0.0] * tree.n_nodes
    hits = []
    for v in range(tree.n_nodes - 1, -1, -1):
        kids = children[v]
        if not kids:
            w[v] = vals[v]
            hits.append(v)
            continue
        cont = 0.0
        for c in kids:
            cont += cond[c] * w[c]
        u = vals[v]
        if u >= cont - eq_tol:
            w[v] = u
            hits.append(v)
        else:
            w[v] = cont
    return SnellResult(
        envelope=AdaptedProcess(tuple(w)),
        first_hit=canonicalize(hits, tree),
        root_value=w[0],
    )


def _one_step_holds(tree, process, bound, tol, martingale) -> bool:
    """One-step check at every node strictly before ``bound``: equality
    within ``tol`` if ``martingale``, else the supermartingale
    inequality."""
    _check_process(tree, process)
    first = _first_on_path(tree, bound.stop_set)
    vals = process.values
    cond = tree.cond_probs
    for v in range(tree.n_nodes):
        if first[v] >= 0:
            continue
        cont = 0.0
        for c in tree.children[v]:
            cont += cond[c] * vals[c]
        u = vals[v]
        if abs(u - cont) > tol if martingale else u < cont - tol:
            return False
    return True


def is_supermartingale_before(
    tree: ScenarioTree,
    process: AdaptedProcess,
    bound: StoppingTime,
    tol: float = EQ_TOL,
) -> bool:
    """Check the one-step supermartingale inequality at every node
    strictly before ``bound``."""
    return _one_step_holds(tree, process, bound, tol, martingale=False)


def is_martingale_before(
    tree: ScenarioTree,
    process: AdaptedProcess,
    bound: StoppingTime,
    tol: float = EQ_TOL,
) -> bool:
    """Check the one-step martingale equality at every node strictly
    before ``bound``."""
    return _one_step_holds(tree, process, bound, tol, martingale=True)
