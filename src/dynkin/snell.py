"""Snell envelopes on scenario trees.

The envelope of an obstacle process is the smallest supermartingale
dominating it, computed by backward induction.  Alongside the envelope
we return the earliest optimal stopping time: the first time, on each
path, at which the obstacle matches the envelope.  The backward pass
marks those nodes, and one cut pass (``tree._first_on_path``) over the
marks gives its stop on each path.  Both come in a :class:`SnellResult`,
which only this module exports.  Processes are any length-K float
sequences indexed by node id; the envelope is a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .tree import (
    ScenarioTree,
    StoppingTime,
    _check_process,
    _first_on_path,
)

EQ_TOL = 1e-9
RESIDUAL_TOL = 1e-12  # default bound on each player's expected Y - Q tie gap


@dataclass(frozen=True)
class SnellResult:
    """Envelope (a length-K float tuple), earliest optimal stop, root value."""

    envelope: tuple[float, ...]
    first_hit: StoppingTime
    root_value: float


def snell_envelope(tree: ScenarioTree, obstacle: Sequence[float]) -> SnellResult:
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
    first = _first_on_path(tree, hits)  # every leaf is a hit
    return SnellResult(
        envelope=tuple(w),
        first_hit=StoppingTime(tree, [first[leaf] for leaf in tree.leaves]),
        root_value=w[0],
    )
