"""Snell envelopes on scenario trees.

The envelope of an obstacle process is the smallest supermartingale
dominating it, computed by backward induction over ``tree.internal``
(children first) from the leaves, where it equals the obstacle.
Alongside the envelope we return the earliest optimal stopping time:
the first time, on each path, at which the obstacle matches the
envelope.  The backward pass marks those nodes, and the package's one
cut walk (``tree._first_on_path``) over the marks gives its stop on each
path.
Both come in a :class:`SnellResult`, which only this module exports.
Processes are any length-K float sequences indexed by node id; the
envelope is a tuple.  The backward step (``_backward``) writes the
envelope in place over the obstacle and takes a node list: a full pass
walks ``tree.internal``, the solver's updates only the root paths whose
cutoff stop moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .tree import (
    ScenarioTree,
    StoppingTime,
    _check_process,
    _first_on_path,
    _marks,
)

EQ_TOL = 1e-9


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
    w = list(obstacle)
    hit = _marks(tree, tree.leaves)
    _backward(tree, w, hit, tree.internal)
    first = _first_on_path(tree, hit)
    return SnellResult(
        envelope=tuple(w),
        first_hit=StoppingTime(tree, map(first.__getitem__, tree.leaves)),
        root_value=w[0],
    )


def _backward(tree, w, hit, nodes) -> None:
    """Envelope values ``w`` and hit flags ``hit`` at ``nodes`` (children
    first), over the obstacle values ``w`` holds there, from the
    children's entries; the one backward-induction step."""
    children = tree.children
    cond = tree.cond_probs
    for v in nodes:
        cont = 0.0
        for c in children[v]:
            cont += cond[c] * w[c]
        if w[v] >= cont - EQ_TOL:  # the obstacle, kept as the envelope
            hit[v] = 1
        else:
            hit[v] = 0
            w[v] = cont
