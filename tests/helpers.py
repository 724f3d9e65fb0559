"""Shared builders for the test suite.

Seeded random trees, processes, and stopping times used by both the
module tests and the acceptance suite.
"""

from __future__ import annotations

import random

from dynkin import GameSpec, ScenarioTree, canonicalize


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


def random_process(rng, tree, lo=0.0, hi=1.0) -> tuple[float, ...]:
    return tuple(rng.uniform(lo, hi) for _ in range(tree.n_nodes))


def random_stop(rng, tree, p=0.3):
    raw = [v for v in range(tree.n_nodes) if rng.random() < p]
    return canonicalize(raw, tree)


def triple_game(tree, x, q, y, players=2) -> GameSpec:
    """Game where every player shares the same (x, q, y) node arrays."""
    return GameSpec(tree, (x,) * players, (q,) * players, (y,) * players)
