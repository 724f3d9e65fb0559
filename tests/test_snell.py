"""Envelope construction: dominance, minimality, martingale structure."""

import random

import pytest

from dynkin import (
    ScenarioTree,
    canonicalize,
    enumerate_stopping_times,
    horizon_stop,
    snell_envelope,
)
from helpers import (
    chain_tree,
    expect_at,
    one_step_holds,
    random_process,
    random_tree,
    relabel,
)
from dynkin.snell import EQ_TOL


def test_chain_rising_obstacle_waits():
    t = chain_tree(2)
    res = snell_envelope(t, (0.5, 0.5, 1.0))
    assert res.envelope == (1.0, 1.0, 1.0)
    assert res.first_hit.stop_set == {2}
    assert res.root_value == 1.0


def test_binary_root_hit():
    t = ScenarioTree.uniform(1, 2)
    res = snell_envelope(t, (0.6, 1.0, 0.0))
    assert res.root_value == 0.6
    assert res.first_hit.stop_set == {0}
    assert res.envelope == (0.6, 1.0, 0.0)


def test_constant_obstacle_hits_immediately():
    t = ScenarioTree.uniform(2, 3)
    res = snell_envelope(t, (0.7,) * t.n_nodes)
    assert res.first_hit.stop_set == {0}
    assert res.root_value == 0.7
    assert all(w == 0.7 for w in res.envelope)


def test_dominance_is_exact_on_random_instances():
    rng = random.Random(11)
    for _ in range(30):
        tree = random_tree(rng)
        u = random_process(rng, tree)
        res = snell_envelope(tree, u)
        for v in range(tree.n_nodes):
            assert res.envelope[v] >= u[v]


def test_envelope_properties_on_random_instances():
    rng = random.Random(12)
    for _ in range(30):
        tree = random_tree(rng)
        u = random_process(rng, tree)
        res = snell_envelope(tree, u)
        hor = horizon_stop(tree)
        assert one_step_holds(tree, res.envelope, hor, martingale=False,
                              tol=1e-9)
        assert one_step_holds(tree, res.envelope, res.first_hit,
                              martingale=True, tol=1e-9)


def test_root_value_is_the_enumerated_supremum():
    rng = random.Random(13)
    for _ in range(20):
        tree = random_tree(rng, depth=rng.randint(1, 3))
        u = random_process(rng, tree)
        res = snell_envelope(tree, u)
        best = max(
            expect_at(tree, u, tau) for tau in enumerate_stopping_times(tree)
        )
        assert abs(res.root_value - best) <= 1e-12
        assert abs(expect_at(tree, u, res.first_hit) - best) <= 1e-12


def test_envelope_monotone_in_obstacle():
    rng = random.Random(14)
    for _ in range(20):
        tree = random_tree(rng)
        lo = random_process(rng, tree)
        hi = tuple(x + rng.uniform(0, 0.5) for x in lo)
        wlo = snell_envelope(tree, lo).envelope
        whi = snell_envelope(tree, hi).envelope
        for a, b in zip(wlo, whi):
            assert a <= b + 1e-12


def test_martingale_checks_flag_failures():
    t = chain_tree(2)
    drifting = (0.0, 1.0, 1.0)
    hor = horizon_stop(t)
    assert not one_step_holds(t, drifting, hor, martingale=False)
    assert not one_step_holds(t, (1.0, 0.5, 0.5), hor, martingale=True)
    # strictly-before semantics: a bound at the root checks nothing
    root = canonicalize([0], t)
    assert one_step_holds(t, drifting, root, martingale=True)


def test_first_hit_is_pathwise_minimal_optimum():
    rng = random.Random(15)
    for _ in range(10):
        tree = random_tree(rng, depth=2)
        u = random_process(rng, tree)
        res = snell_envelope(tree, u)
        best = res.root_value
        for tau in enumerate_stopping_times(tree):
            if abs(expect_at(tree, u, tau) - best) <= 1e-12:
                assert all(
                    m <= d
                    for m, d in zip(
                        res.first_hit.depth_by_leaf, tau.depth_by_leaf
                    )
                )


def test_first_hit_is_the_canonical_hit_set():
    # Reference route: mark every node where the obstacle meets the
    # envelope's continuation within EQ_TOL, then canonicalize the marks.
    rng = random.Random(16)
    for i in range(60):
        tree = random_tree(rng)
        if i % 2:
            tree = relabel(tree, rng)[0]
        if i % 3:
            u = random_process(rng, tree)
        else:  # coarse values make ties with the continuation common
            u = tuple(rng.choice((0.0, 0.5, 1.0)) for _ in range(tree.n_nodes))
        res = snell_envelope(tree, u)
        w = res.envelope
        hits = []
        for v in range(tree.n_nodes):
            kids = tree.children[v]
            cont = 0.0
            for c in kids:
                cont += tree.cond_probs[c] * w[c]
            if not kids or u[v] >= cont - EQ_TOL:
                hits.append(v)
        assert res.first_hit == canonicalize(hits, tree)
