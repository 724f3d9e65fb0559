"""Tree substrate: canonical stopping times, orders, expectations,
enumeration."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkin import (
    AdaptedProcess,
    EnumerationCapError,
    ScenarioTree,
    TreeError,
    canonicalize,
    count_stopping_times,
    depth_stop,
    enumerate_stopping_times,
    expect_at,
    horizon_stop,
    leq,
    min_stop,
)
from helpers import chain_tree, random_tree


def binary(depth):
    return ScenarioTree.uniform(depth, 2)


# Independent count of canonical stopping times: at a leaf there is one
# choice, at an internal node either stop now or combine one choice per
# child subtree.
def oracle_count(tree, v=0):
    kids = tree.children[v]
    if not kids:
        return 1
    prod = 1
    for c in kids:
        prod *= oracle_count(tree, c)
    return 1 + prod


# Independent, recursive listing of the stop sets in enumeration order:
# stop at the node, then every combination of the children's options.
def oracle_options(tree, v=0):
    out = [(v,)]
    kids = tree.children[v]
    if kids:
        for combo in itertools.product(
            *(oracle_options(tree, c) for c in kids)
        ):
            out.append(tuple(itertools.chain.from_iterable(combo)))
    return out


def test_tree_shape_binary_depth_2():
    t = binary(2)
    assert t.n_nodes == 7
    assert t.horizon == 2
    assert t.leaves == (3, 4, 5, 6)
    assert t.children[0] == (1, 2)
    assert t.depth == (0, 1, 1, 2, 2, 2, 2)


def test_tree_rejects_zero_horizon():
    with pytest.raises(TreeError):
        ScenarioTree([None], [1.0])
    with pytest.raises(TreeError):
        ScenarioTree.uniform(0, 2)


def test_tree_rejects_bad_prob_sum():
    with pytest.raises(TreeError) as exc:
        ScenarioTree([None, 0, 0], [1.0, 0.5, 0.4])
    assert "node 0" in str(exc.value)


def test_tree_rejects_uneven_leaves():
    with pytest.raises(TreeError) as exc:
        ScenarioTree([None, 0, 0, 1], [1.0, 0.5, 0.5, 1.0])
    msg = str(exc.value)
    assert "leaf" in msg and "horizon" in msg


def test_tree_rejects_nontopological_parent():
    with pytest.raises(TreeError):
        ScenarioTree([None, 2, 0], [1.0, 0.5, 0.5])


def test_node_prob():
    t = binary(2)
    assert t.node_prob(0) == 1.0
    assert t.node_prob(1) == 0.5
    assert t.node_prob(3) == 0.25
    c = chain_tree(3)
    assert all(c.node_prob(v) == 1.0 for v in range(c.n_nodes))


def test_canonicalize_root_absorbs_everything():
    t = binary(2)
    assert canonicalize([0], t).stop_set == {0}
    assert canonicalize([0, 3, 5], t).stop_set == {0}


def test_canonicalize_empty_set_stops_at_horizon():
    t = binary(2)
    assert canonicalize([], t).stop_set == {3, 4, 5, 6}
    assert canonicalize([], t) == horizon_stop(t)


def test_canonicalize_materializes_uncovered_leaves():
    t = binary(2)
    tau = canonicalize([1], t)
    assert tau.stop_set == {1, 5, 6}


def test_canonicalize_rejects_unknown_ids():
    t = binary(2)
    with pytest.raises(TreeError):
        canonicalize([7], t)
    with pytest.raises(TreeError):
        canonicalize([-1], t)


def test_stop_depths_mixed():
    t = binary(2)
    tau = canonicalize([1, 5, 6], t)
    assert tau.depth_at(3) == 1
    assert tau.depth_at(4) == 1
    assert tau.depth_at(5) == 2
    assert tau.depth_at(6) == 2
    assert tau.stop_node_at(3) == 1
    assert tau.stop_node_at(5) == 5


def test_depth_stop():
    t = binary(2)
    assert depth_stop(t, 0).stop_set == {0}
    assert depth_stop(t, 1).stop_set == {1, 2}
    assert depth_stop(t, 2).stop_set == {3, 4, 5, 6}
    with pytest.raises(TreeError):
        depth_stop(t, 3)


def test_min_stop_two_half_trees():
    t = binary(2)
    sigma = canonicalize([1], t)
    tau = canonicalize([2], t)
    assert min_stop(sigma, tau).stop_set == {1, 2}


def test_min_stop_algebra_exhaustive_small():
    t = binary(2)
    times = list(enumerate_stopping_times(t))
    assert len(times) == 5
    for a in times:
        for b in times:
            m = min_stop(a, b)
            assert m == min_stop(b, a)
            assert leq(m, a) and leq(m, b)
            assert min_stop(a, a) == a
            # the fast pathwise route agrees with the set-union route
            assert m == canonicalize(a.stop_set | b.stop_set, t)


def test_leq_examples():
    t = binary(2)
    root = canonicalize([0], t)
    mid = depth_stop(t, 1)
    hor = horizon_stop(t)
    assert leq(root, mid) and leq(mid, hor) and leq(root, hor)
    assert not leq(hor, mid)
    left = canonicalize([1], t)
    assert not leq(left, mid) or left == mid
    assert leq(mid, left)


def test_expect_at_examples():
    t = binary(1)
    z = AdaptedProcess((0.25, 1.0, 0.0))
    assert expect_at(t, z, horizon_stop(t)) == pytest.approx(0.5, abs=1e-15)
    assert expect_at(t, z, canonicalize([0], t)) == 0.25
    const = AdaptedProcess.constant(t, 3.0)
    assert expect_at(t, const, horizon_stop(t)) == pytest.approx(3.0, abs=1e-15)


def test_expect_at_rejects_wrong_length():
    t = binary(2)
    with pytest.raises(TreeError):
        expect_at(t, AdaptedProcess((1.0, 2.0)), horizon_stop(t))


def test_adapted_process_rejects_nonfinite():
    with pytest.raises(TreeError):
        AdaptedProcess((1.0, float("nan")))
    with pytest.raises(TreeError):
        AdaptedProcess((float("inf"),))


def test_count_matches_oracle():
    for tree in (chain_tree(1), chain_tree(5), binary(2), binary(3), binary(4),
                 ScenarioTree.uniform(2, 3)):
        assert count_stopping_times(tree) == oracle_count(tree)
    assert count_stopping_times(binary(2)) == 5
    assert count_stopping_times(binary(3)) == 26
    assert count_stopping_times(binary(4)) == 677
    assert count_stopping_times(binary(5)) == 458330


def test_enumeration_is_complete_and_canonical():
    t = binary(3)
    times = list(enumerate_stopping_times(t))
    assert len(times) == 26
    assert len({tau.stop_set for tau in times}) == 26
    for tau in times:
        assert canonicalize(tau.stop_set, t) == tau
        total = math.fsum(t.node_prob(v) for v in tau.stop_set)
        assert abs(total - 1.0) <= 1e-12


def test_enumeration_cap_names_the_count():
    t = binary(5)
    with pytest.raises(EnumerationCapError) as exc:
        list(enumerate_stopping_times(t))
    assert "458330" in str(exc.value)
    assert exc.value.count == 458330


def test_enumeration_cap_survives_a_huge_count():
    # the count on a depth-15 binary tree has over 4,300 digits
    t = binary(15)
    with pytest.raises(EnumerationCapError) as exc:
        next(enumerate_stopping_times(t))
    assert exc.value.count == count_stopping_times(t)
    assert "at least 2**" in str(exc.value)


def test_enumeration_order_matches_the_recursive_listing():
    for t in (binary(3), ScenarioTree.uniform(2, 3), chain_tree(4)):
        got = [tau.stop_set for tau in enumerate_stopping_times(t)]
        assert got == [frozenset(o) for o in oracle_options(t)]


def test_enumeration_of_a_deep_chain():
    # deeper than the default recursion limit
    times = list(enumerate_stopping_times(chain_tree(1500)))
    assert len(times) == 1501
    assert [sorted(t.stop_set) for t in times] == [[v] for v in range(1501)]


@st.composite
def trees(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    parents = [None]
    probs = [1.0]
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            b = draw(st.integers(min_value=1, max_value=3))
            weights = [draw(st.integers(min_value=1, max_value=5))
                       for _ in range(b)]
            total = sum(weights)
            for w in weights:
                parents.append(v)
                probs.append(w / total)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return ScenarioTree(parents, probs)


@st.composite
def tree_and_nodes(draw):
    tree = draw(trees())
    raw = draw(
        st.lists(st.integers(min_value=0, max_value=tree.n_nodes - 1),
                 max_size=tree.n_nodes)
    )
    return tree, raw


@settings(max_examples=60, deadline=None)
@given(tree_and_nodes())
def test_canonicalize_idempotent_and_covers_paths(case):
    tree, raw = case
    tau = canonicalize(raw, tree)
    assert canonicalize(tau.stop_set, tree) == tau
    # each path meets the stop set exactly once
    for leaf in tree.leaves:
        v = leaf
        hits = 0
        while v is not None:
            hits += v in tau.stop_set
            v = tree.parents[v]
        assert hits == 1
    total = math.fsum(tree.node_prob(v) for v in tau.stop_set)
    assert abs(total - 1.0) <= 1e-12


@st.composite
def tree_and_two_subsets(draw):
    tree = draw(trees())
    ids = st.integers(min_value=0, max_value=tree.n_nodes - 1)
    a = draw(st.lists(ids, max_size=tree.n_nodes))
    b = draw(st.lists(ids, max_size=tree.n_nodes))
    return tree, a, b


@settings(max_examples=60, deadline=None)
@given(tree_and_two_subsets())
def test_min_stop_routes_agree(case):
    tree, a, b = case
    sa = canonicalize(a, tree)
    sb = canonicalize(b, tree)
    m = min_stop(sa, sb)
    assert m == canonicalize(sa.stop_set | sb.stop_set, tree)
    assert leq(m, sa) and leq(m, sb)


@settings(max_examples=60, deadline=None)
@given(tree_and_nodes(), st.integers(min_value=0, max_value=10 ** 6))
def test_expect_at_monotone_in_process(case, seed):
    import random

    tree, raw = case
    tau = canonicalize(raw, tree)
    rng = random.Random(seed)
    lo = AdaptedProcess(tuple(rng.uniform(0, 1) for _ in range(tree.n_nodes)))
    hi = AdaptedProcess(
        tuple(x + rng.uniform(0, 1) for x in lo.values)
    )
    assert expect_at(tree, lo, tau) <= expect_at(tree, hi, tau) + 1e-12
