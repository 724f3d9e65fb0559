"""Tree substrate: canonical stopping times, orders, expectations,
enumeration."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkin import (
    EnumerationCapError,
    ScenarioTree,
    TreeError,
    canonicalize,
    count_stopping_times,
    enumerate_stopping_times,
    horizon_stop,
    leq,
    min_stop,
    snell_envelope,
)
from dynkin.tree import _depth_first_stops
from helpers import (
    chain_tree,
    depth_first_leaves,
    depth_stop,
    expect_at,
    leq_by_depth,
    min_stop_by_depth,
    random_tree,
    reference_count_stopping_times,
    reference_depth_first_stops,
    reference_snell_envelope,
    reference_tree_attributes,
    reference_tree_checks,
    reference_uniform,
    relabel,
)


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
    assert t.internal == (2, 1, 0)
    assert t.children[0] == (1, 2)
    assert t.depth == (0, 1, 1, 2, 2, 2, 2)


# The id rule against the frontier construction it replaced: equal
# parents and probabilities (``==`` on positive floats is bit for bit).
@pytest.mark.parametrize("branching", range(1, 6))
def test_uniform_tree_matches_the_frontier_copy(branching):
    for depth in range(1, 9):
        tree = ScenarioTree.uniform(depth, branching)
        parents, probs = reference_uniform(depth, branching)
        assert tree.parents == tuple(parents), depth
        assert tree.cond_probs == tuple(probs), depth


def test_tree_rejects_zero_horizon():
    with pytest.raises(TreeError):
        ScenarioTree([None], [1.0])
    with pytest.raises(TreeError):
        ScenarioTree.uniform(0, 2)


def test_tree_rejects_bad_prob_sum():
    with pytest.raises(TreeError) as exc:
        ScenarioTree([None, 0, 0], [1.0, 0.5, 0.4])
    assert "node 0" in str(exc.value)


@pytest.mark.parametrize("parents, probs, node, total", [
    ([None, 0, 1], [1.0, 0.5, 1.0], 0, 0.5),
    ([None, 0, 1], [1.0, 1.0, 0.5], 1, 0.5),
    ([None, 0, 1, 1], [1.0, 1.0, 0.5, 0.4], 1, 0.9),
], ids=["one_child_at_the_root", "one_child_below", "two_children"])
def test_sibling_sums_keep_the_reference_message(parents, probs, node,
                                                 total):
    with pytest.raises(TreeError) as exc:
        ScenarioTree(parents, probs)
    with pytest.raises(TreeError) as ref:
        reference_tree_checks(parents, probs)
    assert str(exc.value) == str(ref.value) == (
        f"children of node {node} have cond_prob sum {total!r}, expected 1")


def test_tree_rejects_uneven_leaves():
    with pytest.raises(TreeError) as exc:
        ScenarioTree([None, 0, 0, 1], [1.0, 0.5, 0.5, 1.0])
    msg = str(exc.value)
    assert "leaf" in msg and "horizon" in msg


def test_tree_rejects_nontopological_parent():
    with pytest.raises(TreeError):
        ScenarioTree([None, 2, 0], [1.0, 0.5, 0.5])


@pytest.mark.parametrize("probs, bad", [
    ([1.0, True], True),
    ([True, 1.0], True),
    ([1.0, "1"], "1"),
    ([1.0, None], None),
], ids=["bool_child", "bool_root", "string", "none"])
def test_tree_rejects_cond_probs_that_are_not_numbers(probs, bad):
    node = 0 if probs[0] is bad else 1
    with pytest.raises(TreeError) as exc:
        ScenarioTree([None, 0], probs)
    assert str(exc.value) == f"node {node}: cond_prob {bad!r} not a number"


@pytest.mark.parametrize("big", [10**400, -10**400],
                         ids=["positive", "negative"])
def test_tree_rounds_ints_beyond_float_range_to_infinity(big):
    shown = "inf" if big > 0 else "-inf"
    with pytest.raises(TreeError) as exc:
        ScenarioTree([None, 0], [1.0, big])
    assert str(exc.value) == f"node 1: cond_prob {shown} not in (0, 1]"


def test_tree_takes_int_cond_probs_as_floats():
    t = ScenarioTree([None, 0], [1, 1])
    assert t.cond_probs == (1.0, 1.0)
    assert all(type(p) is float for p in t.cond_probs)


def test_node_prob():
    t = binary(2)
    assert t.prob[0] == 1.0
    assert t.prob[1] == 0.5
    assert t.prob[3] == 0.25
    c = chain_tree(3)
    assert all(c.prob[v] == 1.0 for v in range(c.n_nodes))


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
    assert t.leaves == (3, 4, 5, 6)
    assert tau.depth_by_leaf == (1, 1, 2, 2)
    assert tau.node_by_leaf == (1, 1, 5, 6)


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
    z = (0.25, 1.0, 0.0)
    assert expect_at(t, z, horizon_stop(t)) == pytest.approx(0.5, abs=1e-15)
    assert expect_at(t, z, canonicalize([0], t)) == 0.25
    const = (3.0,) * t.n_nodes
    assert expect_at(t, const, horizon_stop(t)) == pytest.approx(3.0, abs=1e-15)


def test_expect_at_rejects_wrong_length():
    t = binary(2)
    with pytest.raises(TreeError):
        expect_at(t, (1.0, 2.0), horizon_stop(t))


def test_count_matches_oracle():
    for tree in (chain_tree(1), chain_tree(5), binary(2), binary(3), binary(4),
                 ScenarioTree.uniform(2, 3)):
        assert count_stopping_times(tree) == oracle_count(tree)
    assert count_stopping_times(binary(2)) == 5
    assert count_stopping_times(binary(3)) == 26
    assert count_stopping_times(binary(4)) == 677
    assert count_stopping_times(binary(5)) == 458330


# Node ids in a game file need only be topological.  These trees number
# their leaves out of depth-first order, e.g. leaves (3, 4, 5, 6) met by a
# depth-first walk as (5, 6, 3, 4).
def relabeled_trees():
    rng = random.Random(77)
    out = [ScenarioTree([None, 0, 0, 2, 2, 1, 1], [1.0] + [0.5] * 6)]
    out += [
        relabel(random_tree(rng, depth=rng.randint(2, 3)), rng)[0]
        for _ in range(20)
    ]
    assert sum(t.leaves != depth_first_leaves(t) for t in out) >= 10
    return out


def test_enumeration_is_complete_and_canonical():
    assert len(list(enumerate_stopping_times(binary(3)))) == 26
    for t in (binary(3), *relabeled_trees()):
        times = list(enumerate_stopping_times(t))
        assert len(times) == count_stopping_times(t)
        assert len({tau.stop_set for tau in times}) == len(times)
        for tau in times:
            assert canonicalize(tau.stop_set, t) == tau
            total = math.fsum(t.prob[v] for v in tau.stop_set)
            assert abs(total - 1.0) <= 1e-12


def test_equality_and_hash_follow_the_stop_set():
    t = binary(3)
    times = list(enumerate_stopping_times(t))
    # the same times rebuilt as new objects, so equal pairs are not identical
    twins = [min_stop(tau, horizon_stop(t)) for tau in times]
    for a in times:
        for b in twins:
            assert (a == b) == (a.stop_set == b.stop_set)
            if a == b:
                assert hash(a) == hash(b)


def test_enumeration_cap_names_the_count():
    t = binary(5)
    with pytest.raises(EnumerationCapError) as exc:
        list(enumerate_stopping_times(t))
    assert "458330" in str(exc.value)
    assert exc.value.count == 458330


def test_a_nan_enumeration_cap_refuses():
    t = binary(2)  # 5 stopping times
    with pytest.raises(EnumerationCapError) as exc:
        next(enumerate_stopping_times(t, cap=math.nan))
    assert exc.value.count == 5
    assert str(exc.value).endswith("the enumeration cap of nan")


def test_enumeration_cap_survives_a_huge_count():
    # the count on a depth-15 binary tree has over 4,300 digits
    t = binary(15)
    with pytest.raises(EnumerationCapError) as exc:
        next(enumerate_stopping_times(t))
    assert exc.value.count == count_stopping_times(t)
    assert "at least 2**" in str(exc.value)


def test_enumeration_order_matches_the_recursive_listing():
    for t in (binary(3), ScenarioTree.uniform(2, 3), chain_tree(4),
              *relabeled_trees()):
        got = list(enumerate_stopping_times(t))
        assert got == [canonicalize(o, t) for o in oracle_options(t)]


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
    total = math.fsum(tree.prob[v] for v in tau.stop_set)
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
    tree, raw = case
    tau = canonicalize(raw, tree)
    rng = random.Random(seed)
    lo = tuple(rng.uniform(0, 1) for _ in range(tree.n_nodes))
    hi = tuple(x + rng.uniform(0, 1) for x in lo)
    assert expect_at(tree, lo, tau) <= expect_at(tree, hi, tau) + 1e-12


@st.composite
def tree_and_stops(draw):
    """A tree, renumbered in a random topological order half the time,
    and two to four stopping times on it."""
    tree = draw(trees())
    if draw(st.booleans()):
        tree = relabel(tree, random.Random(draw(st.integers(0, 10 ** 6))))[0]
    ids = st.integers(min_value=0, max_value=tree.n_nodes - 1)
    raws = draw(st.lists(st.lists(ids, max_size=tree.n_nodes),
                         min_size=2, max_size=4))
    return tree, [canonicalize(raw, tree) for raw in raws]


@settings(max_examples=120, deadline=None)
@given(tree_and_stops())
def test_comparing_by_id_matches_comparing_by_depth(case):
    tree, taus = case
    assert min_stop(*taus) == min_stop_by_depth(*taus)
    for a in taus:
        assert a.depth_by_leaf == tuple(tree.depth[v] for v in a.node_by_leaf)
        for b in taus:
            assert min_stop(a, b) == min_stop_by_depth(a, b)
            assert leq(a, b) == leq_by_depth(a, b)


@st.composite
def kernel_trees(draw):
    """A tree from ``trees()``, a chain, or a tree whose nodes have one
    to five children; renumbered in a random topological order half the
    time."""
    kind = draw(st.sampled_from(["drawn", "chain", "uneven"]))
    if kind == "chain":
        tree = chain_tree(draw(st.integers(min_value=1, max_value=40)))
    elif kind == "uneven":
        rng = random.Random(draw(st.integers(0, 10 ** 6)))
        tree = random_tree(rng, depth=rng.randint(1, 3), max_branch=5)
    else:
        tree = draw(trees())
    if draw(st.booleans()):
        tree = relabel(tree, random.Random(draw(st.integers(0, 10 ** 6))))[0]
    return tree


# The kernels over ``tree.internal`` against the leaf-branching versions
# kept in helpers: identical envelopes (compared bit for bit), hits, root
# values, counts and enumeration orders.
@settings(max_examples=150, deadline=None)
@given(kernel_trees(), st.integers(0, 10 ** 6))
def test_kernels_over_internal_match_the_references(tree, seed):
    # each internal node once, no leaf, every child before its parent
    internal = tree.internal
    at = {v: k for k, v in enumerate(internal)}
    assert len(at) == len(internal)
    assert len(internal) + len(tree.leaves) == tree.n_nodes
    assert at.keys().isdisjoint(tree.leaves)
    for v in internal:
        assert all(at.get(c, -1) < at[v] for c in tree.children[v])

    rng = random.Random(seed)
    raw = [rng.uniform(-1.0, 1.0) for _ in range(tree.n_nodes)]
    obstacles = [
        raw,
        [raw[0]] * tree.n_nodes,  # a tie within EQ_TOL at every node
        [x * 2.0 ** -40 for x in raw],
        [x * 2.0 ** 30 for x in raw],
    ]
    for obstacle in obstacles:
        got = snell_envelope(tree, obstacle)
        want = reference_snell_envelope(tree, obstacle)
        assert list(map(float.hex, got.envelope)) == list(
            map(float.hex, want.envelope))
        assert got.first_hit == want.first_hit
        assert got.root_value.hex() == want.root_value.hex()

    assert count_stopping_times(tree) == reference_count_stopping_times(tree)
    cap = 3000
    try:
        want = reference_depth_first_stops(tree, cap)
    except EnumerationCapError as exc:
        with pytest.raises(EnumerationCapError) as got:
            _depth_first_stops(tree, cap)
        assert got.value.count == exc.count
    else:
        assert _depth_first_stops(tree, cap) == want


TREE_FAULTS = (
    None, "bool_parent", "float_parent", "negative_parent", "late_parent",
    "bool_prob", "string_prob", "nan_prob", "zero_prob", "big_prob",
    "sibling_sum", "uneven_leaves", "wrong_horizon",
)


@st.composite
def tree_inputs(draw):
    """The parents, probabilities and declared horizon of a
    ``kernel_trees()`` tree, with at most one fault put in."""
    tree = draw(kernel_trees())
    parents, probs = list(tree.parents), list(tree.cond_probs)
    horizon = draw(st.sampled_from((None, tree.horizon)))
    n = tree.n_nodes
    v = draw(st.integers(1, n - 1))
    fault = draw(st.sampled_from(TREE_FAULTS))
    if fault == "bool_parent":
        parents[v] = draw(st.booleans())
    elif fault == "float_parent":
        parents[v] = float(parents[v])
    elif fault == "negative_parent":
        parents[v] = -draw(st.integers(1, 3))
    elif fault == "late_parent":
        parents[v] = draw(st.integers(v, n))
    elif fault == "uneven_leaves":
        parents.append(draw(st.sampled_from(tree.leaves)))
        probs.append(1.0)
    elif fault == "wrong_horizon":
        horizon = tree.horizon + draw(st.sampled_from((-1, 1)))
    elif fault is not None:
        v = draw(st.integers(0, n - 1))  # the root's entry too
        probs[v] = {
            "bool_prob": True,
            "string_prob": str(probs[v]),
            "nan_prob": math.nan,
            "zero_prob": 0.0,
            "big_prob": draw(st.sampled_from((1.5, math.nextafter(1.0, 2)))),
            "sibling_sum": probs[v] + draw(st.sampled_from((1e-11, -1e-11))),
        }[fault]
    return parents, probs, horizon


def _built(build, *args):
    """What a build gives: its attributes, or its error's class and
    message."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _tree_attributes(*args):
    tree = ScenarioTree(*args)
    return {name: getattr(tree, name) for name in ScenarioTree.__slots__}


# The one-pass build against the two-pass copy in helpers: every
# attribute (the probabilities are positive, so ``==`` compares them bit
# for bit), or the same first fault.
@settings(max_examples=500, deadline=None)
@given(tree_inputs())
def test_tree_build_matches_the_two_pass_copy(case):
    assert _built(_tree_attributes, *case) == _built(
        reference_tree_attributes, *case)
