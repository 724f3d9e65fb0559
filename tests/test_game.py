"""Game data model, assumption checks, payoff semantics."""

import itertools
import math
import random

import pytest

from dynkin import (
    GameError,
    GameSpec,
    ScenarioTree,
    best_response_process,
    canonicalize,
    cutoff_obstacle,
    demo_constant,
    end_payoff,
    enumerate_stopping_times,
    gen_game,
    horizon_stop,
    payoff,
    validate_assumptions,
)
from helpers import (
    chain_tree,
    depth_stop,
    expect_at,
    random_tree,
    reference_validate_assumptions,
    relabeled_game,
    triple_game,
)


def test_spec_rejects_single_player():
    t = chain_tree(1)
    p = (0.0,) * t.n_nodes
    with pytest.raises(GameError):
        GameSpec(t, (p,), (p,), (p,))


def test_spec_rejects_wrong_length_process():
    t = chain_tree(1)
    good = (0.0,) * t.n_nodes
    bad = (0.0,)
    with pytest.raises(GameError):
        GameSpec(t, (good, bad), (good, good), (good, good))


def test_spec_rejects_nonfinite_payoffs():
    t = chain_tree(2)
    for name, player, node, bad in (
        ("X", 0, 1, float("nan")),
        ("Q", 1, 2, float("inf")),
        ("Y", 1, 0, float("-inf")),
    ):
        procs = {k: [[0.0] * 3, [0.0] * 3] for k in "XQY"}
        procs[name][player][node] = bad
        with pytest.raises(GameError) as exc:
            GameSpec(t, procs["X"], procs["Q"], procs["Y"])
        assert str(exc.value) == (
            f"processes.{name}[{player}]: node {node}: process value "
            f"{bad!r} not finite"
        )


def test_spec_rejects_ints_beyond_float_range_as_infinite():
    t = chain_tree(2)
    # 10**5000 is too long even for repr()
    for name, player, node, bad, shown in (
        ("X", 1, 2, 10**400, "inf"),
        ("Q", 0, 0, -10**5000, "-inf"),
    ):
        procs = {k: [[0.0] * 3, [0.0] * 3] for k in "XQY"}
        procs[name][player][node] = bad
        with pytest.raises(GameError) as exc:
            GameSpec(t, procs["X"], procs["Q"], procs["Y"])
        assert str(exc.value) == (
            f"processes.{name}[{player}]: node {node}: process value "
            f"{shown} not finite"
        )


def test_spec_rejects_bool_and_non_number_payoffs():
    t = chain_tree(2)
    for name, player, node, bad in (
        ("X", 0, 1, True),
        ("Q", 1, 2, "0.5"),
        ("Y", 1, 0, None),
    ):
        procs = {k: [[0.0] * 3, [0.0] * 3] for k in "XQY"}
        procs[name][player][node] = bad
        with pytest.raises(GameError) as exc:
            GameSpec(t, procs["X"], procs["Q"], procs["Y"])
        assert str(exc.value) == (
            f"processes.{name}[{player}]: node {node}: process value "
            f"{bad!r} not a number"
        )


def test_spec_turns_int_payoffs_into_float_tuples():
    t = chain_tree(1)
    spec = GameSpec(t, [[0, 1], [2, 3]], ([4, 5], [6, 7]), [(8, 9)] * 2)
    for procs in (spec.X, spec.Q, spec.Y):
        assert isinstance(procs, tuple)
        for p in procs:
            assert isinstance(p, tuple)
            assert all(type(x) is float for x in p)
    assert spec.Q == ((4.0, 5.0), (6.0, 7.0))


def test_constant_game_passes_assumptions():
    spec = demo_constant(3, 2, 2)
    report = validate_assumptions(spec)
    assert report.passed
    assert report.a3_violations == ()
    assert report.a4_violations == ()


def test_order_violation_is_located():
    t = chain_tree(1)
    spec = triple_game(t, x=(2.0, 0.0), q=(1.0, 0.5), y=(3.0, 1.0))
    report = validate_assumptions(spec)
    assert not report.passed
    nodes = {(v.player, v.node) for v in report.a3_violations}
    assert nodes == {(0, 0), (1, 0)}


def test_touching_rule_violation():
    # Player 0 has Q < Y at the internal node, so player 1 needs X < Y
    # there, which fails because X = Y = 1.
    t = chain_tree(1)
    x = ((0.0, 0.0), (1.0, 0.0))
    q = ((0.0, 0.5), (1.0, 0.5))
    y = ((1.0, 1.0), (1.0, 1.0))
    spec = GameSpec(t, x, q, y)
    report = validate_assumptions(spec)
    assert report.a3_violations == ()
    assert len(report.a4_violations) == 1
    v = report.a4_violations[0]
    assert v.node == 0
    assert v.trigger_player == 0
    assert v.blocking_player == 1


def test_touching_rule_vacuous_when_q_equals_y():
    t = chain_tree(1)
    spec = triple_game(t, x=(0.5, 0.5), q=(1.0, 1.0), y=(1.0, 1.0))
    assert validate_assumptions(spec).passed


def test_strict_tol_loosens_the_trigger():
    t = chain_tree(1)
    x = ((0.0, 0.0), (1.0, 0.0))
    q = ((1.0 - 1e-13, 0.5), (1.0, 0.5))
    y = ((1.0, 1.0), (1.0, 1.0))
    spec = GameSpec(t, x, q, y)
    assert not validate_assumptions(spec, strict_tol=0.0).passed
    assert validate_assumptions(spec, strict_tol=1e-9).passed


@pytest.mark.parametrize("strict_tol", [0.0, 0.05, -0.05, math.nan], ids=repr)
def test_whole_array_checks_match_the_node_by_node_reference(strict_tol):
    rng = random.Random(7)
    found = [0, 0]
    for seed in range(40):
        tree = random_tree(rng, depth=rng.randint(1, 4))
        players = rng.randint(2, 4)
        # Few distinct values, so ties (Q == Y, X == Y) are common.
        levels = [0.0, 0.25, 0.5, 0.75, 1.0]

        def procs():
            return tuple(
                tuple(rng.choice(levels) for _ in range(tree.n_nodes))
                for _ in range(players)
            )

        spec = GameSpec(tree, procs(), procs(), procs())
        if seed % 2:
            spec = relabeled_game(spec, random.Random(seed))
        for game in (spec, gen_game(players, 3, 2, seed, mode="touching")):
            got = validate_assumptions(game, strict_tol)
            want = reference_validate_assumptions(game, strict_tol)
            assert got.a3_violations == want.a3_violations
            assert got.a4_violations == want.a4_violations
            found[0] += len(want.a3_violations)
            found[1] += len(want.a4_violations)
    # A NaN tolerance triggers nothing, so it finds no touching violation.
    assert found[0] and bool(found[1]) is not math.isnan(strict_tol)


def test_end_payoff_uses_q_only_at_leaves():
    t = chain_tree(1)
    spec = triple_game(t, x=(0.0, 0.0), q=(0.0, 3.0), y=(5.0, 7.0))
    assert end_payoff(spec, 0) == (5.0, 3.0)

    spec2 = demo_constant(2, 2, 2)
    assert end_payoff(spec2, 1) == (1.0,) * 7


def test_cutoff_obstacle_at_horizon_and_root():
    t = ScenarioTree.uniform(2, 2)
    x = tuple(float(v) / 10 for v in range(7))
    q = tuple(1.0 + v for v in range(7))
    y = tuple(2.0 + v for v in range(7))
    spec = triple_game(t, x, q, y)

    hor = cutoff_obstacle(spec, 0, horizon_stop(t))
    assert hor[:3] == x[:3]
    assert hor[3:] == q[3:]

    root = cutoff_obstacle(spec, 0, canonicalize([0], t))
    assert root == (y[0],) * 7


def test_cutoff_obstacle_mixed_cutoff():
    t = ScenarioTree.uniform(2, 2)
    x = tuple(float(v) / 10 for v in range(7))
    q = tuple(1.0 + v for v in range(7))
    y = tuple(2.0 + v for v in range(7))
    spec = triple_game(t, x, q, y)
    theta = canonicalize([1], t)  # stop left at depth 1, right at horizon
    u = cutoff_obstacle(spec, 0, theta)
    assert u[0] == x[0]
    assert u[1] == y[1]
    assert u[3] == y[1] and u[4] == y[1]
    assert u[2] == x[2]
    assert u[5] == q[5] and u[6] == q[6]


def test_best_response_process_examples():
    t = ScenarioTree.uniform(2, 2)
    x = tuple(float(v) / 10 for v in range(7))
    q = tuple(1.0 + v for v in range(7))
    y = tuple(2.0 + v for v in range(7))
    spec = triple_game(t, x, q, y)

    h_root = best_response_process(spec, 0, (canonicalize([0], t),))
    assert h_root[0] == q[0]
    assert h_root[1:] == (y[0],) * 6

    h_hor = best_response_process(spec, 0, (horizon_stop(t),))
    assert h_hor[:3] == x[:3]
    assert h_hor[3:] == q[3:]

    h_mixed = best_response_process(spec, 0, (canonicalize([1], t),))
    assert h_mixed[0] == x[0]
    assert h_mixed[1] == q[1]
    assert h_mixed[3] == y[1] and h_mixed[4] == y[1]
    assert h_mixed[2] == x[2]
    assert h_mixed[5] == q[5] and h_mixed[6] == q[6]


def test_payoff_case_split():
    spec = demo_constant(2, 2, 2)
    t = spec.tree
    hor = horizon_stop(t)
    root = canonicalize([0], t)

    # stopping strictly first pays X, the bystander collects Y
    assert payoff(spec, 0, (root, hor)) == 0.5
    assert payoff(spec, 1, (root, hor)) == 1.0
    # simultaneous stops pay Q
    assert payoff(spec, 0, (root, root)) == 1.0
    for t0 in (0, 1, 2):
        prof = (depth_stop(t, t0),) * 2
        assert payoff(spec, 0, prof) == 1.0
        assert payoff(spec, 1, prof) == 1.0


def test_payoff_rejects_wrong_profile_length():
    spec = demo_constant(2, 2, 2)
    with pytest.raises(GameError):
        payoff(spec, 0, (horizon_stop(spec.tree),))


def test_payoff_matches_stopped_best_response_process():
    # the pathwise case split and the frozen-process route agree on
    # every canonical profile of a small random game
    rng = random.Random(21)
    spec = gen_game(2, 2, 2, seed=99, mode="touching")
    tree = spec.tree
    times = list(enumerate_stopping_times(tree))
    for prof in itertools.product(times, repeat=2):
        for i in range(2):
            others = tuple(tau for j, tau in enumerate(prof) if j != i)
            h = best_response_process(spec, i, others)
            direct = payoff(spec, i, prof)
            via_h = expect_at(tree, h, prof[i])
            assert abs(direct - via_h) <= 1e-12


def test_payoff_three_player_consistency_sampled():
    rng = random.Random(22)
    spec = gen_game(3, 2, 2, seed=7, mode="strict")
    tree = spec.tree
    times = list(enumerate_stopping_times(tree))
    for _ in range(60):
        prof = tuple(rng.choice(times) for _ in range(3))
        for i in range(3):
            others = tuple(tau for j, tau in enumerate(prof) if j != i)
            h = best_response_process(spec, i, others)
            assert abs(
                payoff(spec, i, prof) - expect_at(tree, h, prof[i])
            ) <= 1e-12


def test_payoff_scales_linearly():
    spec = gen_game(2, 2, 2, seed=5)
    lam = 3.5
    scaled = GameSpec(
        spec.tree,
        tuple(tuple(lam * x for x in p) for p in spec.X),
        tuple(tuple(lam * x for x in p) for p in spec.Q),
        tuple(tuple(lam * x for x in p) for p in spec.Y),
    )
    rng = random.Random(23)
    times = list(enumerate_stopping_times(spec.tree))
    for _ in range(40):
        prof = tuple(rng.choice(times) for _ in range(2))
        for i in range(2):
            assert abs(
                payoff(scaled, i, prof) - lam * payoff(spec, i, prof)
            ) <= 1e-9
