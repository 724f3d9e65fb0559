"""Round-robin iteration: updates, convergence, audits."""

import dataclasses
import math
import random

import pytest

from dynkin import (
    GameSpec,
    ScenarioTree,
    audit_iteration,
    canonicalize,
    cutoff_obstacle,
    default_round_bound,
    demo_constant,
    enumerate_stopping_times,
    gen_game,
    horizon_stop,
    init_state,
    leq,
    make_candidate,
    min_stop,
    payoff,
    run,
    snell_envelope,
    step,
    verify_nash,
)
from helpers import (
    audit_deviation_bound,
    chain_tree,
    expect_at,
    random_process,
    random_tree,
    reference_run,
    reference_step,
    relabeled_game,
    triple_game,
)


def falling_chain_game():
    # stopping at the root is strictly better than waiting
    return triple_game(chain_tree(1), x=(0.5, 0.1), q=(0.5, 0.1),
                       y=(0.5, 0.1))


def test_init_state_waits_at_horizon():
    spec = demo_constant(3, 2, 2)
    state = init_state(spec)
    hor = horizon_stop(spec.tree)
    assert state.n == 3
    assert state.current == (hor, hor, hor)
    assert state.trace == ()


def test_constant_game_first_step_keeps_horizon():
    spec = demo_constant(2, 2, 2)
    state = step(init_state(spec), spec)
    rec = state.trace[0]
    assert rec.n == 3
    assert rec.player == 0
    assert rec.theta == horizon_stop(spec.tree)
    assert rec.mu == horizon_stop(spec.tree)
    assert rec.tau == horizon_stop(spec.tree)
    obstacle = cutoff_obstacle(spec, 0, rec.theta)
    assert obstacle == (0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0)
    assert snell_envelope(spec.tree, obstacle).envelope == (1.0,) * 7
    assert rec.root_value == 1.0
    assert rec.flat_gap == 0.0


def test_falling_chain_stops_at_root():
    spec = falling_chain_game()
    state = step(init_state(spec), spec)
    rec = state.trace[0]
    assert rec.mu.stop_set == {0}
    assert rec.tau.stop_set == {0}
    assert rec.root_value == 0.5

    cand, full = run(spec)
    assert cand.converged
    assert cand.rounds_used == 2
    assert [sorted(t.stop_set) for t in cand.T_star] == [[0], [1]]
    assert payoff(spec, 0, cand.T_star) == 0.5
    assert payoff(spec, 1, cand.T_star) == 0.5
    assert verify_nash(spec, cand.T_star).is_nash


def test_constant_game_converges_in_one_round():
    for players in (2, 3, 5):
        spec = demo_constant(players, 2, 2)
        cand, state = run(spec)
        assert cand.converged
        assert cand.rounds_used == 1
        hor = horizon_stop(spec.tree)
        assert cand.T_star == (hor,) * players
        assert cand.R_star == hor


def test_candidate_cutoffs_are_derived_minima():
    spec = gen_game(3, 3, 2, seed=17)
    cand, _ = run(spec)
    for i in range(3):
        others = [t for j, t in enumerate(cand.T_star) if j != i]
        assert cand.R_star_i[i] == min_stop(*others)
    assert cand.R_star == min_stop(*cand.T_star)


def test_converged_profile_is_a_fixed_point():
    spec = gen_game(2, 3, 2, seed=31)
    cand, state = run(spec)
    assert cand.converged

    # one extra round of stepping leaves the profile unchanged and
    # reproduces the last round's records
    extra = state
    for _ in range(spec.n_players):
        extra = step(extra, spec)
    assert extra.current == state.current == cand.T_star
    last = state.trace[-spec.n_players:]
    new = extra.trace[-spec.n_players:]
    for a, b in zip(last, new):
        assert a.player == b.player
        assert a.theta == b.theta
        assert a.mu == b.mu
        assert a.tau == b.tau
        assert a.root_value == b.root_value


def test_rounds_stay_within_the_default_bound():
    for seed in range(12):
        spec = gen_game(2 + seed % 3, 3, 2, seed=200 + seed,
                        mode=("strict", "touching")[seed % 2])
        cand, _ = run(spec)
        assert cand.converged
        assert cand.rounds_used <= default_round_bound(spec)


def test_non_convergence_is_reported_not_raised():
    spec = gen_game(2, 3, 2, seed=3)
    cand, _ = run(spec, max_rounds=0)
    assert not cand.converged
    assert cand.rounds_used == 0


def test_stopping_times_shrink_along_the_trace():
    spec = gen_game(3, 3, 2, seed=41)
    _, state = run(spec)
    latest = {i: horizon_stop(spec.tree) for i in range(3)}
    for rec in state.trace:
        assert leq(rec.tau, latest[rec.player])
        latest[rec.player] = rec.tau


def test_every_update_is_a_canonical_stopping_time():
    # step builds the new time from per-leaf stops without canonicalize
    for seed in range(12):
        spec = gen_game(2 + seed % 3, (4, 3)[seed % 2], (2, 3)[seed % 2],
                        seed=300 + seed,
                        mode=("strict", "touching")[seed // 2 % 2])
        _, state = run(spec)
        for rec in state.trace:
            canon = canonicalize(rec.tau.stop_set, spec.tree)
            assert rec.tau.node_by_leaf == canon.node_by_leaf
            assert rec.tau.depth_by_leaf == canon.depth_by_leaf


def test_each_update_solves_its_one_sided_problem():
    spec = gen_game(2, 2, 2, seed=51)
    _, state = run(spec)
    times = list(enumerate_stopping_times(spec.tree))
    for rec in state.trace:
        obstacle = cutoff_obstacle(spec, rec.player, rec.theta)
        best = max(expect_at(spec.tree, obstacle, tau) for tau in times)
        assert abs(rec.root_value - best) <= 1e-12


def _scaled(spec, scale):
    def times(procs):
        return tuple(tuple(v * scale for v in p) for p in procs)

    return GameSpec(spec.tree, times(spec.X), times(spec.Q), times(spec.Y))


@pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**30, 1e9], ids=repr)
def test_mu_before_the_cutoff_never_passes_the_old_stop(scale):
    # Why the update can take mu wherever it stops strictly before the
    # cutoff: there mu already stops no later than the player's previous
    # stop, so the update is min(mu, old) on those paths.
    rng = random.Random(10)
    moved = 0
    for seed in range(16):
        spec = gen_game(2 + seed % 3, rng.randint(2, 4), rng.randint(2, 3),
                        seed=seed, mode=("strict", "touching")[seed % 2])
        if seed % 4 >= 2:
            spec = relabeled_game(spec, random.Random(seed))
        _, state = run(_scaled(spec, scale))
        last = {}
        for rec in state.trace:
            old = last.get(rec.player, horizon_stop(spec.tree))
            for m, t, o in zip(rec.mu.node_by_leaf, rec.theta.node_by_leaf,
                               old.node_by_leaf):
                if m < t:
                    assert m <= o, (seed, rec.n)
                    moved += m < o
            last[rec.player] = rec.tau
    assert moved


def test_audit_accepts_clean_runs():
    for seed in (0, 1, 2, 3):
        spec = gen_game(2 + seed, 3, 2, seed=70 + seed)
        _, state = run(spec)
        assert audit_iteration(state) == []


def test_audit_flags_a_corrupted_record():
    spec = falling_chain_game()
    _, state = run(spec)
    hor = horizon_stop(spec.tree)
    bad_rec = dataclasses.replace(state.trace[0], mu=hor)
    bad_state = dataclasses.replace(
        state, trace=(bad_rec,) + state.trace[1:]
    )
    checks = {v.check for v in audit_iteration(bad_state)}
    assert "mu_eq_min_tau_theta" in checks


def test_audit_flags_an_envelope_gap_after_the_cutoff():
    spec = falling_chain_game()
    _, state = run(spec)
    assert all(rec.flat_gap == 0.0 for rec in state.trace)
    bad_rec = dataclasses.replace(state.trace[0], flat_gap=0.5, flat_node=1)
    bad_state = dataclasses.replace(
        state, trace=(bad_rec,) + state.trace[1:]
    )
    viols = [v for v in audit_iteration(bad_state)
             if v.check == "envelope_flat_after_cutoff"]
    assert [v.n for v in viols] == [bad_rec.n]
    assert "node 1 " in viols[0].detail
    assert audit_iteration(bad_state, tol=0.5) == []


def test_deviation_bound_audit_accepts_clean_runs():
    for seed in range(6):
        spec = gen_game(2 + seed % 2, 3, 2, seed=80 + seed,
                        mode=("strict", "touching")[seed % 2])
        _, state = run(spec)
        assert audit_deviation_bound(spec, state) == []


def test_deviation_bound_audit_flags_a_bad_update():
    spec = triple_game(chain_tree(1), x=(0.9, 0.1), q=(0.9, 0.1),
                       y=(0.9, 0.1))
    _, state = run(spec)
    hor = horizon_stop(spec.tree)
    bad_rec = dataclasses.replace(state.trace[0], tau=hor)
    bad_state = dataclasses.replace(state, trace=(bad_rec,) + state.trace[1:])
    viols = audit_deviation_bound(spec, bad_state)
    assert any(v.check == "deviation_bound" for v in viols)


def test_make_candidate_rejects_short_profiles():
    spec = demo_constant(2, 1, 2)
    with pytest.raises(ValueError):
        make_candidate((horizon_stop(spec.tree),))


def _record_fields(rec):
    """Every field of a record; floats by their exact bits."""
    return (
        rec.n,
        rec.player,
        rec.theta.node_by_leaf,
        rec.mu.node_by_leaf,
        rec.tau.node_by_leaf,
        float.hex(rec.root_value),
        float.hex(rec.flat_gap),
        rec.flat_node,
    )


def _random_game(seed):
    # Payoffs in no order: run needs no assumption, and unordered
    # obstacles flip more hit marks between updates.
    rng = random.Random(seed)
    tree = random_tree(rng, depth=rng.randint(2, 5))
    players = rng.randint(2, 4)

    def procs():
        return tuple(random_process(rng, tree) for _ in range(players))

    return GameSpec(tree, procs(), procs(), procs())


def _sum_beyond_range_game():
    # Two children whose probability-weighted payoffs sum past the
    # largest float: the envelope overflows to inf.
    m = 1.7976931348623157e308
    tree = ScenarioTree([None, 0, 0], [1.0, 0.5000000000001,
                                      0.4999999999999999])
    vals = ((m,) * 3,) * 2
    return GameSpec(tree, vals, vals, vals)


def _cached_solver_games():
    for seed in range(24):
        spec = gen_game(2 + seed % 3, (3, 4, 5, 2)[seed % 4],
                        (2, 2, 2, 3)[seed % 4], seed=400 + seed,
                        mode=("strict", "touching")[seed // 4 % 2])
        yield f"gen{seed}", spec
        if seed % 3 == 0:
            yield f"relabeled{seed}", relabeled_game(spec, random.Random(seed))
    for seed in range(4):
        yield f"chain{seed}", gen_game(2 + seed % 3, 40, 1, seed=500 + seed,
                                       mode=("strict", "touching")[seed % 2])
    for seed in range(12):
        yield f"random{seed}", _random_game(600 + seed)


def _scaled_games(scale):
    for name, spec in _cached_solver_games():
        yield name, _scaled(spec, scale) if scale != 1.0 else spec
    if scale == 1.0:  # payoffs at the float limit cannot be scaled up
        yield "sum_beyond_range", _sum_beyond_range_game()


@pytest.mark.parametrize("scale", [1.0, 2.0**-40, 2.0**30, 1e9], ids=repr)
def test_cached_run_matches_full_recomputation(scale):
    for name, spec in _scaled_games(scale):
        cand, state = run(spec)
        want_cand, want = reference_run(spec)
        assert cand == want_cand, name
        assert state == want, name
        assert [_record_fields(r) for r in state.trace] == [
            _record_fields(r) for r in want.trace], name
        for rec in state.trace:
            # a NaN gap is never the largest
            assert rec.flat_node < 0 or not math.isnan(rec.flat_gap), name


def test_step_matches_the_full_recomputation_from_any_state():
    for name, spec in _scaled_games(1.0):
        _, done = run(spec)
        for state in (init_state(spec), done):
            got, want = state, state
            for _ in range(2 * spec.n_players):
                got, want = step(got, spec), reference_step(want, spec)
            assert got == want, name
            assert [_record_fields(r) for r in got.trace] == [
                _record_fields(r) for r in want.trace], name


def test_a_repeated_cutoff_repeats_the_players_record():
    repeats = 0
    for name, spec in _scaled_games(1.0):
        _, state = run(spec)
        last = {}
        for rec in state.trace:
            prev = last.get(rec.player)
            if prev is not None and prev.theta == rec.theta:
                repeats += 1
                assert _record_fields(rec)[2:] == _record_fields(prev)[2:], (
                    name, rec.n)
            last[rec.player] = rec
    assert repeats
