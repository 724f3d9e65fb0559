"""Round-robin iteration: updates, convergence, audits."""

import dataclasses
import random

import pytest

from dynkin import (
    audit_iteration,
    canonicalize,
    cutoff_obstacle,
    default_round_bound,
    demo_constant,
    enumerate_stopping_times,
    expect_at,
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
from dynkin.solver import audit_deviation_bound
from helpers import chain_tree, triple_game


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
    assert obstacle.values == (0.5, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0)
    assert snell_envelope(spec.tree, obstacle).envelope.values == (1.0,) * 7
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
    latest = {i: state.initial[i] for i in range(3)}
    for rec in state.trace:
        assert leq(rec.tau, latest[rec.player])
        latest[rec.player] = rec.tau


def test_each_update_solves_its_one_sided_problem():
    spec = gen_game(2, 2, 2, seed=51)
    _, state = run(spec)
    times = list(enumerate_stopping_times(spec.tree))
    for rec in state.trace:
        obstacle = cutoff_obstacle(spec, rec.player, rec.theta)
        best = max(expect_at(spec.tree, obstacle, tau) for tau in times)
        assert abs(rec.root_value - best) <= 1e-12


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
