"""Round-robin iteration: updates, convergence, audits."""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynkin import (
    GameSpec,
    ScenarioTree,
    SolverState,
    StoppingTime,
    TreeError,
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
    residual_yq,
    run,
    snell_envelope,
    solve_and_certify,
    solver,
    step,
    verify_nash,
    verify_streamline,
)
from dynkin.snell import EQ_TOL
from helpers import (
    audit_deviation_bound,
    chain_tree,
    expect_at,
    random_process,
    random_stop,
    random_tree,
    reference_audit_iteration,
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


@pytest.mark.parametrize("call", [run, solve_and_certify])
def test_a_negative_round_budget_is_refused(call):
    with pytest.raises(ValueError, match=r"max_rounds must be at least 0, "
                                         r"got -5$"):
        call(demo_constant(2, 2, 2), max_rounds=-5)


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
    # A NaN tolerance fails closed: every record's flat check fails.
    viols = audit_iteration(state, tol=math.nan)
    assert [(v.n, v.check) for v in viols] == [
        (rec.n, "envelope_flat_after_cutoff") for rec in state.trace]


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


def test_run_hands_one_cache_dict_to_every_step(monkeypatch):
    for name, spec in _scaled_games(1.0):
        want_cand, want = run(spec)
        calls = []

        def counting_step(state, spec, **kwargs):  # no positional cache
            calls.append(kwargs)
            return step(state, spec, **kwargs)

        monkeypatch.setattr(solver, "step", counting_step)
        cand, state = run(spec)
        monkeypatch.undo()
        assert (cand, state) == (want_cand, want), name
        assert [_record_fields(r) for r in state.trace] == [
            _record_fields(r) for r in want.trace], name
        assert type(state) is SolverState, name
        assert len(calls) == len(state.trace), name
        caches = calls[0]["_caches"]
        assert all(list(kw) == ["_caches"] and kw["_caches"] is caches
                   for kw in calls), name
        assert sorted(caches) == list(range(spec.n_players)), name


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


AUDIT_EDITS = ("mu_past_theta", "tau_grows", "broken_rule", "random_time",
               "flat_gap", "other_tree", "twin_tree", "drop")


@st.composite
def edited_traces(draw):
    """A solver run's final state with up to three records edited, and a
    tolerance.  Gaps and tolerances are not NaN: there the audit fails
    closed and the copy does not."""
    seed = draw(st.integers(0, 10 ** 6))
    spec = gen_game(draw(st.integers(2, 3)), draw(st.integers(1, 3)),
                    draw(st.integers(1, 3)), seed,
                    mode=draw(st.sampled_from(("strict", "touching"))))
    _, state = run(spec)
    tree = spec.tree
    rng = random.Random(seed)
    trace = list(state.trace)
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(trace) - 1))
        rec = trace[k]
        edit = draw(st.sampled_from(AUDIT_EDITS))
        field = draw(st.sampled_from(("mu", "theta", "tau")))
        if edit == "mu_past_theta":
            rec = dataclasses.replace(rec, theta=canonicalize([0], tree))
        elif edit == "tau_grows":
            rec = dataclasses.replace(rec, tau=horizon_stop(tree))
        elif edit == "broken_rule":
            nodes = list(rec.tau.node_by_leaf)
            j = draw(st.integers(0, len(nodes) - 1))
            nodes[j] = 0 if nodes[j] else tree.leaves[j]
            rec = dataclasses.replace(rec, tau=StoppingTime(tree, nodes))
        elif edit == "random_time":
            rec = dataclasses.replace(rec, **{field: random_stop(rng, tree)})
        elif edit == "flat_gap":
            rec = dataclasses.replace(
                rec, flat_gap=draw(st.sampled_from(
                    (0.0, 1e-9, 2e-9, 0.5, math.inf))),
                flat_node=draw(st.integers(0, tree.n_nodes - 1)))
        elif edit == "other_tree":
            other = ScenarioTree.uniform(tree.horizon + 1, 2)
            rec = dataclasses.replace(rec, **{field: horizon_stop(other)})
        elif edit == "twin_tree":  # an equal tree, another object
            twin = ScenarioTree(tree.parents, tree.cond_probs)
            nodes = getattr(rec, field).node_by_leaf
            rec = dataclasses.replace(
                rec, **{field: StoppingTime(twin, nodes)})
        if edit == "drop" and len(trace) > 1:
            del trace[k]
        else:
            trace[k] = rec
    tol = draw(st.sampled_from((0.0, EQ_TOL, 0.5)))
    return dataclasses.replace(state, trace=tuple(trace)), tol


def _audited(audit, state, tol):
    """Every violation's fields, or the error's class and message."""
    try:
        return [(v.n, v.check, v.detail) for v in audit(state, tol)]
    except Exception as exc:
        return type(exc), str(exc)


def _short_mu_case():
    """A 9-leaf game whose first record's ``mu`` holds 8 stops, on a tree
    equal to the game's: the audit's per-leaf lists would truncate."""
    spec = gen_game(2, 2, 3, 1)
    _, state = run(spec)
    twin = ScenarioTree(spec.tree.parents, spec.tree.cond_probs)
    short = StoppingTime(
        twin, horizon_stop(ScenarioTree.uniform(3, 2)).node_by_leaf)
    trace = (dataclasses.replace(state.trace[0], mu=short),
             *state.trace[1:])
    return dataclasses.replace(state, trace=trace), EQ_TOL


# The list-comparing audit against the ``min_stop``-building copy in
# helpers: the same violations in the same order, or the same error.
@settings(max_examples=300, deadline=None)
@given(edited_traces())
@example(_short_mu_case())
def test_audit_matches_the_min_stop_copy(case):
    state, tol = case
    assert _audited(audit_iteration, state, tol) == _audited(
        reference_audit_iteration, state, tol)


def _short_time_calls(spec, cand, state, bad):
    """Every reader of stopping times, each handed ``bad`` once."""
    good = cand.T_star[0]
    t_star = (bad, *cand.T_star[1:])
    record = dataclasses.replace(state.trace[0], tau=bad)
    return {
        "verify_streamline": lambda: verify_streamline(
            spec, dataclasses.replace(cand, T_star=t_star)),
        "verify_nash": lambda: verify_nash(spec, t_star),
        "payoff_own": lambda: payoff(spec, 0, t_star),
        "payoff_rival": lambda: payoff(spec, 1, t_star),
        "residual_yq": lambda: residual_yq(
            spec, dataclasses.replace(cand, T_star=t_star)),
        "min_stop_alone": lambda: min_stop(bad),
        "min_stop_first": lambda: min_stop(bad, good),
        "min_stop_second": lambda: min_stop(good, bad),
        "leq_first": lambda: leq(bad, good),
        "leq_second": lambda: leq(good, bad),
        "step_own": lambda: step(
            SolverState(2, t_star, state.trace), spec),
        "step_rival": lambda: step(
            SolverState(3, t_star, state.trace), spec),
        "audit_iteration": lambda: audit_iteration(dataclasses.replace(
            state, trace=(record, *state.trace[1:]))),
    }


@pytest.mark.parametrize("short", ("no_stops", "one_short"))
def test_a_time_with_the_wrong_stop_count_is_refused(short):
    spec = gen_game(2, 3, 2, seed=4)
    cand, state = run(spec)
    leaves = len(spec.tree.leaves)
    nodes = cand.T_star[0].node_by_leaf
    bad = StoppingTime(spec.tree, () if short == "no_stops" else nodes[1:])
    want = (f"stopping time has {len(bad.node_by_leaf)} stops for "
            f"{leaves} leaves")
    for name, call in _short_time_calls(spec, cand, state, bad).items():
        with pytest.raises(TreeError) as err:
            call()
        assert str(err.value) == want, name
