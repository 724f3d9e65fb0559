"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance
and prints a single PASS/FAIL line (visible with ``pytest -s``).
"""

import json
import random
import time

import pytest

from dynkin import (
    best_response,
    brute_force_best_response,
    canonicalize,
    default_round_bound,
    demo_constant,
    enumerate_stopping_times,
    gen_game,
    horizon_stop,
    payoff,
    residual_yq,
    run,
    save_game,
    save_profile,
    snell_envelope,
    verify_nash,
    verify_streamline,
)
from dynkin.cli import main
from dynkin.solver import audit_iteration
from helpers import (
    audit_deviation_bound,
    chain_tree,
    depth_stop,
    expect_at,
    game_document,
    one_step_holds,
    random_process,
    random_stop,
    random_tree,
    triple_game,
)


def _report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def sweep():
    """200 seeded games, both generator modes, 2-5 players, binary
    depth 3-6, solved and certified once for criteria 2 and 4."""
    results = []
    start = time.perf_counter()
    for k in range(200):
        mode = ("strict", "touching")[k % 2]
        players = 2 + (k // 2) % 4
        depth = 3 + (k // 8) % 4
        spec = gen_game(players, depth, 2, seed=1000 + k, mode=mode)
        cand, state = run(spec)
        nash = verify_nash(spec, cand.T_star, tol=1e-9)
        streamline = verify_streamline(spec, cand, tol=1e-9)
        residuals = residual_yq(spec, cand)
        results.append(
            (k, spec, cand, state, nash, streamline, residuals)
        )
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_constant_game_grid():
    failures = []
    start = time.perf_counter()
    for players in (2, 3, 4, 5):
        for depth in (1, 2, 3, 4, 5):
            for branching in (1, 2, 3):
                tag = (players, depth, branching)
                spec = demo_constant(players, depth, branching)
                cand, _ = run(spec)
                if not (cand.converged and cand.rounds_used == 1):
                    failures.append((tag, "rounds", cand.rounds_used))
                    continue
                for i in range(players):
                    j = payoff(spec, i, cand.T_star)
                    if abs(j - 1.0) > 1e-12:
                        failures.append((tag, "payoff", i, j))
                for t0 in range(depth + 1):
                    prof = (depth_stop(spec.tree, t0),) * players
                    cert = verify_nash(spec, prof, tol=1e-9)
                    if not cert.is_nash:
                        failures.append((tag, "nash", t0))
                    worst = max(abs(p.gap) for p in cert.players)
                    if worst > 1e-12:
                        failures.append((tag, "gap", t0, worst))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(("runtime", elapsed))
    _report(1, "constant game grid", failures)


def test_criterion_2_seeded_sweep(sweep):
    results, elapsed = sweep
    failures = []
    for k, spec, cand, state, nash, streamline, residuals in results:
        if not cand.converged or cand.rounds_used > default_round_bound(spec):
            failures.append((k, "convergence", cand.rounds_used))
            continue
        if not nash.is_nash:
            failures.append((k, "nash", nash.max_gap))
        if not streamline.passed:
            failures.append(
                (k, "streamline",
                 [(c.player, c.martingale_ok, c.supermartingale_ok,
                   c.dominance_ok, c.hit_equality_ok, c.boundary_ok,
                   c.residual_ok)
                  for c in streamline.players if not c.passed])
            )
        if any(abs(r) > 1e-12 for r in residuals):
            failures.append((k, "residual", residuals))
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report(2, "seeded sweep certification", failures)


def test_criterion_3_oracle_equivalence():
    failures = []
    rng = random.Random(424242)
    for g in range(50):
        players = 2 + g % 2
        depth = 1 + g % 4
        spec = gen_game(players, depth, 2, seed=3000 + g,
                        mode=("strict", "touching")[g % 2])
        for rep in range(10):
            player = rng.randrange(players)
            others = tuple(
                random_stop(rng, spec.tree) for _ in range(players - 1)
            )
            v_fast, t_fast = best_response(spec, player, others)
            v_brute, t_brute = brute_force_best_response(spec, player, others)
            if abs(v_fast - v_brute) > 1e-12:
                failures.append((g, rep, "value", v_fast, v_brute))
            if t_fast != t_brute:
                failures.append(
                    (g, rep, "argmax",
                     sorted(t_fast.stop_set), sorted(t_brute.stop_set))
                )
    _report(3, "oracle equivalence", failures)


def test_criterion_4_iteration_audit(sweep):
    results, _ = sweep
    failures = []
    for k, spec, cand, state, nash, streamline, residuals in results:
        violations = audit_iteration(state, tol=1e-9)
        if violations:
            failures.append((k, violations[:2]))
    _report(4, "iteration audit", failures)


def test_criterion_5_envelope_properties():
    failures = []
    rng = random.Random(515151)
    for case in range(100):
        tree = random_tree(rng, depth=rng.randint(1, 3))
        u = random_process(rng, tree)
        res = snell_envelope(tree, u)
        for v in range(tree.n_nodes):
            if res.envelope[v] < u[v]:
                failures.append((case, "dominance", v))
                break
        if not one_step_holds(
            tree, res.envelope, horizon_stop(tree), martingale=False,
            tol=1e-9,
        ):
            failures.append((case, "supermartingale"))
        if not one_step_holds(
            tree, res.envelope, res.first_hit, martingale=True, tol=1e-9,
        ):
            failures.append((case, "stopped martingale"))
        best = max(
            expect_at(tree, u, tau)
            for tau in enumerate_stopping_times(tree)
        )
        if abs(res.root_value - best) > 1e-12:
            failures.append((case, "supremum", res.root_value, best))
    _report(5, "envelope properties", failures)


def test_criterion_6_deviation_bounds():
    failures = []
    for g in range(20):
        players = 2 + g % 3
        spec = gen_game(players, 3, 2, seed=6000 + g,
                        mode=("strict", "touching")[g % 2])
        cand, state = run(spec)
        if not cand.converged:
            failures.append((g, "convergence"))
            continue
        violations = audit_deviation_bound(spec, state, tol=1e-9)
        if violations:
            failures.append((g, violations[:2]))
    _report(6, "iteration deviation bounds", failures)


def test_criterion_7_negative_controls(tmp_path, capsys):
    failures = []

    base = game_document(demo_constant(2, 2, 2))

    bad_sum = json.loads(json.dumps(base))
    bad_sum["nodes"][2]["p"] = 0.4
    p1 = tmp_path / "bad_sum.json"
    p1.write_text(json.dumps(bad_sum))
    code = main(["validate", str(p1)])
    err = capsys.readouterr().err
    if code != 2 or "node 0" not in err:
        failures.append(("prob sum", code, err.strip()))

    uneven = json.loads(json.dumps(base))
    # prune one depth-2 pair so node 2 becomes a shallow leaf
    uneven["nodes"] = [n for n in uneven["nodes"] if n["id"] not in (5, 6)]
    for key in ("X", "Q", "Y"):
        uneven["processes"][key] = [
            arr[:5] for arr in uneven["processes"][key]
        ]
    p2 = tmp_path / "uneven.json"
    p2.write_text(json.dumps(uneven))
    code = main(["validate", str(p2)])
    err = capsys.readouterr().err
    if code != 2 or "leaf" not in err:
        failures.append(("uneven horizon", code, err.strip()))

    bad_order = json.loads(json.dumps(base))
    bad_order["processes"]["X"][1][3] = 7.0  # above Q at node 3
    p3 = tmp_path / "bad_order.json"
    p3.write_text(json.dumps(bad_order))
    code = main(["validate", str(p3)])
    out = capsys.readouterr().out
    if code != 2 or "player 1" not in out or "node 3" not in out:
        failures.append(("order violation", code, out.strip()))

    spec = triple_game(chain_tree(2), x=(0.5,) * 3, q=(0.6,) * 3,
                       y=(1.0,) * 3)
    game_path = tmp_path / "premature.json"
    save_game(spec, str(game_path))
    prof_path = tmp_path / "profile.json"
    save_profile(
        [canonicalize([0], spec.tree), horizon_stop(spec.tree)],
        str(prof_path),
    )
    code = main(["verify", str(game_path), "--profile", str(prof_path)])
    out = capsys.readouterr().out
    if code != 4 or "not an equilibrium" not in out:
        failures.append(("non-equilibrium profile", code, out.strip()))

    _report(7, "negative controls", failures)
