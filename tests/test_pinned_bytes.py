"""Report, trace and oracle output bytes pinned across code versions.

Each entry names a seeded ``gen_game`` game and the sha256 digests of
its canonical run report (less ``generated_at``) and of its
iteration trace CSV.  The table was recorded before the tree passes
were merged, so a refactor that changes any byte of any report or
trace fails here.  Only a change that deliberately alters the numbers
(and documents why) may re-record it.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from dynkin import (
    GameSpec,
    audit_iteration,
    build_report,
    demo_constant,
    gen_game,
    horizon_stop,
    save_game,
    save_profile,
    solve_and_certify,
    validate_assumptions,
)
from dynkin.cli import main
from dynkin.gamefile import canonical_bytes
from dynkin.report import write_trace
from helpers import depth_first_leaves, random_stop, relabeled_game

# (players, depth, branching, seed, mode) -> (report sha256, trace sha256)
PINNED = {
    (2, 3, 2, 1, "strict"): (
        "5700d2174cd6435ecdf8680220d43aeef2ca9c7924b87a88772044d4246cd655",
        "6a2dad1bb17fa3477bc69198756a3bf7b38a55416ae90de77ae3243f65944ed8",
    ),
    (3, 3, 2, 2, "touching"): (
        "f0f2d732177fe4e6a7011b6cb426c547e9c72e6ac5ae2c5c675ad9ebbac347fe",
        "4a6e39c7e5d98c977e4c07eb1e731c3d5db703b5018974b41dd79963bf2d5d04",
    ),
    (4, 2, 3, 3, "strict"): (
        "7ea76c3181d5d083b2417222dee46eceef684a8b9d52ae15b0e920f5fe8eed62",
        "e83f70e82ae99f90574ad4747ee63ba3ef74c3329b2bcd2c4f5c81a38e78dfc3",
    ),
    (2, 4, 2, 4, "touching"): (
        "9bf9da4b776bccf0781c13ff1a6ea4800b834c4850691b66bbfddc4c84462818",
        "3e7cbf73eca15f53f1d1002a96961ce516650f6d25a233dd0e0db457fa56b1c3",
    ),
    (3, 2, 3, 5, "strict"): (
        "8ac0c23272f16d06cc282e31d4ac04565bfa109c91d20b866d656459b3cc6c0a",
        "4553f039c6c8c567667746c12976c85ba96ae5abef7f786c8348d581196b2331",
    ),
    (4, 3, 2, 6, "touching"): (
        "52c10afa91cded3f0c709c6385895d4609d180b51512c880ab2f6a5f034671ba",
        "a0b865c20f3cdcf05ed07060db5e6fc84fc160b50dfd54711ad4bdd8a45038ff",
    ),
    (2, 2, 4, 7, "strict"): (
        "be97140010291e72a51faeddcef347db9fe73b0f114b499eb3d3f31265288de8",
        "4c4c6b9d0a4cba2199b1233f9f6ff3c2cc18cc789529a342053273597b8ea5ae",
    ),
    (3, 4, 2, 8, "touching"): (
        "6e9fccd8d75ce8b39e3b943438e164adfa8be0cc088b2a79b7a17b3ab92a5f35",
        "59b917ce0e946fb794d4d8b8df10050f1283e00192502fcf1f23e5fd9384a6e9",
    ),
    # a chain of depth 1,200 (branching 1)
    (3, 1200, 1, 9, "strict"): (
        "75eb226b25fad5a55667b3394733176b27a09aa1ced73722bd385854fed8832f",
        "93c399230e2fe7b686e2932968e9c9cd9712d56de000c97f91f92e8ae33e6ec5",
    ),
}


# The same kind of key, but the game's tree is renumbered by
# ``relabeled_game`` with ``random.Random(seed)``, so its leaf ids are
# not in depth-first order.
PINNED_RELABELED = {
    (3, 3, 2, 15, "touching"): (
        "dd56909085c4fef1686b587511abb82eba7d5a4350db4ba29a65aabedded3bc4",
        "21fad6483142cebe003b167318ed3e8cd2dfef630582a187be10bede238cdf2e",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(spec, tmp_path):
    result = solve_and_certify(spec)
    report = build_report(spec, result)
    del report["generated_at"]
    trace = tmp_path / "trace.csv"
    write_trace(result.state, spec.tree, str(trace))
    return _sha256(canonical_bytes(report)), _sha256(trace.read_bytes())


@pytest.mark.parametrize("game", sorted(PINNED), ids=str)
def test_report_and_trace_bytes_are_pinned(game, tmp_path):
    players, depth, branching, seed, mode = game
    spec = gen_game(players, depth, branching, seed=seed, mode=mode)
    assert _digests(spec, tmp_path) == PINNED[game]


@pytest.mark.parametrize("game", sorted(PINNED_RELABELED), ids=str)
def test_bytes_are_pinned_on_a_relabeled_tree(game, tmp_path):
    players, depth, branching, seed, mode = game
    spec = relabeled_game(
        gen_game(players, depth, branching, seed=seed, mode=mode),
        random.Random(seed),
    )
    assert spec.tree.leaves != depth_first_leaves(spec.tree)
    assert _digests(spec, tmp_path) == PINNED_RELABELED[game]


# sha256 of ``dynkin oracle`` stdout for players 0 and 1 against a
# profile drawn by ``random_stop`` with ``random.Random(seed)``, which
# stops the rivals at mixed depths; recorded before the oracle scored
# raw stop tuples.  The key is a ``gen_game`` key, ``("relabeled", ...)``
# for one moved by ``relabeled_game``, or ``("demo", players, depth,
# branching, seed)``.
PINNED_ORACLE = {
    (2, 3, 2, 1, "strict"): (
        "8f3744f2b9e40bd3297573d349a41b9b313a8248a04b2c66640145b00a9b1212",
        "9684a97d1239ac191bd140e1c93769dd7e3f7654b799235a5a9facdce12d7664",
    ),
    (3, 2, 3, 5, "strict"): (
        "62c9f80940c95b71424a3ce2840ff706f9efe10c724d94d4697774e1889174bf",
        "dbc2445b8ee0ff12ac50b758b3beae7defed1660a53d4ddd6884af180a215fa2",
    ),
    (3, 3, 2, 2, "touching"): (
        "2f15df56137713976540690f71a4c75c895eba9f6c7ad59b833dda58f7df0954",
        "f913e4834f6248d58652d79f13c103c471b7a0b7fc0abfe151b24e12decd28b7",
    ),
    (2, 4, 2, 4, "touching"): (
        "941ff6646ee8b6b6279b1cfe51055348e55060451a3535866d0dcdc0c2e441b6",
        "066dfb83ad0f8c529489ccc652cf6bcf44a907b38655191a6926c8e8698ad6bb",
    ),
    (4, 2, 2, 6, "touching"): (
        "f2da8cdb4136ca27e09b161022e200520eac5aa9624662501b95e625f232fe65",
        "a17d8be0c52d1bed8beb4716b43673d832bdeb33a61c88ea7ca05ea3374d6d1e",
    ),
    ("relabeled", 3, 3, 2, 15, "touching"): (
        "de1de8bc665203910a6cdc19238b42d7a42bdec06a770bf5cae8478332712302",
        "bcbe2f04c6839674b35121c652978f63c0f23a29934938ce4666a56f7a3a07c7",
    ),
    ("demo", 2, 2, 2, 7): (
        "750d7e031155db4b9e2536d1d49b76249e82b42b2227f872a05c1b93f296d376",
        "750d7e031155db4b9e2536d1d49b76249e82b42b2227f872a05c1b93f296d376",
    ),
}


def _oracle_game(key):
    if key[0] == "demo":
        _, players, depth, branching, seed = key
        return demo_constant(players, depth, branching), seed
    if key[0] == "relabeled":
        players, depth, branching, seed, mode = key[1:]
        spec = gen_game(players, depth, branching, seed=seed, mode=mode)
        return relabeled_game(spec, random.Random(seed)), seed
    players, depth, branching, seed, mode = key
    return gen_game(players, depth, branching, seed=seed, mode=mode), seed


@pytest.mark.parametrize("key", sorted(PINNED_ORACLE, key=str), ids=str)
def test_oracle_output_is_pinned(key, tmp_path, capsys):
    spec, seed = _oracle_game(key)
    rng = random.Random(seed)
    game = tmp_path / "game.json"
    profile = tmp_path / "profile.json"
    save_game(spec, str(game))
    save_profile(
        [random_stop(rng, spec.tree) for _ in range(spec.n_players)],
        str(profile),
    )
    digests = []
    for player in (0, 1):
        code = main(["oracle", str(game), "--player", str(player),
                     "--profile", str(profile)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        digests.append(_sha256(out.encode("utf-8")))
    assert tuple(digests) == PINNED_ORACLE[key]


# sha256 of the report (less ``generated_at``) of a solved game whose
# run carries order, touching-rule and audit violations, set with
# ``dataclasses.replace``: the order and touching-rule entries come from
# the same game with player 0's X and Y swapped, the audit entries from
# the trace with its second record's stopping time put back at the
# horizon.
PINNED_VIOLATIONS = {
    (3, 3, 2, 2, "touching"): (
        "f310b326082955c3cbc8946fbd9d47c048508f0bff6fe61e8e01dc6ede3d4245"
    ),
}


@pytest.mark.parametrize("game", sorted(PINNED_VIOLATIONS), ids=str)
def test_report_with_violations_is_pinned(game):
    players, depth, branching, seed, mode = game
    spec = gen_game(players, depth, branching, seed=seed, mode=mode)
    result = solve_and_certify(spec)
    swapped = GameSpec(
        spec.tree,
        (spec.Y[0],) + spec.X[1:],
        spec.Q,
        (spec.X[0],) + spec.Y[1:],
    )
    assumptions = validate_assumptions(swapped)
    trace = list(result.state.trace)
    trace[1] = replace(trace[1], tau=horizon_stop(spec.tree))
    state = replace(result.state, trace=tuple(trace))
    audit = tuple(audit_iteration(state))
    assert assumptions.a3_violations and assumptions.a4_violations and audit
    run = replace(result, assumptions=assumptions, audit_violations=audit)
    report = build_report(spec, run)
    del report["generated_at"]
    assert report["assumptions"]["a4_violations"]
    assert _sha256(canonical_bytes(report)) == PINNED_VIOLATIONS[game]
