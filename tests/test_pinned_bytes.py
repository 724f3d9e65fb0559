"""Report and trace bytes pinned across code versions.

Each entry names a seeded ``gen_game`` game and the sha256 digests of
its canonical run report (less ``generated_at``) and of its
iteration trace CSV.  The table was recorded before the tree passes
were merged, so a refactor that changes any byte of any report or
trace fails here.  Only a change that deliberately alters the numbers
(and documents why) may re-record it.
"""

import hashlib
import random

import pytest

from dynkin import build_report, gen_game, solve_and_certify
from dynkin.gamefile import canonical_bytes
from dynkin.report import write_trace
from helpers import depth_first_leaves, relabeled_game

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
