"""``tools/exact_gap.py``: exact payoffs and gaps from the files alone."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from dynkin import GameSpec, demo_constant, enumerate_stopping_times, save_game
from helpers import (
    EXACT_GAP_TOOL,
    exact_gap_tool,
    game_document,
    random_process,
    random_stop,
    random_tree,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs the tool as a script in a fresh interpreter that could import
# ``dynkin``, then prints every ``dynkin`` module it loaded.
GUARD = """
import runpy, sys
sys.argv = [sys.argv[1], *sys.argv[2:]]
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
print("loaded:", sorted(m for m in sys.modules
                        if m == "dynkin" or m.startswith("dynkin.")))
"""


def _demo_files(tmp_path):
    """The 2-player constant demo of depth 2; player 0 stops at the root,
    player 1 waits."""
    game, profile = tmp_path / "game.json", tmp_path / "profile.json"
    save_game(demo_constant(2, 2, 2), str(game))
    profile.write_text("[[0], []]\n")
    return game, profile


def test_stopping_first_against_a_waiting_player_costs_a_half(tmp_path):
    # X = 1/2, Q = Y = 1: player 0 gets 1/2 and would get 1 by waiting
    # with player 1 to the horizon; player 1 gets Y = 1, as much as any
    # stop pays.
    game, profile = _demo_files(tmp_path)
    tool = exact_gap_tool()
    assert tool.main([str(game), str(profile)]) == 0
    with open(game) as g, open(profile) as p:
        gaps = tool.exact_gaps(json.load(g), tool.stop_sets(json.load(p)))
    assert gaps == [(Fraction(1, 2), Fraction(1), Fraction(1, 2)),
                    (Fraction(1), Fraction(1), Fraction(0))]


def test_the_tool_loads_no_dynkin_module(tmp_path):
    game, profile = _demo_files(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", GUARD, EXACT_GAP_TOOL, str(game),
         str(profile)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert out == ["player\tpayoff\tbest_response\tgap",
                   "0\t0.5\t1.0\t0.5", "1\t1.0\t1.0\t0.0", "loaded: []"]


def test_the_best_response_is_the_best_exact_payoff():
    # Irregular branch weights, whose sibling probabilities sum to 1 only
    # within rounding, and unordered payoffs (Q above Y at some nodes):
    # the best response must still be the largest exact payoff over
    # every stopping time, so no gap is negative.
    tool = exact_gap_tool()
    rng = random.Random(2718)
    for case in range(12):
        tree = random_tree(rng, depth=rng.randint(1, 3))
        players = rng.randint(2, 3)
        spec = GameSpec(tree, *([random_process(rng, tree)
                                 for _ in range(players)] for _ in "XQY"))
        doc = json.loads(json.dumps(game_document(spec)))
        profile = [sorted(random_stop(rng, tree).stop_set)
                   for _ in range(players)]
        i = rng.randrange(players)
        exact = tool.exact_gaps(doc, profile)
        best = max(
            tool.exact_gaps(doc, [*profile[:i], sorted(tau.stop_set),
                                  *profile[i + 1:]])[i][0]
            for tau in enumerate_stopping_times(tree))
        assert exact[i][1] == best, case
        assert all(gap >= 0 for _, _, gap in exact), case
