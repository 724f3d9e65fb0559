"""``tools/same_outputs.py``: equal runs print equal lines, and a changed
payoff changes the lines of its game only."""

from dynkin import GameSpec, demo_constant, gen_game
from helpers import same_outputs_tool


def _shifted(spec: GameSpec, player: int, by: float) -> GameSpec:
    """``spec`` with every X, Q and Y of one player raised by ``by``,
    which keeps the order and moves that player's payoff by ``by``."""
    def shift(procs):
        return [[v + by for v in p] if i == player else p
                for i, p in enumerate(procs)]
    return GameSpec(spec.tree, shift(spec.X), shift(spec.Q), shift(spec.Y))


def _by_case(lines):
    out = {}
    for line in lines:
        case, command, code, digest = line.split("\t")
        out.setdefault(case, {})[command] = (int(code), digest)
    return out


def test_equal_runs_print_equal_lines_and_a_payoff_change_shows():
    tool = same_outputs_tool()
    game = gen_game(3, 2, 3, 4, "touching")
    cases = [tool.spec_case("demo", demo_constant(2, 2, 2)),
             tool.spec_case("game", game)]
    first = list(tool.lines(cases))
    assert first == list(tool.lines(cases))
    assert len(first) == 2 * 9
    assert all(len(line.split("\t")) == 4 for line in first)

    cases[1] = tool.spec_case("game", _shifted(game, 0, 0.25))
    before, after = _by_case(first), _by_case(tool.lines(cases))
    assert after["demo"] == before["demo"]
    changed = {c for c in before["game"]
               if after["game"][c] != before["game"][c]}
    # validate prints no payoff, and player 1's best response does not
    # read player 0's payoffs; every other run prints one of them
    assert changed == {c for c in before["game"] if not (
        c.startswith("validate") or c == "oracle --player 1")}
