"""Malformed inputs and unwritable outputs end with a documented exit
code and a one-line message, never a traceback."""

import copy
import json
import math

import pytest

from dynkin import gen_game, save_game
from dynkin.cli import main
from helpers import BEYOND, game_document

DEEP = b"[" * 100_000 + b"]" * 100_000


def _dump(doc) -> bytes:
    return json.dumps(doc).encode("utf-8")


def _with(doc, keys, value):
    doc = copy.deepcopy(doc)
    target = doc
    for k in keys[:-1]:
        target = target[k]
    target[keys[-1]] = value
    return doc


GAME_MUTATIONS = {
    "truncated": lambda doc: _dump(doc)[:-7],
    "empty": lambda doc: b"",
    "nan_token": lambda doc: _dump(
        _with(doc, ("processes", "X", 0, 0), math.nan)),
    "infinity_token": lambda doc: _dump(
        _with(doc, ("processes", "Y", 1, 2), math.inf)),
    "string_horizon": lambda doc: _dump(_with(doc, ("horizon",), "2")),
    "object_nodes": lambda doc: _dump(_with(doc, ("nodes",), {})),
    "string_value": lambda doc: _dump(
        _with(doc, ("processes", "Q", 1, 3), "0.5")),
    "float_parent": lambda doc: _dump(_with(doc, ("nodes", 1, "parent"), 0.5)),
    "negative_parent": lambda doc: _dump(
        _with(doc, ("nodes", 2, "parent"), -1)),
    "bool_id": lambda doc: _dump(_with(doc, ("nodes", 0, "id"), False)),
    "array_top": lambda doc: b"[]",
    "non_utf8": lambda doc: b"\xff\xfe" + _dump(doc),
    "deep_nesting": lambda doc: DEEP,
    "huge_int": lambda doc: _dump(doc).replace(
        b'"horizon": 2', b'"horizon": ' + b"9" * 5000),
}

PROFILE_MUTATIONS = {
    "truncated": b"[[1, 2], [0",
    "nan_token": b"[[NaN], [0]]",
    "string_node": b'[["1"], [0]]',
    "bool_node": b"[[true], [0]]",
    "one_entry": b"[[0]]",
    "unknown_node": b"[[99], [0]]",
    "object_top": b'{"0": [0]}',
    "non_utf8": b"\xff[[0], [0]]",
    "deep_nesting": DEEP,
    "huge_int": b"[[" + b"9" * 5000 + b"], [0]]",
}


@pytest.fixture
def good(tmp_path):
    game = tmp_path / "game.json"
    save_game(gen_game(2, 2, 2, seed=5, mode="touching"), str(game))
    profile = tmp_path / "profile.json"
    profile.write_text("[[1, 2], [0]]")
    return str(game), str(profile)


def _run(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in range(6), argv
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize("name", sorted(GAME_MUTATIONS))
def test_mutated_game_documents(tmp_path, capsys, good, name):
    _, profile = good
    doc = game_document(gen_game(2, 2, 2, seed=5, mode="touching"))
    path = tmp_path / "mutated.json"
    path.write_bytes(GAME_MUTATIONS[name](doc))
    p = str(path)
    for argv in (
        ["validate", p],
        ["solve", p],
        ["verify", p, "--profile", profile],
        ["oracle", p, "--player", "0", "--profile", profile],
    ):
        code, err = _run(capsys, argv)
        assert code in (1, 2), (argv, err)


@pytest.mark.parametrize("name", sorted(PROFILE_MUTATIONS))
def test_mutated_profile_documents(tmp_path, capsys, good, name):
    game, _ = good
    path = tmp_path / "mutated.json"
    path.write_bytes(PROFILE_MUTATIONS[name])
    p = str(path)
    for argv in (
        ["verify", game, "--profile", p],
        ["oracle", game, "--player", "0", "--profile", p],
    ):
        code, err = _run(capsys, argv)
        assert code in (1, 2), (argv, err)


@pytest.mark.parametrize("keys, value, shown", [
    (("X", 0, 1), math.nan, "nan"),
    (("Y", 1, 2), math.inf, "inf"),
    (("Q", 0, 3), -math.inf, "-inf"),
])
def test_nonfinite_payoffs_fail_validation(tmp_path, capsys, keys, value,
                                           shown):
    doc = game_document(gen_game(2, 2, 2, seed=5, mode="touching"))
    path = tmp_path / "game.json"
    path.write_bytes(_dump(_with(doc, ("processes",) + keys, value)))
    name, player, node = keys
    for command in ("validate", "solve"):
        code, err = _run(capsys, [command, str(path)])
        assert code == 2
        assert err == (
            f"invalid input: {path}: processes.{name}[{player}]: "
            f"node {node}: process value {shown} not finite\n"
        )


# The loader reports a mistyped payoff (exit 1) before any non-finite
# one (exit 2), scanning X, then Q, then Y, each before the next
# process's shape is checked.
@pytest.mark.parametrize("edits, want_code, want_err", [
    ({("X", 0, 0): math.nan, ("Q", 1, 3): "0.5"}, 1,
     "parse error: {path}: processes.Q[1][3] must be a number\n"),
    ({("Y", 1, 2): True}, 1,
     "parse error: {path}: processes.Y[1][2] must be a number\n"),
    ({("X", 1, 2): "0.5", ("Q", 0): [0.5]}, 1,
     "parse error: {path}: processes.X[1][2] must be a number\n"),
    ({("X", 0, 0): math.nan}, 2,
     "invalid input: {path}: processes.X[0]: node 0: process value nan "
     "not finite\n"),
])
def test_payoff_errors_keep_their_order(tmp_path, capsys, edits, want_code,
                                        want_err):
    doc = game_document(gen_game(2, 2, 2, seed=5, mode="touching"))
    for keys, value in edits.items():
        doc = _with(doc, ("processes",) + keys, value)
    path = tmp_path / "game.json"
    path.write_bytes(_dump(doc))
    for command in ("validate", "solve"):
        code, err = _run(capsys, [command, str(path)])
        assert (code, err) == (want_code, want_err.format(path=path))


# An integer beyond float range rounds to infinity, so it fails like
# the decimal literal 1e400, which JSON reads as infinity: exit 2, with
# the same message naming the field.
@pytest.mark.parametrize("keys, big", [
    (("processes", "X", 0, 0), 10**400),
    (("processes", "Y", 1, 2), -10**400),
    (("nodes", 1, "p"), 10**400),
], ids=["payoff", "negative_payoff", "node_p"])
def test_integers_beyond_float_range_fail_validation(tmp_path, capsys, good,
                                                     keys, big):
    _, profile = good
    doc = game_document(gen_game(2, 2, 2, seed=5, mode="touching"))
    data = _dump(_with(doc, keys, big))
    path = tmp_path / "game.json"
    literal = tmp_path / "literal.json"
    path.write_bytes(data)
    literal.write_bytes(
        data.replace(str(big).encode(), b"-1e400" if big < 0 else b"1e400"))
    for command in (["validate"], ["solve"], ["verify", "--profile", profile],
                    ["oracle", "--player", "0", "--profile", profile]):
        code, err = _run(capsys, [command[0], str(path), *command[1:]])
        want = _run(capsys, [command[0], str(literal), *command[1:]])
        assert (code, err.replace(str(path), "GAME")) == (
            want[0], want[1].replace(str(literal), "GAME"))
        assert code == 2
        assert err.startswith(f"invalid input: {path}: ")
        assert (f"processes.{keys[1]}[{keys[2]}]: node {keys[3]}: "
                if keys[0] == "processes" else f"node {keys[1]}: ") in err


M = 1.7976931348623157e308  # the largest float


def _uniform_doc(parents, probs, x, q, y):
    """Two players with the same constant X, Q and Y at every node."""
    n = len(parents)
    depth = [0] * n
    for v in range(1, n):
        depth[v] = depth[parents[v]] + 1
    return {
        "horizon": depth[-1],
        "players": 2,
        "nodes": [{"id": v, "parent": parents[v], "p": probs[v]}
                  for v in range(n)],
        "processes": {k: [[val] * n] * 2
                      for k, val in (("X", x), ("Q", q), ("Y", y))},
    }


# Every input value is finite, but an expected payoff passes the float
# range: it is summed to infinity (the gap inf - inf is undefined, so
# certification fails).  On the second game the exact sums stay in
# range and the game solves.
@pytest.mark.parametrize("doc, solve_code", [
    (_uniform_doc(*BEYOND, M, M, M), 4),
    (_uniform_doc([None, 0, 0, 1, 1, 2, 2],
                  [1.0, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9], M / 2, M, M), 0),
], ids=["sum_beyond_range", "sum_near_range"])
def test_payoffs_near_float_range_end_without_a_traceback(tmp_path, capsys,
                                                          doc, solve_code):
    path = tmp_path / "game.json"
    profile = tmp_path / "profile.json"
    report = tmp_path / "report.json"
    path.write_bytes(_dump(doc))
    profile.write_text("[[1, 2], [1, 2]]")
    game = str(path)
    assert _run(capsys, ["validate", game]) == (0, "")
    for argv, want in (
        (["solve", game, "--report", str(report)], solve_code),
        (["verify", game, "--profile", str(profile)], solve_code),
        (["oracle", game, "--player", "0", "--profile", str(profile)], 0),
    ):
        code, err = _run(capsys, argv)
        assert code == want, (argv, err)
        assert "Error" not in err
    doc = json.loads(report.read_text())
    players = doc["equilibrium"]["players"]
    want_payoff = math.inf if solve_code else M
    assert [p["payoff"] for p in players] == [want_payoff] * 2
    gaps = [p["nash_gap"] for p in players]
    assert all(map(math.isnan, gaps)) if solve_code else gaps == [0.0] * 2
    # inf - inf is NaN, and a NaN difference fails the witness checks
    streamline = doc["certificates"]["streamline"]
    assert streamline["passed"] is not bool(solve_code)
    assert [c["martingale_ok"] for c in streamline["players"]] == (
        [not solve_code] * 2)


def test_a_nan_gap_makes_the_max_gap_nan(tmp_path, capsys):
    # Player 0's payoffs stay small, so its gap is 0; player 1's is
    # inf - inf.  max() alone keeps the first gap and skips the NaN.
    doc = _uniform_doc(*BEYOND, M / 2, M, M)
    for key, val in (("X", 0.0), ("Q", 0.5), ("Y", 1.0)):
        doc["processes"][key][0] = [val] * 3
    path = tmp_path / "game.json"
    report = tmp_path / "report.json"
    path.write_bytes(_dump(doc))
    argv = ["solve", str(path), "--report", str(report)]
    assert _run(capsys, argv)[0] == 4
    doc = json.loads(report.read_text())
    gap0, gap1 = (p["nash_gap"] for p in doc["equilibrium"]["players"])
    assert gap0 == 0.0 and math.isnan(gap1)
    nash = doc["certificates"]["nash"]
    assert nash["is_nash"] is False
    assert math.isnan(nash["max_gap"])


def _names_the_output(err: str, out: str) -> None:
    assert err.startswith("cannot write output: ")
    assert err.count("\n") == 1
    assert repr(out) in err
    assert ".tmp-" not in err


@pytest.mark.parametrize("option", ["--report", "--trace"])
def test_unwritable_solve_output(tmp_path, capsys, good, option):
    game, _ = good
    out = str(tmp_path / "missing" / "out")
    code, err = _run(capsys, ["solve", game, option, out])
    assert code == 1
    _names_the_output(err, out)


@pytest.mark.parametrize("argv", [
    ["gen", "OUT", "--players", "2", "--depth", "2", "--branching", "2",
     "--seed", "1"],
    ["demo", "OUT"],
])
def test_unwritable_generated_game(tmp_path, capsys, argv):
    out = str(tmp_path / "missing" / "game.json")
    code, err = _run(capsys, [out if a == "OUT" else a for a in argv])
    assert code == 1
    _names_the_output(err, out)


def test_gen_rejects_a_negative_gap(tmp_path, capsys):
    out = tmp_path / "game.json"
    code, err = _run(capsys, ["gen", str(out), "--players", "2", "--depth",
                              "2", "--branching", "2", "--seed", "1",
                              "--gap", "-5"])
    assert code == 2
    assert "gap" in err
    assert not out.exists()


@pytest.mark.parametrize("option, value, name", [
    ("--gap", "inf", "gap"),
    ("--touch-frac", "nan", "touch_frac"),
    ("--touch-frac", "1.5", "touch_frac"),
])
def test_gen_rejects_an_option_out_of_range(tmp_path, capsys, option, value,
                                            name):
    out = tmp_path / "game.json"
    code, err = _run(capsys, ["gen", str(out), "--players", "2", "--depth",
                              "2", "--branching", "2", "--seed", "1",
                              option, value])
    assert code == 2
    assert name in err and value in err
    assert not out.exists()


# Each tolerance option, with the commands that take it and its default.
TOLERANCES = [
    ("validate", "--strict-tol", "0.0"),
    ("solve", "--strict-tol", "0.0"),
    ("solve", "--tol", "1e-09"),
    ("solve", "--residual-tol", "1e-12"),
    ("verify", "--tol", "1e-09"),
]


def _tolerance_run(capsys, good, command, *extra):
    game, profile = good
    argv = [command, game, *(["--profile", profile] * (command == "verify"))]
    code = main(argv + list(extra))
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command, option, _", TOLERANCES)
def test_tolerances_must_be_finite_and_at_least_zero(capsys, good, command,
                                                     option, _, value):
    # Unchecked, NaN or a negative strict tolerance skipped the touching
    # rule, and an infinite --tol certified any profile.  Written apart,
    # "-inf" reads as an option, which argparse also refuses.
    code, out, err = _tolerance_run(capsys, good, command, f"{option}={value}")
    assert (code, out) == (1, "")
    assert f"argument {option}: must be a finite number of at least 0" in err
    code, out, err = _tolerance_run(capsys, good, command, option, value)
    assert (code, out) == (1, "")
    assert f"argument {option}: " in err


@pytest.mark.parametrize("command, option, default", TOLERANCES)
def test_zero_and_small_tolerances_still_run(capsys, good, command, option,
                                             default):
    want = _tolerance_run(capsys, good, command)
    assert _tolerance_run(capsys, good, command, option, default) == want
    # The good game passes validation and certification at both values,
    # but for player 0's Nash gap of 1.1e-16 against --tol 0; the profile
    # file's is not an equilibrium at any tolerance.
    for value in ("0", "1e-9"):
        code, out, err = _tolerance_run(capsys, good, command, option, value)
        strict = command == "solve" and option == "--tol" and value == "0"
        assert code == (4 if command == "verify" or strict else 0)
        assert out.splitlines()[0] == want[1].splitlines()[0]
