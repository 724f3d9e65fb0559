"""``dynkin solve --report`` on a large game computes the input digest in
a forked child while it solves.  The outputs are those of the inline
digest, no child outlives the solve, and the digest is computed inline
whenever the child cannot start or fails."""

import errno
import json
import os
import re
import subprocess
import sys

import pytest

from dynkin import cli, demo_constant, gen_game, load_game, save_game
from dynkin import gamefile
from dynkin import report as report_module
from helpers import game_document
from test_cli_inputs import GAME_MUTATIONS

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")

M = 1.7976931348623157e308  # the largest float


def _overflow_document():
    """Finite payoffs whose expected values sum beyond the float range:
    certification fails (exit 4)."""
    doc = game_document(demo_constant(2, 1, 2))
    doc["nodes"][1]["p"] = 0.5000000000001
    doc["nodes"][2]["p"] = 0.4999999999999999
    doc["processes"] = {k: [[M] * 3] * 2 for k in ("X", "Q", "Y")}
    return doc


def _order_violation_document():
    """X above Q at the root: validation fails (exit 2) after the fork."""
    doc = game_document(gen_game(3, 3, 2, seed=8, mode="touching"))
    doc["processes"]["X"][0][0] = doc["processes"]["Q"][0][0] + 1.0
    return doc


GAMES = {
    "certified": (lambda: game_document(gen_game(3, 5, 2, seed=4,
                                                 mode="touching")), [], 0),
    "not_converged": (lambda: game_document(gen_game(3, 4, 2, seed=2)),
                      ["--max-rounds", "0"], 3),
    "not_certified": (_overflow_document, [], 4),
    "invalid": (_order_violation_document, [], 2),
}


def _write(tmp_path, doc):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _without_timestamp(data: bytes) -> bytes:
    return re.sub(rb'"generated_at": "[^"]*"', b"", data)


def _solve(capfd, argv, report):
    """Exit code, stdout, stderr and report bytes less ``generated_at``
    of one in-process solve; asserts that no child is left."""
    if os.path.exists(report):
        os.remove(report)
    code = cli.main(argv + ["--report", report])
    out, err = capfd.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    data = None
    if os.path.exists(report):
        with open(report, "rb") as fh:
            data = _without_timestamp(fh.read())
    return code, out, err, data


def _inline(monkeypatch, capfd, argv, report):
    monkeypatch.setattr(cli, "_FORK_MIN_VALUES", float("inf"))
    return _solve(capfd, argv, report)


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


@pytest.mark.parametrize("name", sorted(GAMES))
def test_forked_digest_gives_the_inline_outputs(tmp_path, capfd,
                                                monkeypatch, name):
    make, extra, code = GAMES[name]
    argv = ["solve", _write(tmp_path, make()), *extra]
    report = str(tmp_path / "report.json")
    inline = _inline(monkeypatch, capfd, argv, report)
    assert inline[0] == code

    monkeypatch.setattr(cli, "_FORK_MIN_VALUES", 0)
    forks = _count_forks(monkeypatch)

    def no_inline_digest(spec):
        raise AssertionError("the digest was computed in the parent")

    monkeypatch.setattr(report_module, "game_digest", no_inline_digest)
    assert _solve(capfd, argv, report) == inline
    assert len(forks) == 1
    assert (inline[3] is None) == (code == 2)


def test_the_report_is_built_once_with_the_childs_digest(tmp_path, capfd,
                                                         monkeypatch):
    spec = gen_game(3, 4, 2, seed=6, mode="touching")
    path = str(tmp_path / "game.json")
    save_game(spec, path)
    want = report_module.game_digest(spec)
    monkeypatch.setattr(cli, "_FORK_MIN_VALUES", 0)

    def no_inline_digest(spec):
        raise AssertionError("the digest was computed in the parent")

    monkeypatch.setattr(report_module, "game_digest", no_inline_digest)
    calls = []
    build = cli.build_report

    def counting_build_report(*args, **kwargs):
        calls.append(kwargs.get("_digest"))
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_report", counting_build_report)
    code, _, err, data = _solve(capfd, ["solve", path],
                                str(tmp_path / "report.json"))
    assert (code, err) == (0, "")
    assert calls == [want]
    assert f'"input_digest": "{want}"'.encode() in data


def _fork_fails():
    raise OSError(errno.EAGAIN, "fork refused")


def _pipe_fails():
    raise OSError(errno.EMFILE, "no descriptors left")


def _child_raises(doc):
    raise RuntimeError("digest failed in the child")


def _child_writes_too_little(doc):
    return "sha256:"


FAILURES = {
    "fork_raises": (os, "fork", _fork_fails),
    "pipe_raises": (os, "pipe", _pipe_fails),
    "child_raises": (cli, "_document_digest", _child_raises),
    "child_writes_too_little": (cli, "_document_digest",
                                _child_writes_too_little),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_a_failed_child_falls_back_to_the_inline_digest(tmp_path, capfd,
                                                        monkeypatch, name):
    spec = gen_game(3, 4, 2, seed=6, mode="touching")
    path = str(tmp_path / "game.json")
    save_game(spec, path)
    argv = ["solve", path]
    report = str(tmp_path / "report.json")
    inline = _inline(monkeypatch, capfd, argv, report)
    assert inline[0] == 0 and inline[2] == ""

    monkeypatch.setattr(cli, "_FORK_MIN_VALUES", 0)
    owner, attr, replacement = FAILURES[name]
    monkeypatch.setattr(owner, attr, replacement)
    assert _solve(capfd, argv, report) == inline


# The trace is written before the digest is read, the report after.
@pytest.mark.parametrize("unwritable", ["trace", "report"])
def test_an_unwritable_output_leaves_no_child(tmp_path, capfd, monkeypatch,
                                              unwritable):
    path = str(tmp_path / "game.json")
    save_game(gen_game(2, 3, 2, seed=1), path)
    monkeypatch.setattr(cli, "_FORK_MIN_VALUES", 0)
    forks = _count_forks(monkeypatch)
    missing = str(tmp_path / "missing" / "out")
    outputs = {"trace": str(tmp_path / "trace.csv"),
               "report": str(tmp_path / "report.json"), unwritable: missing}
    code, _, err, data = _solve(
        capfd, ["solve", path, "--trace", outputs["trace"]], outputs["report"]
    )
    assert code == 1 and err.startswith("cannot write output")
    assert data is None and len(forks) == 1


def test_command_line_solve_above_the_threshold(tmp_path, capfd, monkeypatch):
    spec = gen_game(3, 10, 2, seed=12, mode="touching")
    assert spec.tree.n_nodes * spec.n_players >= cli._FORK_MIN_VALUES
    path = str(tmp_path / "game.json")
    save_game(spec, path)
    report = str(tmp_path / "report.json")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "dynkin", "solve", path, "--report", report],
        capture_output=True, env=env, timeout=120,
    )
    with open(report, "rb") as fh:
        forked = (proc.returncode, proc.stdout, proc.stderr,
                  _without_timestamp(fh.read()))
    code, out, err, data = _inline(monkeypatch, capfd, ["solve", path], report)
    assert forked == (code, out.encode(), err.encode(), data)


def test_the_child_starts_before_the_spec_is_built(tmp_path, capfd,
                                                   monkeypatch):
    path = str(tmp_path / "game.json")
    save_game(gen_game(2, 3, 2, seed=1), path)
    monkeypatch.setattr(cli, "_FORK_MIN_VALUES", 0)
    forks = _count_forks(monkeypatch)
    build = gamefile.game_from_document
    forks_at_build = []

    def recording_build(*args, **kwargs):
        forks_at_build.append(len(forks))
        return build(*args, **kwargs)

    monkeypatch.setattr(gamefile, "game_from_document", recording_build)
    code, _, err, _ = _solve(capfd, ["solve", path],
                             str(tmp_path / "report.json"))
    assert (code, err, forks_at_build) == (0, "", [1])


@pytest.mark.parametrize("name", sorted(GAME_MUTATIONS))
def test_malformed_documents_on_the_forked_path(tmp_path, capfd, monkeypatch,
                                                name):
    doc = game_document(gen_game(2, 2, 2, seed=5, mode="touching"))
    path = tmp_path / "mutated.json"
    path.write_bytes(GAME_MUTATIONS[name](doc))
    argv = ["solve", str(path)]
    report = str(tmp_path / "report.json")
    inline = _inline(monkeypatch, capfd, argv, report)
    assert inline[0] in (1, 2)
    monkeypatch.setattr(cli, "_FORK_MIN_VALUES", 0)
    assert _solve(capfd, argv, report) == inline


def _large(make_doc):
    """A game document at or above the real fork threshold."""
    doc = make_doc(gen_game(3, 10, 2, seed=12, mode="touching"))
    assert len(doc["nodes"]) * doc["players"] >= cli._FORK_MIN_VALUES
    return doc


def _large_order_violation(spec):
    doc = game_document(spec)
    doc["processes"]["X"][1][0] = doc["processes"]["Q"][1][0] + 1.0
    return doc


def _large_int_payoff(spec):
    """A valid game with one int payoff, which the spec keeps as a float:
    the child must decline it, or the report's digest would differ."""
    doc = game_document(spec)
    doc["processes"]["X"][2][7] = 0
    return doc


@pytest.mark.parametrize("make, code", [
    (_large_order_violation, 2),
    (_large_int_payoff, 0),
], ids=["order_violation", "int_payoff"])
def test_large_invalid_or_declined_documents(tmp_path, capfd, monkeypatch,
                                             make, code):
    path = _write(tmp_path, _large(make))
    report = str(tmp_path / "report.json")
    forks = _count_forks(monkeypatch)
    forked = _solve(capfd, ["solve", path], report)
    assert forked[0] == code and len(forks) == 1
    if code == 0:
        want = report_module.game_digest(load_game(path))
        assert f'"input_digest": "{want}"'.encode() in forked[3]
    assert _inline(monkeypatch, capfd, ["solve", path], report) == forked
