"""``tools/critical_path.py``: the digest's timings in one solve."""

import importlib.util
import os
import subprocess
import sys
import threading
import types

import pytest

from dynkin import GameSpec, ScenarioTree, cli, demo_constant, save_game

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "critical_path.py")


def _tool():
    spec = importlib.util.spec_from_file_location("critical_path", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _chain_game(path, n=1500, players=3, x0=0.0):
    """A chain of ``n`` nodes, above the fork threshold; player 0's X at
    the root is ``x0``, which breaks the order above 0.5."""
    assert n * players >= cli._FORK_MIN_VALUES
    tree = ScenarioTree([None, *range(n - 1)], [1.0] * n)

    def procs(value):
        return ((value,) * n,) * players

    x = ((x0, *(0.0,) * (n - 1)), *procs(0.0)[1:])
    save_game(GameSpec(tree, x, procs(0.5), procs(1.0)), path)
    return path


def _fields(game):
    """The tool's output lines as {name: value}, after a clean exit."""
    done = subprocess.run([sys.executable, TOOL, game], capture_output=True,
                          encoding="utf-8", timeout=120)
    assert done.returncode == 0, done.stderr
    assert "converged: True" in done.stderr  # the solve's own output
    return dict(line.split(" ", 1) for line in done.stdout.splitlines())


def _seconds(fields, *names):
    return [float(fields[name]) for name in names]


def test_a_small_game_digests_inline(tmp_path):
    game = str(tmp_path / "demo.json")
    save_game(demo_constant(2, 2, 2), game)
    fields = _fields(game)
    assert list(fields) == [
        "parse_end_s", "digest", "inline_digest_s", "total_s", "exit"]
    assert fields["digest"] == "inline"
    assert fields["exit"] == "0"
    parse_end, digest, total = _seconds(
        fields, "parse_end_s", "inline_digest_s", "total_s")
    assert 0 < parse_end < total and 0 < digest < total


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_large_game_forks_the_digest(tmp_path):
    game = _chain_game(str(tmp_path / "chain.json"))
    fields = _fields(game)
    assert list(fields) == [
        "parse_end_s", "digest", "fork_s", "digest_read_s",
        "digest_arrived_s", "digest_wait_s", "total_s", "exit"]
    assert fields["digest"] == "child"
    assert fields["exit"] == "0"
    parse_end, fork, read, arrived, wait, total = _seconds(
        fields, "parse_end_s", "fork_s", "digest_read_s", "digest_arrived_s",
        "digest_wait_s", "total_s")
    assert 0 < parse_end <= fork < read <= total
    assert fork < arrived <= total and 0 <= wait <= total - read


def _failing_thread(*args, **kwargs):
    raise RuntimeError("can't start new thread")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("x0, code", [(0.0, 0), (2.0, 2), (0.0, None)],
                         ids=["solved", "invalid", "no_watcher"])
def test_no_child_or_watcher_outlives_the_run(tmp_path, monkeypatch, x0,
                                              code):
    tool = _tool()
    if code is None:
        monkeypatch.setattr(tool, "threading",
                            types.SimpleNamespace(Thread=_failing_thread))
    game = _chain_game(str(tmp_path / "chain.json"), x0=x0)
    threads = threading.active_count()
    if code is None:
        with pytest.raises(RuntimeError):
            tool.timed_solve(game)
    else:
        got, times = tool.timed_solve(game)
        assert got == code and times["digest"] == "child"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads
