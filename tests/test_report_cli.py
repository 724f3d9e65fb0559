"""Run reports, trace files, and the command-line surface."""

import csv
import json
import os
import random
import stat

import pytest

from dynkin import (
    canonicalize,
    demo_constant,
    gen_game,
    load_game,
    make_candidate,
    residual_yq,
    save_game,
    save_profile,
    solve_and_certify,
    verify_nash,
    verify_streamline,
)
from dynkin.cli import main
from dynkin.report import build_report, trace_table, write_report
from helpers import game_document, reference_canonical_bytes, relabeled_game


def _game_file(tmp_path, spec, name="game.json"):
    path = tmp_path / name
    save_game(spec, str(path))
    return str(path)


def test_report_is_self_contained(tmp_path):
    spec = gen_game(3, 3, 2, seed=321, mode="touching")
    result = solve_and_certify(spec)
    report = build_report(spec, result)

    profile = [
        canonicalize(p["stop_nodes"], spec.tree)
        for p in report["equilibrium"]["players"]
    ]
    nash = verify_nash(spec, profile, tol=report["certificates"]["nash"]["tol"])
    assert nash.is_nash == report["certificates"]["nash"]["is_nash"]
    candidate = make_candidate(profile)
    streamline = verify_streamline(
        spec, candidate, tol=report["certificates"]["streamline"]["tol"]
    )
    assert streamline.passed == report["certificates"]["streamline"]["passed"]
    res = residual_yq(spec, candidate)
    assert list(res) == report["certificates"]["residual_yq"]["values"]


def test_report_determinism_modulo_timestamp(tmp_path):
    spec = gen_game(2, 3, 2, seed=11)
    r1 = build_report(spec, solve_and_certify(spec), timestamp="T1")
    r2 = build_report(spec, solve_and_certify(spec), timestamp="T2")
    r1.pop("generated_at")
    r2.pop("generated_at")
    assert r1 == r2


# Trace file names with NULs and quotes are strings in the report,
# escaped as json escapes them.
@pytest.mark.parametrize("trace_file", [None, "trace.csv", "\x000:0",
                                        'a"\x000:1', "\x001:2"], ids=repr)
def test_written_report_is_the_canonical_encoding(tmp_path, trace_file):
    games = [gen_game(2 + seed % 3, (2, 3, 4)[seed % 3], (3, 2, 2)[seed % 3],
                      seed=900 + seed, mode=("strict", "touching")[seed % 2])
             for seed in range(6)]
    games.append(relabeled_game(games[1], random.Random(1)))
    games.append(gen_game(3, 30, 1, seed=7))
    path = tmp_path / "report.json"
    for spec in games:
        report = build_report(spec, solve_and_certify(spec),
                              trace_file=trace_file, timestamp="t")
        write_report(report, str(path))
        assert path.read_bytes() == reference_canonical_bytes(report)


# Written files get the mode open() would give them under the umask.
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask_022", "umask_077"])
def test_written_files_follow_the_umask(tmp_path, capsys, umask, mode):
    game = tmp_path / "game.json"
    report = tmp_path / "report.json"
    old = os.umask(umask)
    try:
        assert main(["demo", str(game)]) == 0
        assert main(["solve", str(game), "--report", str(report)]) == 0
    finally:
        os.umask(old)
    assert [stat.S_IMODE(p.stat().st_mode) for p in (game, report)] == [
        mode, mode]


def test_a_symlinked_output_stays_a_link(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["demo", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == _demo_bytes(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "demo.json", "link.json", "target.json"]


def test_a_dangling_symlink_creates_its_target(tmp_path, capsys):
    target = tmp_path / "target.json"
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["demo", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == _demo_bytes(tmp_path)


def test_a_symlink_loop_is_not_replaced(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.symlink_to(b)
    b.symlink_to(a)
    assert main(["demo", str(a)]) == 1
    assert "cannot write output" in capsys.readouterr().err
    assert a.is_symlink() and b.is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_a_fifo_output_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "out.json"
    os.mkfifo(fifo)
    # The reader opens first and never blocks, so the writer's open
    # cannot wait for it; the demo game fits in the pipe's buffer.
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(["demo", str(fifo)]) == 0
        data = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert data == _demo_bytes(tmp_path)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def _demo_bytes(tmp_path) -> bytes:
    """The bytes ``dynkin demo`` writes to a plain new file."""
    path = tmp_path / "demo.json"
    save_game(demo_constant(2, 2, 2), str(path))
    return path.read_bytes()


def test_trace_table_layout():
    spec = demo_constant(2, 1, 2)
    result = solve_and_certify(spec)
    header, rows = trace_table(result.state, spec.tree)
    assert header[:3] == ["n", "player", "E_W0"]
    leaves = spec.tree.leaves
    assert header[3:] == (
        [f"theta_{v}" for v in leaves]
        + [f"mu_{v}" for v in leaves]
        + [f"tau_{v}" for v in leaves]
    )
    assert len(rows) == len(result.state.trace)
    assert rows[0][0] == 3 and rows[0][1] == 0


def test_cli_validate_ok(tmp_path, capsys):
    path = _game_file(tmp_path, demo_constant(2, 2, 2))
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_cli_validate_order_violation(tmp_path, capsys):
    doc = game_document(demo_constant(2, 1, 2))
    doc["processes"]["X"][0][0] = 2.0  # above Q at the root
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr().out
    assert "player 0" in out and "node 0" in out


def test_cli_validate_structural_error(tmp_path, capsys):
    doc = game_document(demo_constant(2, 1, 2))
    doc["nodes"][2]["p"] = 0.4
    path = tmp_path / "badsum.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "node 0" in err


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 1
    assert main(["solve", str(path)]) == 1


def test_cli_usage_error_exit_code(tmp_path, capsys):
    assert main(["solve"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["solve", "x", "--no-such-flag"]) == 1


def test_cli_solve_writes_report_and_trace(tmp_path, capsys):
    path = _game_file(tmp_path, gen_game(2, 3, 2, seed=77, mode="touching"))
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.csv"
    code = main([
        "solve", path,
        "--report", str(report_path),
        "--trace", str(trace_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["format"] == "dynkin_run_report_v1"
    assert report["solver"]["converged"] is True
    assert report["certificates"]["nash"]["is_nash"] is True
    assert report["certificates"]["streamline"]["passed"] is True
    assert report["certificates"]["residual_yq"]["passed"] is True
    assert report["solver"]["audit_violations"] == []
    assert report["trace_file"] == str(trace_path)
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "n"
    assert len(rows) - 1 == report["solver"]["steps"]


def test_cli_solve_report_bytes_deterministic(tmp_path):
    path = _game_file(tmp_path, gen_game(2, 2, 2, seed=13))
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["solve", path, "--report", str(r1)]) == 0
    assert main(["solve", path, "--report", str(r2)]) == 0
    d1 = json.loads(r1.read_text())
    d2 = json.loads(r2.read_text())
    d1.pop("generated_at")
    d2.pop("generated_at")
    assert d1 == d2


def test_cli_solve_nonconvergence_exit_code(tmp_path, capsys):
    path = _game_file(tmp_path, gen_game(2, 3, 2, seed=3))
    assert main(["solve", path, "--max-rounds", "0"]) == 3


def test_cli_solve_rejects_a_negative_round_budget(tmp_path, capsys):
    path = _game_file(tmp_path, gen_game(2, 3, 2, seed=3))
    report = tmp_path / "report.json"
    argv = ["solve", path, "--report", str(report), "--max-rounds"]
    assert main(argv + ["-5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "argument --max-rounds" in err
    assert not report.exists()
    assert main(argv + ["0"]) == 3
    assert json.loads(report.read_text())["solver"]["max_rounds"] == 0


def test_cli_verify_accepts_equilibrium(tmp_path, capsys):
    spec = demo_constant(2, 2, 2)
    path = _game_file(tmp_path, spec)
    prof_path = tmp_path / "profile.json"
    save_profile([canonicalize([0], spec.tree)] * 2, str(prof_path))
    assert main(["verify", path, "--profile", str(prof_path)]) == 0
    out = capsys.readouterr().out
    assert "is_nash=True" in out


def test_cli_verify_rejects_non_equilibrium(tmp_path, capsys):
    from helpers import chain_tree, triple_game

    spec = triple_game(chain_tree(2), x=(0.5,) * 3, q=(0.6,) * 3,
                       y=(1.0,) * 3)
    path = _game_file(tmp_path, spec)
    prof_path = tmp_path / "profile.json"
    save_profile(
        [canonicalize([0], spec.tree), canonicalize([], spec.tree)],
        str(prof_path),
    )
    assert main(["verify", path, "--profile", str(prof_path)]) == 4
    out = capsys.readouterr().out
    assert "not an equilibrium" in out


def test_cli_oracle_small_tree(tmp_path, capsys):
    spec = demo_constant(2, 2, 2)
    path = _game_file(tmp_path, spec)
    prof_path = tmp_path / "profile.json"
    save_profile([canonicalize([0], spec.tree)] * 2, str(prof_path))
    assert main(["oracle", path, "--player", "0",
                 "--profile", str(prof_path)]) == 0
    out = capsys.readouterr().out
    assert "best value: 1.0" in out
    assert "[0]" in out


def test_cli_oracle_cap_exit_code(tmp_path, capsys):
    spec = demo_constant(2, 5, 2)
    path = _game_file(tmp_path, spec)
    prof_path = tmp_path / "profile.json"
    save_profile([canonicalize([0], spec.tree)] * 2, str(prof_path))
    code = main(["oracle", path, "--player", "0",
                 "--profile", str(prof_path)])
    assert code == 5
    err = capsys.readouterr().err
    assert "458330" in err


def test_cli_oracle_cap_exit_code_on_a_huge_count(tmp_path, capsys):
    # the count on a depth-15 binary tree has over 4,300 digits
    spec = demo_constant(2, 15, 2)
    path = _game_file(tmp_path, spec)
    prof_path = tmp_path / "profile.json"
    save_profile([canonicalize([0], spec.tree)] * 2, str(prof_path))
    code = main(["oracle", path, "--player", "0",
                 "--profile", str(prof_path)])
    assert code == 5
    assert "at least 2**" in capsys.readouterr().err


def test_cli_oracle_rejects_a_negative_cap(tmp_path, capsys):
    spec = demo_constant(2, 2, 2)  # 5 stopping times
    path = _game_file(tmp_path, spec)
    prof_path = tmp_path / "profile.json"
    save_profile([canonicalize([0], spec.tree)] * 2, str(prof_path))
    argv = ["oracle", path, "--player", "0", "--profile", str(prof_path),
            "--cap"]
    assert main(argv + ["-5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "argument --cap: must be at least 0, got -5" in err
    for cap in ("0", "4"):
        assert main(argv + [cap]) == 5
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "cap exceeded: tree admits 5 stopping times, which exceeds "
            f"the enumeration cap of {cap}\n")
    assert main(argv + ["5"]) == 0


def test_cli_oracle_on_a_deep_chain(tmp_path, capsys):
    spec = demo_constant(2, 1500, 1)
    path = _game_file(tmp_path, spec)
    prof_path = tmp_path / "profile.json"
    save_profile([canonicalize([0], spec.tree)] * 2, str(prof_path))
    code = main(["oracle", path, "--player", "0",
                 "--profile", str(prof_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "best value: 1.0" in captured.out


def test_cli_gen_then_solve(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["gen", str(out), "--players", "3", "--depth", "3",
                 "--branching", "2", "--seed", "8",
                 "--mode", "touching"]) == 0
    assert main(["validate", str(out)]) == 0
    assert main(["solve", str(out)]) == 0


def test_cli_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["gen", str(out), "--players", "2", "--depth", "2",
                     "--branching", "2", "--seed", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_demo_solves_to_horizon(tmp_path, capsys):
    out = tmp_path / "demo.json"
    assert main(["demo", str(out), "--players", "3"]) == 0
    assert main(["solve", str(out)]) == 0
    text = capsys.readouterr().out
    assert "converged: True after 1 rounds" in text
