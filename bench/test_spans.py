"""Tests of the benchmark's own tooling.

Run with: python3 -m pytest bench/test_spans.py
"""

import contextlib
import io
import os
import subprocess
import sys

import checkout
from spans import Recorder, Span, covered_length, self_times, summarize

BENCH = os.path.dirname(os.path.abspath(__file__))


def test_covered_length_merges_and_clips():
    assert covered_length(0, 10, []) == 0
    assert covered_length(0, 10, [(1, 3), (2, 5)]) == 4
    assert covered_length(0, 10, [(1, 2), (3, 4)]) == 2
    assert covered_length(0, 10, [(-5, 1), (9, 12), (20, 30)]) == 2
    assert covered_length(0, 10, [(2, 8), (3, 4)]) == 6


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "cli.main", 0.0, 10.0),
        Span(1, "solver.run", 1.0, 6.0, parent=0),
        Span(2, "solver.step", 2.0, 3.0, parent=1),
        Span(3, "solver.step", 2.5, 4.0, parent=1),
        Span(4, "report.write_report", 9.0, 12.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == 10 - 5 - 1
    assert selfs[1] == 5 - 2
    assert selfs[2] == 1
    assert selfs[4] == 3


def test_recorder_nests_and_summarizes():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    with rec.span("cli.main", game=7):          # 0 .. 7
        with rec.span("solver.run"):            # 1 .. 4
            with rec.span("solver.step"):       # 2 .. 3
                pass
        with rec.span("solver.step"):           # 5 .. 6
            pass
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert [s.game for s in rec.spans] == [7, None, None, None]
    totals = summarize(rec.spans)
    assert totals["solver.step"].calls == 2
    assert totals["solver.step"].total_s == 2
    assert totals["solver.run"].self_s == 3 - 1
    assert totals["cli.main"].self_s == 7 - 3 - 1


def test_instrument_nests_layer_spans_and_restores(tmp_path):
    checkout.use_checkout_src()
    import dynkin.solver
    from dynkin import cli, demo_constant, save_game
    from traced import instrument

    game = str(tmp_path / "game.json")
    save_game(demo_constant(2, 2, 2), game)
    step = dynkin.solver.step
    rec = Recorder()
    with instrument(rec, game=0), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["solve", game, "--report", str(tmp_path / "r.json")]) == 0
    assert dynkin.solver.step is step
    by_id = {s.id: s for s in rec.spans}
    steps = [s for s in rec.spans if s.name == "solver.step"]
    assert steps and all(by_id[s.parent].name == "solver.run" for s in steps)
    names = {s.name for s in rec.spans}
    assert {"gamefile.load_game", "tree.build", "gamefile.game_digest",
            "snell.snell_envelope", "verify.verify_nash"} <= names


def test_smoke_emits_every_benchmark_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
