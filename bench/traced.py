"""Traced run: per-layer times of the ``dynkin solve`` path.

For every game the run calls ``cli.main(["solve", GAME, "--report",
R])`` twice, in alternating order: once untraced, to price the
tracing, and once with every
reference one package module holds to a traced public function of
another module wrapped in a span (``instrument``).  ``step`` is also
wrapped inside the solver, where ``run`` calls it, and the tree build
through ``ScenarioTree.__init__``.  The wrappers live here and are
removed after the call; no package code changes.  Spans nest by call,
so a layer's self time is exact.  The oracle cross-check follows with
the benchmark's own spans, then one untimed ``run`` under
``tracemalloc``.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass

from dynkin import ScenarioTree, load_game, run

import games
from spans import Recorder, summarize

# (module, public function) pairs whose calls get a span named
# "module.function".
TRACED = (
    ("gamefile", "load_game"),
    ("gamefile", "game_digest"),
    ("report", "solve_and_certify"),
    ("report", "build_report"),
    ("report", "write_report"),
    ("tree", "canonicalize"),
    ("tree", "min_stop"),
    ("snell", "snell_envelope"),
    ("game", "validate_assumptions"),
    ("game", "cutoff_obstacle"),
    ("game", "best_response_process"),
    ("game", "payoff"),
    ("solver", "run"),
    ("solver", "step"),
    ("solver", "audit_iteration"),
    ("verify", "verify_nash"),
    ("verify", "verify_streamline"),
    ("verify", "residual_yq"),
)
# Traced also where their own module calls them.
TRACED_WITHIN = {("solver", "step")}
LAYERS = ("gamefile", "tree", "snell", "game", "solver", "verify", "report", "cli")


@contextlib.contextmanager
def instrument(rec: Recorder, game: int):
    """Wrap the package's references to the ``TRACED`` functions and
    the tree constructor in spans; restore them on exit."""
    package = [
        m for name, m in list(sys.modules.items()) if name.startswith("dynkin.")
    ]
    patches = []
    for module, name in TRACED:
        home = importlib.import_module(f"dynkin.{module}")
        fn = getattr(home, name)
        wrapper = _wrap(rec, f"{module}.{name}", fn, game)
        for mod in package:
            if mod is home and (module, name) not in TRACED_WITHIN:
                continue
            patches += [
                (mod, attr, fn, wrapper)
                for attr, value in vars(mod).items() if value is fn
            ]
    init = ScenarioTree.__init__
    patches.append((ScenarioTree, "__init__", init,
                    _wrap(rec, "tree.build", init, game)))
    for owner, attr, _, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original, _ in patches:
            setattr(owner, attr, original)


def _wrap(rec, span_name, fn, game):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(span_name, game=game):
            return fn(*args, **kwargs)
    return traced


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    games: int = 0
    saved: int = 0
    save_bytes: int = 0
    load_bytes: int = 0
    report_bytes: int = 0
    rounds: int = 0
    steps: int = 0
    snell_nodes: int = 0
    untraced_s: float = 0.0
    checks: int = 0
    agree: int = 0
    evals: int = 0
    alloc_peak: int = 0


def traced_run(workload, seed, seconds, smoke, work, spans_path):
    """Trace passes over the workload's games until ``seconds`` have
    passed (at least one pass); returns attempted, failed and the
    per-layer metrics as ``{name: (value, unit)}``."""
    rec = Recorder()
    st = Stats()
    expect = games.Expectations(workload, seed, smoke)
    game_list = games.workload_games(workload, seed, smoke)
    _, paths = games.save_inputs(game_list, work, rec)
    st.saved = len(paths)
    st.save_bytes = sum(os.path.getsize(p) for p in paths)
    gc.collect()
    start = time.perf_counter()
    while st.games == 0 or time.perf_counter() - start < seconds:
        for k, path in enumerate(paths):
            _trace_game(rec, st, k, path, work, expect)
    rec.write(spans_path)
    return st.attempted, st.failed, per_layer_metrics(rec, st)


def _trace_game(rec, st, k, path, work, expect):
    gid = st.games
    st.games += 1
    report = games.report_path(work, k)
    untraced_report = os.path.join(work, f"untraced-{k:03d}.json")
    # Alternate which call runs first, so neither always pays warm-up.
    for traced_call in ((False, True) if gid % 2 == 0 else (True, False)):
        if traced_call:
            first_span = len(rec.spans)
            with instrument(rec, gid):
                code = games.solve(path, report, rec.span("cli.main", game=gid))
        else:
            start = time.perf_counter()
            untraced_code = games.solve(path, untraced_report)
            st.untraced_s += time.perf_counter() - start
    untraced = games.outcome(untraced_code, games.read_report(untraced_report))
    doc = games.read_report(report)
    st.attempted += 2
    st.failed += not expect.ok(k, games.digest(untraced), games.certified(untraced))
    st.failed += games.digest(games.outcome(code, doc)) != games.digest(untraced)
    st.load_bytes += os.path.getsize(path)
    if doc is None:
        return
    st.report_bytes += os.path.getsize(report)
    st.rounds += doc["solver"]["rounds_used"]
    st.steps += doc["solver"]["steps"]
    # Every envelope sweeps the whole tree.
    st.snell_nodes += doc["game"]["nodes"] * sum(
        s.name == "snell.snell_envelope" for s in rec.spans[first_span:]
    )

    spec = load_game(path)
    with rec.span("bench.oracle", game=gid):
        checks, agree, evals = games.cross_check(
            spec, games.profile_from_report(doc, spec.tree), rec, gid
        )
    st.attempted += 1
    st.failed += agree != checks
    st.checks += checks
    st.agree += agree
    st.evals += evals

    gc.collect()
    tracemalloc.start()
    try:
        run(spec)
        st.alloc_peak = max(st.alloc_peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()


def per_layer_metrics(rec: Recorder, st: Stats) -> dict:
    names = summarize(rec.spans)
    n = st.games

    def total(name):
        return names[name].total_s / n

    def self_(name):
        return names[name].self_s / n

    def calls(name):
        return names[name].calls / n

    main = names["cli.main"]
    metrics = {
        "gamefile.load_game.s": (total("gamefile.load_game"), "s"),
        "gamefile.load_game.bytes": (st.load_bytes / n, "bytes"),
        "gamefile.save_game.s": (names["gamefile.save_game"].total_s / st.saved, "s"),
        "gamefile.save_game.bytes": (st.save_bytes / st.saved, "bytes"),
        "gamefile.game_digest.s": (total("gamefile.game_digest"), "s"),
        "report.build_report.self_s": (self_("report.build_report"), "s"),
        "report.write_report.s": (total("report.write_report"), "s"),
        "report.bytes": (st.report_bytes / n, "bytes"),
        "tree.build.s": (total("tree.build"), "s"),
        "tree.canonicalize.calls": (calls("tree.canonicalize"), "count"),
        "tree.canonicalize.s": (total("tree.canonicalize"), "s"),
        "tree.min_stop.calls": (calls("tree.min_stop"), "count"),
        "tree.min_stop.s": (total("tree.min_stop"), "s"),
        "snell.snell_envelope.calls": (calls("snell.snell_envelope"), "count"),
        "snell.snell_envelope.s": (total("snell.snell_envelope"), "s"),
        "snell.nodes_per_s": (
            st.snell_nodes / names["snell.snell_envelope"].total_s, "nodes/s"),
        "game.validate_assumptions.s": (total("game.validate_assumptions"), "s"),
        "game.cutoff_obstacle.s": (total("game.cutoff_obstacle"), "s"),
        "game.best_response_process.s": (total("game.best_response_process"), "s"),
        "game.payoff.s": (total("game.payoff"), "s"),
        "solver.rounds": (st.rounds / n, "count"),
        "solver.steps": (st.steps / n, "count"),
        "solver.step.s": (total("solver.step"), "s"),
        "solver.step.self_s": (self_("solver.step"), "s"),
        "solver.audit_iteration.s": (total("solver.audit_iteration"), "s"),
        "solver.run.alloc_peak_mb": (st.alloc_peak / 2**20, "MB"),
        "verify.verify_nash.s": (total("verify.verify_nash"), "s"),
        "verify.verify_streamline.s": (total("verify.verify_streamline"), "s"),
        "verify.residual_yq.s": (total("verify.residual_yq"), "s"),
        "verify.brute_force.s": (total("verify.brute_force"), "s"),
        "verify.brute_force.evals": (st.evals / n, "count"),
        "verify.oracle_agree_ratio": (
            st.agree / st.checks if st.checks else 1.0, "ratio"),
        "cli.main.self_s": (self_("cli.main"), "s"),
        "trace.overhead_ratio": (main.total_s / st.untraced_s, "ratio"),
        "trace.covered_frac": (1.0 - main.self_s / main.total_s, "ratio"),
    }
    # Per layer, the self time of its spans per game; saving the inputs is
    # set-up and stays out.
    for layer in LAYERS:
        self_s = sum(
            t.self_s for name, t in names.items()
            if name.split(".")[0] == layer and name != "gamefile.save_game"
        )
        metrics[f"layer.{layer}.self_s"] = (self_s / n, "s")
    return metrics
