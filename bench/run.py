"""Benchmark of the ``dynkin solve`` path: find an equilibrium, then prove it.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Workloads (games generated from ``--seed``; see ``games.py``):
    binary_d16   one 3-player touching game, binary tree of depth 16
    chain_d100k  one 3-player touching game, chain of depth 100,000
    small_batch  120 small games; each equilibrium is cross-checked
                 against the brute-force oracle

``--trace 0`` prints the end-to-end metrics (see ``measure``): rounds
of set-up, solves of every game through ``cli.main`` in a fresh
process, and the oracle cross-check, until ``--seconds`` have passed.
``--trace 1`` prints the per-layer metrics of a traced run instead
(``traced.py``) and writes its spans to ``.bench_work/``.  Every solve
is checked against ``expected.json``, and the oracle against the
envelope best response.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--smoke`` runs every workload at toy size both ways and checks that
each metric in ``BENCHMARK.json`` is printed with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checkout

checkout.use_checkout_src()

import games  # noqa: E402
import traced  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(checkout.ROOT, ".bench_work")
MIN_ROUNDS = 4
# Oracle time per round, shared by the games: a game whose cross-check
# takes less than its share is checked again until the share is used,
# so the one-game workloads time hundreds of cheap checks, not four.
ORACLE_ROUND_S = 0.5
# Solve time per round: the fresh solve process repeats its pass over
# the games while its passes took less, so cheap games get several
# samples a round and a pass over the large games runs once.
SOLVE_ROUND_S = 2.0
PASS_TIMEOUT_S = 90


@contextlib.contextmanager
def work_dir():
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def solve_pass(work, n_games, seconds=0.0):
    cmd = [
        sys.executable, os.path.join(BENCH, "solve_pass.py"),
        work, str(n_games), str(seconds),
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(workload, seed, seconds, smoke=False):
    """End-to-end metrics; returns attempted, failed, metrics, notes.

    Each round sets the inputs up again (timed), solves every game in a
    fresh process and cross-checks every equilibrium, so all metrics
    sample the whole run.  Rounds repeat until ``seconds`` have passed,
    and at least MIN_ROUNDS run.  A game's solve time is the best of its
    solves and its cross-check time the best of its checks (cheap ones
    run several times a round, see SOLVE_ROUND_S and ORACLE_ROUND_S,
    but once in ``smoke`` runs), since interference on a shared host
    only ever slows a run; medians and p90 are then taken over the games.
    """
    game_list = games.workload_games(workload, seed, smoke)
    expect = games.Expectations(workload, seed, smoke)
    failed = 0
    setup_times, rss = [], []
    solve_times = [[] for _ in game_list]
    oracle_times = [[] for _ in game_list]
    certified = [True] * len(game_list)
    solve_round_s = 0.0 if smoke else SOLVE_ROUND_S
    oracle_round_s = 0.0 if smoke else ORACLE_ROUND_S
    with work_dir() as work:
        start = time.perf_counter()
        while len(rss) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            specs = None
            gc.collect()
            t0 = time.perf_counter()
            specs, _ = games.save_inputs(game_list, work)
            setup_times.append(time.perf_counter() - t0)

            result = solve_pass(work, len(game_list), solve_round_s)
            rss.append(result["maxrss_mb"])
            for solves in result["passes"]:
                for k, solve in enumerate(solves):
                    solve_times[k].append(solve["s"])
                    ok = expect.ok(k, solve["digest"], solve["certified"])
                    failed += not ok
                    certified[k] &= ok and solve["certified"]

            for k, spec in enumerate(specs):
                report = games.read_report(games.report_path(work, k))
                if report is None:
                    continue
                profile = games.profile_from_report(report, spec.tree)
                share = oracle_round_s / len(specs)
                spent = 0.0
                while True:
                    t0 = time.perf_counter()
                    checks, agree, _ = games.cross_check(spec, profile)
                    elapsed = time.perf_counter() - t0
                    oracle_times[k].append(elapsed)
                    spent += elapsed
                    failed += agree != checks
                    if spent >= share:
                        break

    best_solve = [min(ts) for ts in solve_times]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(best_solve), "s"),
        "solve_p90_s": (p90(best_solve), "s"),
        "games_per_s": (sum(certified) / sum(best_solve), "1/s"),
        "oracle_s": (statistics.median(min(ts) for ts in oracle_times if ts), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    n_solves = sum(map(len, solve_times))
    n_oracle = sum(map(len, oracle_times))
    attempted = n_solves + n_oracle
    notes = [
        f"rounds: {len(rss)}; games: {len(game_list)}; solves: {n_solves}; "
        f"oracle cross-checks: {n_oracle}",
        f"fail_frac: {failed / attempted} ({failed} of {attempted})",
    ]
    return attempted, failed, metrics, notes


def trace(workload, seed, seconds, smoke=False):
    """Per-layer metrics of one traced run; returns the same four."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    spans_path = os.path.join(WORK_ROOT, f"spans-{workload}-{seed}.json")
    with work_dir() as work:
        attempted, failed, metrics = traced.traced_run(
            workload, seed, seconds, smoke, work, spans_path
        )
    notes = [
        f"spans written to {os.path.relpath(spans_path, checkout.ROOT)}",
        f"fail_frac: {failed / attempted} ({failed} of {attempted})",
    ]
    return attempted, failed, metrics, notes


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def smoke():
    """Toy-size run of every workload, both ways, checking that exactly
    the metrics named in BENCHMARK.json come out, with their units."""
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    for workload in games.WORKLOADS:
        for kind, run_ in (("end_to_end", measure), ("per_layer", trace)):
            attempted, failed, metrics, _ = run_(
                workload, games.BASELINE_SEED, 0, smoke=True)
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: unit for name, (_, unit) in metrics.items()}
            if got != want:
                problems.append(
                    f"{workload} {kind}: missing or wrong unit "
                    f"{sorted(set(want.items()) - set(got.items()))}, "
                    f"unlisted {sorted(set(got.items()) - set(want.items()))}"
                )
            if failed or not attempted:
                problems.append(f"{workload} {kind}: {failed} of {attempted} failed")
            print(f"smoke {workload} {kind}: {len(metrics)} metrics, "
                  f"{failed} of {attempted} failed")
    for line in problems:
        print(f"smoke FAILED: {line}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=games.WORKLOADS)
    parser.add_argument("--seed", type=int, default=games.BASELINE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    run_ = trace if args.trace else measure
    attempted, failed, metrics, notes = run_(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:14.6g} {unit}")
    for note in notes:
        print(note)
    print(result_line(attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
