"""Solve every game of a work directory through ``dynkin solve
--report`` in this fresh process, in passes over all the games: one
pass, then more while the passes so far took less than SECONDS.

Prints one JSON line: per pass, each solve's wall time, outcome digest
and whether it certified; and the process's peak RSS.

Usage: python3 bench/solve_pass.py WORK_DIR N_GAMES SECONDS
"""

import json
import resource
import sys
import time

import checkout

checkout.use_checkout_src()

import games  # noqa: E402


def solve_all(work: str, n_games: int) -> list[dict]:
    solves = []
    for k in range(n_games):
        report = games.report_path(work, k)
        start = time.perf_counter()
        code = games.solve(games.game_path(work, k), report)
        elapsed = time.perf_counter() - start
        out = games.outcome(code, games.read_report(report))
        solves.append({
            "s": elapsed,
            "digest": games.digest(out),
            "certified": games.certified(out),
        })
    return solves


def main(work: str, n_games: int, seconds: float) -> None:
    passes, spent = [], 0.0
    while not passes or spent < seconds:
        passes.append(solve_all(work, n_games))
        spent += sum(s["s"] for s in passes[-1])
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": passes, "maxrss_mb": maxrss_kb / 1024}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
