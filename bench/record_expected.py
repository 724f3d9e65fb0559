"""Record the expected outcome of every workload game for a range of
seeds into ``expected.json``.

Each game is solved once through ``dynkin solve`` in a fresh process,
as in a benchmark pass, and its outcome digest is stored (see
``games.outcome``).  Run it only on a commit whose outcomes are known
good; the benchmark counts every later difference as a failure.

Usage: python3 bench/record_expected.py [FIRST_SEED LAST_SEED]
"""

import json
import sys

import checkout

checkout.use_checkout_src()

import games  # noqa: E402
import run  # noqa: E402


def main(first: int, last: int) -> int:
    rows = {}
    uncertified = 0
    for workload in games.WORKLOADS:
        for seed in range(first, last + 1):
            game_list = games.workload_games(workload, seed)
            with run.work_dir() as work:
                games.save_inputs(game_list, work)
                result = run.solve_pass(work, len(game_list))
            solves = result["passes"][0]
            uncertified += sum(not s["certified"] for s in solves)
            rows.setdefault(workload, {})[str(seed)] = [s["digest"] for s in solves]
            print(workload, seed, flush=True)
    lines = [
        "{",
        f'  "about": "outcome digest per game (games.digest), seeds {first}-{last}",',
        '  "workloads": {',
    ]
    for w, workload in enumerate(games.WORKLOADS):
        lines.append(f'    "{workload}": {{')
        seeds = list(rows[workload].items())
        for s, (seed, digests) in enumerate(seeds):
            comma = "," if s + 1 < len(seeds) else ""
            lines.append(f'      "{seed}": {json.dumps(digests)}{comma}')
        lines.append("    }" + ("," if w + 1 < len(games.WORKLOADS) else ""))
    lines += ["  }", "}"]
    with open(games.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{uncertified} uncertified games")
    return 1 if uncertified else 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:]] or [0, 31]
    sys.exit(main(*args))
