"""Workload inputs, expected outcomes and the oracle cross-check.

Every game is generated from the workload seed alone, so the package
only ever sees the saved game files.  A solve's outcome is what the
run report says about it (exit code, each player's canonical stop-set
and every certificate boolean); payoff floats are left out on purpose.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import traceback
from dataclasses import dataclass

from dynkin import (
    best_response,
    brute_force_best_response,
    canonicalize,
    cli,
    count_stopping_times,
    gen_game,
    save_game,
)
from dynkin.tree import DEFAULT_ENUM_CAP

from spans import NO_TRACE

WORKLOADS = ("binary_d16", "chain_d100k", "small_batch")
BASELINE_SEED = 1
# Same tolerance the acceptance suite uses for oracle equivalence.
ORACLE_TOL = 1e-12
EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected.json")
STREAMLINE_FLAGS = (
    "martingale_ok",
    "supermartingale_ok",
    "dominance_ok",
    "hit_equality_ok",
    "boundary_ok",
    "residual_ok",
)


@dataclass(frozen=True)
class Game:
    """Arguments of one ``gen_game`` call."""

    players: int
    depth: int
    branching: int
    seed: int
    mode: str

    def generate(self):
        return gen_game(
            self.players, self.depth, self.branching, self.seed, mode=self.mode
        )


def workload_games(workload: str, seed: int, smoke: bool = False) -> list[Game]:
    """The games of one workload; ``smoke`` shrinks them to a few nodes."""
    if workload == "binary_d16":
        return [Game(3, 4 if smoke else 16, 2, seed, "touching")]
    if workload == "chain_d100k":
        return [Game(3, 40 if smoke else 100_000, 1, seed, "touching")]
    if workload == "small_batch":
        # A fixed grid of shapes, player counts and modes keeps the mix of
        # work the same for every seed; only the payoffs change.
        rng = random.Random(seed)
        per_cell = 1 if smoke else 10
        return [
            Game(players, depth, branching, rng.randrange(2**31), mode)
            for depth, branching in ((4, 2), (3, 3))
            for players in (2, 3, 4)
            for mode in ("strict", "touching")
            for _ in range(per_cell)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def save_inputs(games: list[Game], work: str, rec=NO_TRACE):
    """Generate and save every game; returns the specs and file paths."""
    specs, paths = [], []
    for k, game in enumerate(games):
        spec = game.generate()
        path = game_path(work, k)
        with rec.span("gamefile.save_game", game=k):
            save_game(spec, path)
        specs.append(spec)
        paths.append(path)
    return specs, paths


def game_path(work: str, k: int) -> str:
    return os.path.join(work, f"game-{k:03d}.json")


def report_path(work: str, k: int) -> str:
    return os.path.join(work, f"report-{k:03d}.json")


def solve(game: str, report: str, span=contextlib.nullcontext()):
    """``dynkin solve GAME --report REPORT`` through ``cli.main``, its
    output discarded; returns the exit code, or the name of an exception
    that escaped it, which counts as a failure."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(report)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), span:
        try:
            return cli.main(["solve", game, "--report", report])
        except Exception as exc:  # a failure to count, not a crash
            traceback.print_exc()
            return f"uncaught {type(exc).__name__}"


def read_report(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def outcome(exit_code: int, report) -> dict:
    """The parts of a solve that must not change: exit code, canonical
    stop-sets and every certificate boolean."""
    if report is None:
        return {"exit": exit_code, "report": False}
    certs = report["certificates"]
    return {
        "exit": exit_code,
        "assumptions": report["assumptions"]["passed"],
        "converged": report["solver"]["converged"],
        "audit_ok": not report["solver"]["audit_violations"],
        "stop_nodes": [p["stop_nodes"] for p in report["equilibrium"]["players"]],
        "nash": certs["nash"]["is_nash"],
        "streamline": [
            [c[flag] for flag in STREAMLINE_FLAGS]
            for c in certs["streamline"]["players"]
        ],
        "residual": certs["residual_yq"]["passed"],
    }


def digest(out: dict) -> str:
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def certified(out: dict) -> bool:
    if out["exit"] != 0 or "nash" not in out:
        return False
    flags = ("assumptions", "converged", "audit_ok", "nash", "residual")
    return all(out[f] for f in flags) and all(map(all, out["streamline"]))


class Expectations:
    """Expected outcome per game, from the committed table when it holds
    the seed, otherwise "certified with exit 0"."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.digests = None
        if not smoke:
            with open(EXPECTED_PATH, encoding="utf-8") as fh:
                table = json.load(fh)
            self.digests = table["workloads"][workload].get(str(seed))

    def ok(self, k: int, game_digest: str, is_certified: bool) -> bool:
        if self.digests is None:
            return is_certified
        return game_digest == self.digests[k]


def profile_from_report(report, tree):
    return [
        canonicalize(p["stop_nodes"], tree)
        for p in report["equilibrium"]["players"]
    ]


def cross_check(spec, profile, rec=NO_TRACE, game=None) -> tuple[int, int, int]:
    """Brute-force oracle against the envelope best response, for every
    player.  Returns (checks, agreements, stopping times evaluated).

    The oracle counts the stopping times before it enumerates them; the
    count is made here, in the oracle's span, and a tree above the
    oracle's cap gets no check.
    """
    with rec.span("verify.brute_force", game=game):
        count = count_stopping_times(spec.tree)
    if count > DEFAULT_ENUM_CAP:
        return 0, 0, 0
    agree = 0
    for i in range(spec.n_players):
        others = profile[:i] + profile[i + 1:]
        with rec.span("verify.brute_force", game=game):
            b_value, b_time = brute_force_best_response(spec, i, others)
        with rec.span("verify.best_response", game=game):
            value, time_ = best_response(spec, i, others)
        agree += abs(value - b_value) <= ORACLE_TOL and time_ == b_time
    return spec.n_players, agree, spec.n_players * count
