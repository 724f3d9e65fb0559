"""Same outputs: a fingerprint of every CLI run over a fixed set of games.

    python tools/same_outputs.py            # the small cases
    python tools/same_outputs.py --large    # and two large games

Runs ``dynkin.cli.main`` in this process, from the ``src`` of the
checkout this file sits in, and prints one line per run: case, command,
exit code, and a sha256 of the run's stdout, stderr and every file it
wrote.  Reports are hashed less ``generated_at``, and the temporary
directory's path is replaced by ``<dir>`` everywhere, so two checkouts
that behave alike print identical lines: copy this file into another
checkout, run it there and here, and diff the outputs.

Cases: seeded small ``gen_game`` games (both modes, 2-4 players,
binary and ternary, one over the oracle's cap), relabeled copies of
some of them (``tests/helpers.relabeled_game``), a 3,000-deep chain, the demo, and
every ``tests/test_cli_inputs.GAME_MUTATIONS`` document.  ``--large``
adds ``gen_game(3, 16, 2, 1, "touching")`` and
``gen_game(3, 100_000, 1, 1, "touching")``.

Commands per case: ``validate`` at ``--strict-tol`` 0 and 0.05,
``solve --report --trace``, ``verify`` at ``--tol`` 1e-9 and 0.05 on the
solved equilibrium (every player waiting to the horizon if the solve
wrote no report) and on a seeded random profile, and ``oracle`` for
players 0 and 1 against the equilibrium.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import re
import sys
import tempfile
from typing import Callable, Iterable, Iterator, NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from dynkin import cli, demo_constant, gen_game, save_game  # noqa: E402

GENERATED_AT = re.compile(rb'"generated_at": *"[^"]*"')


class Case(NamedTuple):
    name: str
    write: Callable[[str], None]  # writes the game file at a path
    players: int  # the shape the profiles are drawn for
    n_nodes: int


def spec_case(name: str, spec) -> Case:
    return Case(name, functools.partial(save_game, spec), spec.n_players,
                spec.tree.n_nodes)


def cases(large: bool = False) -> Iterator[Case]:
    """The cases in a fixed order, each game built when it is reached."""
    from helpers import game_document, relabeled_game
    from test_cli_inputs import GAME_MUTATIONS

    for seed, (players, (depth, branching), mode) in enumerate(
        itertools.product((2, 3, 4), ((3, 2), (2, 3)),
                          ("strict", "touching"))
    ):
        spec = gen_game(players, depth, branching, seed, mode)
        name = f"gen_p{players}_d{depth}_b{branching}_{mode}_s{seed}"
        yield spec_case(name, spec)
        if seed % 3 == 0:
            moved = relabeled_game(spec, random.Random(seed))
            yield spec_case(f"relabeled_{name}", moved)
    # more stopping times than the oracle's default cap: exit 5
    yield spec_case("gen_p3_d5_b2_touching_s12",
                    gen_game(3, 5, 2, 12, "touching"))
    yield spec_case("chain_d3000", gen_game(2, 3000, 1, 7, "touching"))
    yield spec_case("demo", demo_constant(2, 2, 2))
    base = gen_game(2, 2, 2, seed=5, mode="touching")
    doc = game_document(base)
    for name, mutate in sorted(GAME_MUTATIONS.items()):
        yield Case(f"mutation_{name}",
                   functools.partial(_write_bytes, mutate(doc)),
                   base.n_players, base.tree.n_nodes)
    if large:
        yield spec_case("binary_d16", gen_game(3, 16, 2, 1, "touching"))
        yield spec_case("chain_d100k",
                        gen_game(3, 100_000, 1, 1, "touching"))


def _write_bytes(data: bytes, path: str) -> None:
    with open(path, "wb") as f:
        f.write(data)


def _files(top: str) -> dict[str, bytes]:
    found = {}
    for here, _, names in os.walk(top):
        for name in names:
            path = os.path.join(here, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, top)] = f.read()
    return found


def fingerprint(work: str, argv: list[str]) -> tuple[int, str]:
    """Run ``cli.main(argv)``: its exit code, and the sha256 of its
    stdout, stderr and the files it wrote or changed under ``work``."""
    before = _files(work)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = sorted((k, v) for k, v in _files(work).items()
                     if before.get(k) != v)
    h = hashlib.sha256()
    for part in (out.getvalue().encode(), err.getvalue().encode(),
                 *(x for kv in written for x in (kv[0].encode(), kv[1]))):
        part = GENERATED_AT.sub(b'"generated_at": null', part)
        part = part.replace(work.encode(), b"<dir>")
        h.update(len(part).to_bytes(8, "big") + part)
    return code, h.hexdigest()


def _profile(path: str, stop_sets) -> str:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(stop_sets, f)
    return path


def lines(selected: Iterable[Case]) -> Iterator[str]:
    """One ``case command exit sha256`` line per run, tab-separated."""
    for case in selected:
        with tempfile.TemporaryDirectory() as work:
            game = os.path.join(work, "game.json")
            case.write(game)
            report = os.path.join(work, "report.json")

            def run(command: str, argv: list[str]) -> str:
                code, digest = fingerprint(work, argv)
                return f"{case.name}\t{command}\t{code}\t{digest}"

            for tol in ("0", "0.05"):
                yield run(f"validate --strict-tol {tol}",
                          ["validate", game, "--strict-tol", tol])
            yield run("solve --report --trace",
                      ["solve", game, "--report", report,
                       "--trace", os.path.join(work, "trace.csv")])
            if os.path.exists(report):
                with open(report, encoding="utf-8") as f:
                    players = json.load(f)["equilibrium"]["players"]
                stop_sets = [p["stop_nodes"] for p in players]
            else:
                stop_sets = [[] for _ in range(case.players)]
            rng = random.Random(case.name)
            profiles = {
                "equilibrium": _profile(
                    os.path.join(work, "equilibrium.json"), stop_sets),
                "random": _profile(
                    os.path.join(work, "random.json"),
                    [[v for v in range(case.n_nodes) if rng.random() < 0.3]
                     for _ in range(case.players)]),
            }
            for which, path in profiles.items():
                for tol in ("1e-9", "0.05"):
                    yield run(f"verify --tol {tol} {which}",
                              ["verify", game, "--profile", path,
                               "--tol", tol])
            for player in ("0", "1"):
                yield run(f"oracle --player {player}",
                          ["oracle", game, "--player", player,
                           "--profile", profiles["equilibrium"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--large", action="store_true",
                        help="add the two large benchmark games")
    args = parser.parse_args(argv)
    for line in lines(cases(args.large)):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
