"""Critical path of one ``dynkin solve GAME --report`` run.

    python tools/critical_path.py GAME

Runs ``dynkin solve GAME --report REPORT`` once, in this process and
into a temporary directory, and prints where the report's input digest
meets the solve, in seconds from the start of ``cli.main``, one
``name value`` line each:

- ``parse_end_s``: the game file is parsed (``json.load`` has returned);
- ``digest``: ``child`` when the digest is forked off, else ``inline``;
- a child: ``fork_s`` (the child is forked), ``digest_read_s`` (the
  parent reaches the digest read), ``digest_arrived_s`` (the digest is
  readable on the pipe: a thread watches a copy of its read end, so
  the reading lags by up to the interpreter's switch interval) and
  ``digest_wait_s`` (how long the read blocked);
- ``inline_digest_s``: the time of a digest computed in the parent,
  as on a game below ``cli._FORK_MIN_VALUES`` nodes times players;
- ``total_s`` and ``exit``, the solve's exit code, which is also this
  script's.

The solve's own output goes to stderr.  The child is reaped by the
solve itself on every path (``cli._DigestChild``); the watcher only
closes its copy of the pipe.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import select
import sys
import tempfile
import threading
import time
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from dynkin import cli, report  # noqa: E402


def _watch(fd: int, times: dict, now) -> None:
    """Record when ``fd`` turns readable (the digest, or the end of the
    pipe if the child dies first), then close it."""
    try:
        select.select([fd], [], [])
        times["digest_arrived_s"] = now()
    finally:
        os.close(fd)


def timed_solve(game: str) -> tuple[int, dict]:
    """The solve's exit code and the times it reached each point."""
    times: dict = {}
    watchers = []

    def now() -> float:
        return time.perf_counter() - start

    def start_digest(original):
        def wrapped(doc):
            times["parse_end_s"] = now()
            child = original(doc)
            times["digest"] = "inline" if child is None else "child"
            if child is not None:
                times["fork_s"] = now()
                try:
                    watcher = threading.Thread(
                        target=_watch, args=(os.dup(child.fd), times, now),
                        daemon=True)
                    watcher.start()
                except BaseException:  # the solve never sees this child
                    child.close()
                    raise
                watchers.append(watcher)
            return child
        return wrapped

    def read(original):
        def wrapped(self):
            times["digest_read_s"] = now()
            try:
                return original(self)
            finally:
                times["digest_wait_s"] = now() - times["digest_read_s"]
        return wrapped

    def game_digest(original):
        def wrapped(spec):
            t = time.perf_counter()
            try:
                return original(spec)
            finally:
                times["inline_digest_s"] = time.perf_counter() - t
        return wrapped

    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        for obj, name, wrap in ((cli, "_start_digest", start_digest),
                                (cli._DigestChild, "read", read),
                                (report, "game_digest", game_digest)):
            stack.enter_context(
                mock.patch.object(obj, name, wrap(getattr(obj, name))))
        stack.enter_context(contextlib.redirect_stdout(sys.stderr))
        start = time.perf_counter()
        try:
            code = cli.main(
                ["solve", game, "--report", os.path.join(tmp, "report.json")])
        finally:
            times["total_s"] = now()
            for watcher in watchers:  # the child is gone: the pipe has ended
                watcher.join(timeout=10)
    return code, times


FIELDS = ("parse_end_s", "digest", "fork_s", "digest_read_s",
          "digest_arrived_s", "digest_wait_s", "inline_digest_s", "total_s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("game", help="game file to solve")
    args = parser.parse_args(argv)
    code, times = timed_solve(args.game)
    for name in FIELDS:
        if name in times:
            value = times[name]
            print(name, value if isinstance(value, str) else f"{value:.6f}")
    print("exit", code)
    return code


if __name__ == "__main__":
    sys.exit(main())
