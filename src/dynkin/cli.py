"""Command-line interface.

Exit codes: 0 success, 1 parse or usage error (or an unwritable output
path), 2 validation failure, 3 non-convergence, 4 certification
failure, 5 enumeration cap hit.

On a large game, ``solve --report`` computes the report's input digest
in a short-lived child process (where ``os.fork`` exists), started once
the file is parsed, while it builds the spec and solves, and hands it to
the one ``build_report`` call; the outputs do not change.
``--max-rounds`` or ``--cap`` below 0 is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import signal
import sys
from typing import NoReturn, Optional, Sequence

from .game import AssumptionError, GameError, validate_assumptions
from .gamefile import (
    GameParseError,
    GameStructureError,
    _document_digest,
    demo_constant,
    gen_game,
    load_game,
    load_profile,
    save_game,
)
from .report import (RESIDUAL_TOL, build_report, solve_and_certify,
                     write_report, write_trace)
from .snell import EQ_TOL
from .solver import make_candidate
from .tree import DEFAULT_ENUM_CAP, EnumerationCapError, TreeError
from .verify import (
    brute_force_best_response,
    residual_yq,
    verify_nash,
    verify_streamline,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CERTIFICATION = 4
EXIT_CAP = 5


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the artifact reserves
    # 2 for validation failures, so usage problems remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _at_least_zero(text: str) -> int:
    """An integer of at least 0: ``--max-rounds`` and ``--cap``."""
    try:
        value = int(text)
    except ValueError:  # argparse's own message for ``type=int``
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    """A finite number of at least 0: ``--tol``, ``--residual-tol`` and
    ``--strict-tol``.  NaN, an infinity or a negative value would switch
    the checks they bound off."""
    try:
        value = float(text)
    except ValueError:  # argparse's own message for ``type=float``
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number of at least 0, got {value}")
    return value


# Built once: parsing keeps no state, and help is formatted when printed.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dynkin",
        description=(
            "Solve and certify N-player stopping games on scenario trees."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[], help="check a game file")
    p.add_argument("game")
    p.add_argument("--strict-tol", type=_tolerance, default=0.0)

    p = sub.add_parser("solve", help="run the solver and certify the result")
    p.add_argument("game")
    p.add_argument("--max-rounds", type=_at_least_zero, default=None)
    p.add_argument("--tol", type=_tolerance, default=EQ_TOL)
    p.add_argument("--residual-tol", type=_tolerance, default=RESIDUAL_TOL)
    p.add_argument("--strict-tol", type=_tolerance, default=0.0)
    p.add_argument("--report", default=None, help="write a JSON run report")
    p.add_argument("--trace", default=None, help="write a CSV iteration trace")

    p = sub.add_parser("verify", help="certify an arbitrary profile")
    p.add_argument("game")
    p.add_argument("--profile", required=True)
    p.add_argument("--tol", type=_tolerance, default=EQ_TOL)

    p = sub.add_parser("oracle", help="brute-force best response")
    p.add_argument("game")
    p.add_argument("--player", type=int, required=True,
                   help="player index, 0-based")
    p.add_argument("--profile", required=True,
                   help="profile file; the player's own entry is ignored")
    p.add_argument("--cap", type=_at_least_zero, default=DEFAULT_ENUM_CAP)

    p = sub.add_parser("gen", help="generate a seeded random game")
    p.add_argument("out")
    p.add_argument("--players", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--branching", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["strict", "touching"], default="strict")
    p.add_argument("--gap", type=float, default=0.1)
    p.add_argument("--touch-frac", type=float, default=0.2)

    p = sub.add_parser("demo", help="write the constant demo game")
    p.add_argument("out")
    p.add_argument("--players", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--branching", type=int, default=2)

    return parser


def _cmd_validate(args) -> int:
    spec = load_game(args.game)
    report = validate_assumptions(spec, strict_tol=args.strict_tol)
    for v in report.a3_violations:
        print(
            f"order violation: player {v.player} node {v.node}: "
            f"X={v.x!r} Q={v.q!r} Y={v.y!r}"
        )
    for v in report.a4_violations:
        print(
            f"touching violation: node {v.node}: player {v.trigger_player} "
            f"has Q < Y but player {v.blocking_player} lacks X < Y"
        )
    if not report.passed:
        print(
            f"validation failed: {len(report.a3_violations)} order and "
            f"{len(report.a4_violations)} touching violations"
        )
        return EXIT_VALIDATION
    print(
        f"ok: {spec.n_players} players, horizon {spec.tree.horizon}, "
        f"{spec.tree.n_nodes} nodes"
    )
    return EXIT_OK


# A game with at least this many nodes times players has its report's
# input digest computed by a forked child while the parent solves.
# Starting and reaping the child costs a few milliseconds, more than the
# digest of a game below about a fifth of this size.
_FORK_MIN_VALUES = 1 << 12
_DIGEST_LEN = len("sha256:") + 64


class _DigestChild:
    """A forked child that computes the digest of a parsed game file and
    writes it to a pipe, so the digest overlaps the parent's work."""

    def __init__(self, doc):
        """Raises :class:`OSError` when the pipe or the fork fails."""
        fd, wfd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(fd)
            os.close(wfd)
            raise
        if pid == 0:
            _write_digest(doc, wfd)
        os.close(wfd)
        self.pid, self.fd = pid, fd

    def read(self) -> Optional[str]:
        """The child's digest, or None if it wrote none or failed.  The
        child is reaped here, or by :meth:`close` if reading fails."""
        data = b""
        try:
            while chunk := os.read(self.fd, _DIGEST_LEN):
                data += chunk
            pid, self.pid = self.pid, None
            status = os.waitpid(pid, 0)[1]
        except OSError:
            return None
        if status != 0 or len(data) != _DIGEST_LEN:
            return None
        return data.decode()

    def close(self) -> None:
        """Close the pipe; kill and reap the child unless it was reaped."""
        os.close(self.fd)
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except OSError:  # gone already: nothing left to reap
                pass


def _write_digest(doc, fd: int) -> NoReturn:
    """The child's whole run: ``os._exit`` flushes no stdio buffer and
    runs no exit handler, and it ends the child whatever is raised, so
    no exception unwinds into the parent's code."""
    code = 1
    try:
        data = _document_digest(doc).encode()
        while data:
            data = data[os.write(fd, data):]
        code = 0
    finally:
        os._exit(code)


def _start_digest(doc) -> Optional[_DigestChild]:
    """A digest child for a large game, or None: the digest is then
    computed inline, as on small games and where fork is missing or
    fails.  The unchecked document's size is read without raising."""
    game = doc if isinstance(doc, dict) else {}
    nodes, players = game.get("nodes"), game.get("players")
    if (
        not hasattr(os, "fork")
        or type(nodes) is not list
        or type(players) is not int
        or len(nodes) * players < _FORK_MIN_VALUES
    ):
        return None
    try:
        return _DigestChild(doc)
    except OSError:
        return None


def _cmd_solve(args) -> int:
    child: Optional[_DigestChild] = None

    def start_digest(doc) -> None:
        nonlocal child
        child = _start_digest(doc)

    try:
        spec = load_game(args.game,
                         _parsed=start_digest if args.report else None)
        return _solve(args, spec, child)
    finally:
        if child is not None:
            child.close()


def _solve(args, spec, child: Optional[_DigestChild]) -> int:
    result = solve_and_certify(
        spec,
        max_rounds=args.max_rounds,
        tol=args.tol,
        residual_tol=args.residual_tol,
        strict_tol=args.strict_tol,
    )
    cand = result.candidate
    print(
        f"converged: {cand.converged} after {cand.rounds_used} rounds "
        f"({len(result.state.trace)} player updates)"
    )
    for cert in result.nash.players:
        tau = cand.T_star[cert.player]
        print(
            f"player {cert.player}: payoff {cert.equilibrium_payoff!r}, "
            f"gap {cert.gap!r}, stops at {sorted(tau.stop_set)}"
        )
    print(
        f"certificates: nash={result.nash.is_nash} "
        f"streamline={result.streamline.passed} "
        f"residual_ok={result.residuals_ok} "
        f"audit_violations={len(result.audit_violations)}"
    )
    if args.trace:
        write_trace(result.state, spec.tree, args.trace)
    if args.report:
        digest = child.read() if child is not None else None
        report = build_report(
            spec, result, trace_file=args.trace, _digest=digest
        )
        write_report(report, args.report)
    if not cand.converged:
        print(f"not converged within {result.max_rounds} rounds")
        return EXIT_NO_CONVERGENCE
    if not result.certified:
        print("certification failed")
        return EXIT_CERTIFICATION
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = load_game(args.game)
    profile = load_profile(args.profile, spec.tree, spec.n_players)
    cert = verify_nash(spec, profile, tol=args.tol)
    for c in cert.players:
        print(
            f"player {c.player}: payoff {c.equilibrium_payoff!r}, "
            f"best response {c.best_response_value!r}, gap {c.gap!r}"
        )
    candidate = make_candidate(profile)
    streamline = verify_streamline(spec, candidate, tol=args.tol)
    residuals = residual_yq(spec, candidate)
    print(
        f"is_nash={cert.is_nash} streamline={streamline.passed} "
        f"residual_yq={[repr(r) for r in residuals]}"
    )
    if not cert.is_nash:
        print(f"profile is not an equilibrium at tol {args.tol!r}")
        return EXIT_CERTIFICATION
    return EXIT_OK


def _cmd_oracle(args) -> int:
    spec = load_game(args.game)
    if not 0 <= args.player < spec.n_players:
        print(
            f"player {args.player} outside 0..{spec.n_players - 1}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    profile = load_profile(args.profile, spec.tree, spec.n_players)
    others = [t for j, t in enumerate(profile) if j != args.player]
    value, argmax = brute_force_best_response(
        spec, args.player, others, cap=args.cap
    )
    print(f"best value: {value!r}")
    print(f"argmax stop nodes: {sorted(argmax.stop_set)}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = gen_game(
        players=args.players,
        depth=args.depth,
        branching=args.branching,
        seed=args.seed,
        mode=args.mode,
        gap=args.gap,
        touch_frac=args.touch_frac,
    )
    save_game(spec, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_demo(args) -> int:
    spec = demo_constant(args.players, args.depth, args.branching)
    save_game(spec, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "demo": _cmd_demo,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return _COMMANDS[args.command](args)
    except GameParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationCapError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except AssumptionError as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GameStructureError, TreeError, GameError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # reads raise GameParseError instead
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    raise SystemExit(main())
