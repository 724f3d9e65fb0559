"""End-to-end solve pipeline and run-report serialization.

A run report is a self-contained JSON document: together with the game
file it lets a third party rebuild the equilibrium profile and re-check
every certificate boolean.  All fields are deterministic except
``generated_at``, which is explicitly excluded from the determinism
contract.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import time
from dataclasses import asdict, dataclass
from typing import Optional

from .game import AssumptionError, GameSpec, validate_assumptions
from .gamefile import atomic_write_bytes, canonical_bytes, game_digest
from .snell import EQ_TOL, RESIDUAL_TOL
from .solver import (
    AuditViolation,
    EquilibriumCandidate,
    SolverState,
    audit_iteration,
    default_round_bound,
    run,
)
from .verify import (
    NashCertificate,
    StreamlineCertificate,
    residual_yq,
    verify_nash,
    verify_streamline,
)

REPORT_FORMAT = "dynkin_run_report_v1"


@dataclass(frozen=True)
class CertifiedRun:
    candidate: EquilibriumCandidate
    state: SolverState
    assumptions: object
    nash: NashCertificate
    streamline: StreamlineCertificate
    residuals: tuple[float, ...]
    audit_violations: tuple[AuditViolation, ...]
    residual_tol: float
    max_rounds: int

    @property
    def residuals_ok(self) -> bool:
        return all(abs(r) <= self.residual_tol for r in self.residuals)

    @property
    def certified(self) -> bool:
        return (
            self.nash.is_nash
            and self.streamline.passed
            and self.residuals_ok
            and not self.audit_violations
        )


def solve_and_certify(
    spec: GameSpec,
    max_rounds: Optional[int] = None,
    tol: float = EQ_TOL,
    residual_tol: float = RESIDUAL_TOL,
    strict_tol: float = 0.0,
) -> CertifiedRun:
    """Validate assumptions, run the iteration, audit every recorded
    update, and certify the candidate.  Raises
    :class:`~dynkin.game.AssumptionError` on invalid games."""
    assumptions = validate_assumptions(spec, strict_tol=strict_tol)
    if not assumptions.passed:
        raise AssumptionError(assumptions)
    candidate, state = run(spec, max_rounds=max_rounds)
    violations = tuple(audit_iteration(state, tol=tol))
    nash = verify_nash(spec, candidate.T_star, tol=tol)
    streamline = verify_streamline(spec, candidate, tol=tol)
    residuals = residual_yq(spec, candidate)
    return CertifiedRun(
        candidate=candidate,
        state=state,
        assumptions=assumptions,
        nash=nash,
        streamline=streamline,
        residuals=residuals,
        audit_violations=violations,
        residual_tol=residual_tol,
        max_rounds=(
            max_rounds if max_rounds is not None else default_round_bound(spec)
        ),
    )


def build_report(
    spec: GameSpec,
    result: CertifiedRun,
    trace_file: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> dict:
    """The run report as a JSON-ready dict.  Order, touching-rule and
    audit violations and streamline checks are written field for field,
    so those dataclasses' fields are report keys (see docs/format.md)."""
    tree = spec.tree
    cand = result.candidate
    if timestamp is None:
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    players = []
    for cert in result.nash.players:
        i = cert.player
        tau = cand.T_star[i]
        players.append(
            {
                "player": i,
                "stop_nodes": sorted(tau.stop_set),
                "leaf_depths": list(tau.depth_by_leaf),
                "payoff": cert.equilibrium_payoff,
                "best_response_value": cert.best_response_value,
                "nash_gap": cert.gap,
            }
        )
    return {
        "format": REPORT_FORMAT,
        "generated_at": timestamp,
        "input_digest": game_digest(spec),
        "game": {
            "players": spec.n_players,
            "horizon": tree.horizon,
            "nodes": tree.n_nodes,
            "leaves": len(tree.leaves),
        },
        "assumptions": {
            "passed": result.assumptions.passed,
            "strict_tol": result.assumptions.strict_tol,
            "a3_violations": [
                asdict(v) for v in result.assumptions.a3_violations
            ],
            "a4_violations": [
                asdict(v) for v in result.assumptions.a4_violations
            ],
        },
        "solver": {
            "converged": cand.converged,
            "rounds_used": cand.rounds_used,
            "max_rounds": result.max_rounds,
            "steps": len(result.state.trace),
            "audit_violations": [asdict(v) for v in result.audit_violations],
        },
        "equilibrium": {
            "players": players,
            "joint_min_stop_nodes": sorted(cand.R_star.stop_set),
        },
        "certificates": {
            "nash": {
                "is_nash": result.nash.is_nash,
                "tol": result.nash.tol,
                "max_gap": result.nash.max_gap,
            },
            "streamline": {
                "passed": result.streamline.passed,
                "tol": result.streamline.tol,
                "players": [asdict(c) for c in result.streamline.players],
            },
            "residual_yq": {
                "values": list(result.residuals),
                "tol": result.residual_tol,
                "passed": result.residuals_ok,
            },
        },
        "trace_file": trace_file,
    }


def write_report(report: dict, path: str) -> None:
    atomic_write_bytes(path, _report_bytes(report))


def _report_bytes(report: dict) -> bytes:
    """``canonical_bytes(report)``, with the long int arrays (each
    player's ``leaf_depths`` and ``stop_nodes``, and
    ``joint_min_stop_nodes``) through the C encoder, which ``indent``
    rules out.  Each array stands in the encoded rest of the report as a
    marker string, drawn afresh while the rest holds it anywhere else,
    and is spliced in at the marker line's indent, split at the C
    encoder's ", " separators, which never occur inside an int."""
    eq = report["equilibrium"]
    arrays = [eq["joint_min_stop_nodes"]]
    for p in eq["players"]:
        arrays += [p["leaf_depths"], p["stop_nodes"]]
    for salt in itertools.count():
        marks = [f"\0{salt}:{k}" for k in range(len(arrays))]
        players = [
            dict(p, leaf_depths=marks[2 * k + 1], stop_nodes=marks[2 * k + 2])
            for k, p in enumerate(eq["players"])
        ]
        rest = dict(report, equilibrium=dict(
            eq, joint_min_stop_nodes=marks[0], players=players
        ))
        text = canonical_bytes(rest).decode("utf-8")
        quoted = [json.dumps(m) for m in marks]
        if all(text.count(q) == 1 for q in quoted):
            break
    pieces = []
    end = 0
    for at, q, values in sorted(
        (text.index(q), q, values) for q, values in zip(quoted, arrays)
    ):
        line = text[text.rindex("\n", 0, at) + 1:at]
        pad = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        items = json.dumps(values)[1:-1].replace(", ", "," + pad + "  ")
        pieces += [text[end:at], f"[{pad}  {items}{pad}]" if values else "[]"]
        end = at + len(q)
    pieces.append(text[end:])
    return "".join(pieces).encode("utf-8")


def trace_table(state: SolverState, tree) -> tuple[list[str], list[list]]:
    """Header and rows of the iteration trace: step index, player,
    root envelope value, then per-leaf stopping depths of the cutoff,
    the earliest optimal stop, and the new stopping time."""
    leaves = tree.leaves
    header = (
        ["n", "player", "E_W0"]
        + [f"theta_{v}" for v in leaves]
        + [f"mu_{v}" for v in leaves]
        + [f"tau_{v}" for v in leaves]
    )
    rows = []
    for rec in state.trace:
        rows.append(
            [rec.n, rec.player, repr(rec.root_value)]
            + list(rec.theta.depth_by_leaf)
            + list(rec.mu.depth_by_leaf)
            + list(rec.tau.depth_by_leaf)
        )
    return header, rows


def write_trace(state: SolverState, tree, path: str) -> None:
    header, rows = trace_table(state, tree)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))
