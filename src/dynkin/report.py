"""End-to-end solve pipeline and run-report serialization.

A run report is a self-contained JSON document: together with the game
file it lets a third party rebuild the equilibrium profile and re-check
every certificate boolean.  All fields are deterministic except
``generated_at``, which is explicitly excluded from the determinism
contract.  The report is written as
:func:`~dynkin.gamefile.canonical_bytes` of its dict.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from typing import Optional

from .game import AssumptionError, GameSpec, validate_assumptions
from .gamefile import atomic_write_bytes, canonical_bytes, game_digest
from .snell import EQ_TOL
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
RESIDUAL_TOL = 1e-12  # default bound on each player's expected Y - Q tie gap


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
    :class:`~dynkin.game.AssumptionError` on invalid games, and
    :class:`ValueError` on a negative ``max_rounds``."""
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
    *,
    _digest: Optional[str] = None,
) -> dict:
    """The run report as a JSON-ready dict.  Order, touching-rule and
    audit violations and streamline checks are written field for field,
    so those dataclasses' fields are report keys (see docs/format.md).
    ``_digest`` is the input digest when the caller has computed it."""
    tree = spec.tree
    cand = result.candidate
    if _digest is None:
        _digest = game_digest(spec)
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
        "input_digest": _digest,
        "game": {
            "players": spec.n_players,
            "horizon": tree.horizon,
            "nodes": tree.n_nodes,
            "leaves": len(tree.leaves),
        },
        "assumptions": {
            "passed": result.assumptions.passed,
            "strict_tol": result.assumptions.strict_tol,
            "a3_violations": _records(result.assumptions.a3_violations),
            "a4_violations": _records(result.assumptions.a4_violations),
        },
        "solver": {
            "converged": cand.converged,
            "rounds_used": cand.rounds_used,
            "max_rounds": result.max_rounds,
            "steps": len(result.state.trace),
            "audit_violations": _records(result.audit_violations),
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
                "players": _records(result.streamline.players),
            },
            "residual_yq": {
                "values": list(result.residuals),
                "tol": result.residual_tol,
                "passed": result.residuals_ok,
            },
        },
        "trace_file": trace_file,
    }


def _records(items) -> list[dict]:
    """Each dataclass record's fields as a dict: scalars, so no deep copy."""
    return [dict(vars(item)) for item in items]


def write_report(report: dict, path: str) -> None:
    atomic_write_bytes(path, canonical_bytes(report))


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
