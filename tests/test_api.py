"""The package's public names: adding or removing one is deliberate.
And one module writes JSON."""

import ast
from pathlib import Path

import dynkin

PUBLIC_NAMES = [
    "AssumptionError",
    "AssumptionReport",
    "AuditViolation",
    "CertifiedRun",
    "EnumerationCapError",
    "EquilibriumCandidate",
    "GameError",
    "GameFileError",
    "GameParseError",
    "GameSpec",
    "GameStructureError",
    "NashCertificate",
    "ScenarioTree",
    "SolverState",
    "StoppingTime",
    "StreamlineCertificate",
    "TraceRecord",
    "TreeError",
    "audit_iteration",
    "best_response",
    "best_response_process",
    "brute_force_best_response",
    "build_report",
    "canonicalize",
    "count_stopping_times",
    "cutoff_obstacle",
    "default_round_bound",
    "demo_constant",
    "end_payoff",
    "enumerate_stopping_times",
    "gen_game",
    "horizon_stop",
    "init_state",
    "leq",
    "load_game",
    "load_profile",
    "make_candidate",
    "min_stop",
    "payoff",
    "residual_yq",
    "run",
    "save_game",
    "save_profile",
    "snell_envelope",
    "solve_and_certify",
    "step",
    "validate_assumptions",
    "verify_nash",
    "verify_streamline",
]


def test_public_names_are_pinned():
    assert sorted(dynkin.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(dynkin, name), name


JSON_WRITERS = {"dump", "dumps", "JSONEncoder", "encoder"}


def _json_writer_uses(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in JSON_WRITERS and (
            isinstance(node.value, ast.Name) and node.value.id == "json"
        ):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            yield from (a.name for a in node.names if a.name in JSON_WRITERS)
        elif isinstance(node, ast.ImportFrom) and node.module == "json.encoder":
            yield "json.encoder"


def test_only_gamefile_encodes_json():
    # The canonical format is written in one place: a second encoder
    # could drift from it.
    package = Path(dynkin.__file__).parent
    writers = {p.name for p in package.glob("*.py") if any(_json_writer_uses(p))}
    assert writers == {"gamefile.py"}
