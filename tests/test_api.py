"""The package's public names: adding or removing one is deliberate."""

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
