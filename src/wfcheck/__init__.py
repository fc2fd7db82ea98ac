"""Simulator and consistency checker for nested-observer measurement scenarios.

The package is organized in four layers:

- :mod:`wfcheck.qcore`: state-vector kernel (states, unitaries,
  projective measurement, the partial trace of a pure state) that the
  engine runs on one state factor at a time.
- :mod:`wfcheck.scenario`: a small line-oriented language describing
  systems, agents with memory records, observers, and a timeline of
  preparation, entangling interaction, measurement, and record readout.
- :mod:`wfcheck.interpret`: executes a scenario under one of three rule
  sets: orthodox collapse, relative facts, or relative facts plus
  deterministic cross-perspective record readout.
- :mod:`wfcheck.checks`: the consistency analyses built on top, each
  producing a structured report with a verdict.

``wfcheck.cli`` exposes the same functionality as a command-line tool.
"""

__version__ = "0.1.0"

from .qcore import (
    BasisSpec,
    DensityMatrix,
    SpaceLayout,
    StateVector,
    Unitary,
    ZeroProbabilityError,
    born_distribution,
    build_premeasurement,
    partial_trace,
    product_basis,
    project,
)
from .scenario import (
    BUNDLED_SCENARIOS,
    Diagnostic,
    Scenario,
    ScenarioError,
    bundled_scenario_text,
    dumps,
    parse,
    record_key,
    validate,
)
from .interpret import (
    ConcurrencyError,
    LedgerEntry,
    PerspectiveState,
    PinRecord,
    RelativeFactLedger,
    RuleSet,
    RunResult,
    exact_joint,
    outcome_keys,
    perspective,
    predicted_distribution,
    run,
    sample_tallies,
)
from .checks import (
    AssignmentSearchResult,
    ContradictionReport,
    Finding,
    ParityConstraint,
    cpl_probability_check,
    epr_correlation_check,
    ghz_check,
    parity_search,
    substituted_parity_constraints,
)

__all__ = [
    "__version__",
    "BUNDLED_SCENARIOS",
    "bundled_scenario_text",
    # qcore
    "BasisSpec",
    "DensityMatrix",
    "SpaceLayout",
    "StateVector",
    "Unitary",
    "ZeroProbabilityError",
    "born_distribution",
    "build_premeasurement",
    "partial_trace",
    "product_basis",
    "project",
    # scenario
    "Diagnostic",
    "Scenario",
    "ScenarioError",
    "dumps",
    "parse",
    "record_key",
    "validate",
    # interpret
    "ConcurrencyError",
    "LedgerEntry",
    "PerspectiveState",
    "PinRecord",
    "RelativeFactLedger",
    "RuleSet",
    "RunResult",
    "exact_joint",
    "outcome_keys",
    "perspective",
    "predicted_distribution",
    "run",
    "sample_tallies",
    # checks
    "AssignmentSearchResult",
    "ContradictionReport",
    "Finding",
    "ParityConstraint",
    "cpl_probability_check",
    "epr_correlation_check",
    "ghz_check",
    "parity_search",
    "substituted_parity_constraints",
]
