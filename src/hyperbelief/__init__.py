"""Belief-function fusion on hyper-power sets.

The package models weighted rule-based systems three ways: a fallacious
Bayesian point-estimate analysis, Dempster-Shafer fusion on a refined
exclusive frame, and hybrid DSm fusion directly on the hyper-power set with
integrity constraints.
"""

from .analysis import (
    CLASSICAL_PRINCIPLES,
    BayesEstimates,
    Formula,
    ModusTollensPosteriors,
    indifference_estimates,
    modus_tollens_posteriors,
    parse_formula,
    pearl_flying_bound,
    tautology_check,
)
from .belief import (
    BBA,
    CombinationReport,
    TotalConflictError,
    belief,
    conjunctive_combine,
    dempster_combine,
    dsm_hybrid_combine,
    plausibility,
)
from .lattice import (
    AtomFrame,
    EnumerationLimitError,
    Frame,
    Model,
    Proposition,
    canonicalize,
    conjoin,
    disjoin,
    enumerate_hyper_power_set,
    iter_hyper_power_set,
    leq,
    proposition_from_names,
    reduce_under_model,
    refine_to_atoms,
    total_ignorance,
)
from .rulebase import (
    ENGINES,
    AtomMasses,
    DstAxes,
    EngineResult,
    FusionReport,
    QueryResult,
    Scenario,
    WeightedRule,
    observation_to_bba,
    rule_to_conditional_bba,
    run_scenario,
)

__version__ = "0.1.0"

# the names the README's Library section and the scripts use
__all__ = [
    "AtomFrame",
    "DstAxes",
    "Frame",
    "Model",
    "Proposition",
    "Scenario",
    "WeightedRule",
    "__version__",
    "belief",
    "canonicalize",
    "dsm_hybrid_combine",
    "iter_hyper_power_set",
    "plausibility",
    "proposition_from_names",
    "rule_to_conditional_bba",
    "run_scenario",
]
