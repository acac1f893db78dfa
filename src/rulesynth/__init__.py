"""rulesynth: goal-driven causal rule synthesis and formal verification.

The pipeline decomposes a natural-language goal into candidate causes,
consolidates semantically equal causes, searches the minimal necessary
and minimal sufficient cause sets against an achievement oracle, translates
causes into a constrained first-order rule language, and admits rules into
the theory store only after staged verification (schema, consistency,
redundancy, safety invariants) over finite-domain groundings.
"""

from .analysis import (
    AnalysisReport,
    CauseSetFamily,
    analyze,
    brute_force_families,
    minimal_necessary_search,
    minimal_sufficient_search,
    minimal_transversals,
)
from .consolidate import MergePartition, consolidate
from .fol import (
    Atom,
    Comparison,
    Literal,
    Ontology,
    Rule,
    RuleSyntaxError,
    SchemaError,
    Term,
    load_ontology,
    parse_rule,
    render_rule,
    validate_schema,
)
from .grounding import ClauseDB, GroundingConfig, ground
from .oracle import (
    DeterministicOracle,
    DeterministicOracleSpec,
    MalformedResponse,
    Oracle,
    OracleUnavailable,
    TranscriptOracle,
    UntranslatableCause,
)
from .sat import solve
from .store import (
    Cause,
    Goal,
    Invariant,
    Principle,
    TheoryStore,
    commit_verified_rule,
    load_store,
    save_store,
)
from .verify import (
    VerificationReport,
    check_consistency,
    check_entailment,
    check_invariants,
    theory_soundness,
)

__version__ = "0.1.0"
