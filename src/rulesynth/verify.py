"""Staged rule verification: schema, consistency, redundancy, invariants.

Stages run in a fixed order with fail-fast verdicts:

1. schema      -> Malformed     (ontology violations)
2. consistency -> Inconsistent  (grounded theory + candidate is UNSAT;
                                 a minimal conflict core is extracted by
                                 deletion-based shrinking)
3. redundancy  -> Redundant     (theory entails every candidate clause)
4. invariants  -> Unsafe        (some safety invariant is no longer
                                 entailed; a countermodel is reported)
5. (all pass)  -> Accepted

The quantification semantics is finite-model: rules are grounded over the
configured constant domain, so every verdict is relative to the grounding
config recorded in the report.

One `verify()` call grounds theory plus candidate once, in the consistency
stage, into one ClauseDB with its clause index, and passes that ClauseDB
to the later checks; every check is one solve of that index or of the
theory's.  `ground` lays the candidate over the grounding of the theory
that the config kept from the previous candidate, so the theory is not
grounded or indexed again.  Consistency solves the index whole; each
core-shrinking trial switches off the clauses its kept rules and the
candidate lack; entailment solves the theory's index with the interval
axioms it lacks and one negated candidate clause as extra clauses; each
invariant attempt adds the unit and axiom clauses that its assumed
literals bring (`extend`), without copying the ClauseDB.  The attempts'
literals are rendered once per config (`invariant_attempts`), so an
attempt only looks their names up in the ClauseDB's atom table.  Each of
these clause sets, and its atom numbering, equals what grounding that
check's rules (and assumptions) afresh would give, up to clause order,
and the DPLL answer depends only on those two.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from . import sat
from .fol import Ontology, Rule, render_rule, validate_schema
# append_comparison_axioms, instantiate_rule and rule_substitutions are not
# called here: they are imported only so that the names in bench/tracing.py's
# ENTRY_POINTS resolve.  Their spans record nothing, because grounding calls
# its own module's bindings.
from .grounding import (
    ClauseDB,
    GroundingConfig,
    append_comparison_axioms,
    extend,
    ground,
    instantiate_rule,
    invariant_attempts,
    render_model,
    rule_subset,
    rule_substitutions,
)
from .store import Invariant, TheoryStore

VERDICTS = ("Accepted", "Malformed", "Inconsistent", "Redundant", "Unsafe")


@dataclass(frozen=True)
class ConsistencyResult:
    consistent: bool
    core: tuple[str, ...] = ()  # theory rule ids; empty core means the
    # candidate is self-contradictory under the grounding
    db: ClauseDB | None = field(default=None, compare=False, repr=False)
    # the grounding of theory plus candidate, for the later stages


def check_consistency(
    theory: Sequence[Rule], candidate: Rule, config: GroundingConfig, onto: Ontology
) -> ConsistencyResult:
    """SAT check of theory plus candidate; on UNSAT, shrink the theory to a
    minimal subset that still conflicts with the candidate.

    Theory plus candidate is grounded once; each shrinking trial switches
    off the clauses its kept rules and the candidate do not have."""
    db = ground([*theory, candidate], config, onto)
    if sat.solve(db.index, len(db.atoms)) is not None:
        return ConsistencyResult(True, db=db)
    candidate_index = len(theory)
    kept = list(range(len(theory)))
    for dropped in range(len(theory)):
        trial = [i for i in kept if theory[i] is not theory[dropped]]
        # a subset's clauses, axioms included, are all in the index
        off = db.index.ids.keys() - rule_subset(db, [*trial, candidate_index])
        if sat.solve(db.index, len(db.atoms), off=off) is None:
            kept = trial
    return ConsistencyResult(False, tuple(theory[i].id for i in kept), db)


def check_entailment(db: ClauseDB) -> bool:
    """True when every grounding clause of the candidate is refuted by the
    theory (clause-by-clause negation + SAT), i.e. the candidate is redundant.

    `db` grounds the theory's rules and then the candidate, and the theory
    plus candidate is consistent.  Each check solves the index of the
    theory's grounding, which `db` was laid over, with the interval axioms
    it lacks and the negated literals of one candidate clause as extra
    clauses."""
    theory = db.prefix_index
    axioms = [axiom for axiom in db.axioms if axiom not in theory.ids]
    for clause in db.rule_clauses[-1]:
        negation = [[-lit] for lit in clause]
        if sat.solve(theory, len(db.atoms), extra=[*axioms, *negation]) is not None:
            return False
    return True


@dataclass(frozen=True)
class InvariantResult:
    preserved: bool
    violated_id: str | None = None
    countermodel: tuple[str, ...] = ()


def check_invariants(
    db: ClauseDB, invariants: Sequence[Invariant], config: GroundingConfig, onto: Ontology
) -> InvariantResult:
    """Check that the rules grounded in `db` entail each invariant.

    Invariant I is violated when some model of the grounded theory
    satisfies I's body while falsifying one of its head literals, for some
    substitution.  Conjunctive heads are negated one literal per SAT
    attempt.  The first violation (store order, then substitution order,
    then head-literal order) is reported with its countermodel.  The
    attempts' ground literals are rendered once per config
    (`invariant_attempts`); each attempt numbers them in db's atom table
    and solves db's index with the clauses they add (`extend`).
    """
    for invariant in invariants:
        for attempt in invariant_attempts(invariant.rule, config, onto):
            atoms, clauses = extend(db, attempt, config, onto)
            model = sat.solve(db.index, len(db.atoms) + len(atoms), extra=clauses)
            if model is not None:
                countermodel = render_model({**db.atoms, **atoms}, model)
                return InvariantResult(False, invariant.id, countermodel)
    return InvariantResult(True)


@dataclass(frozen=True)
class VerificationReport:
    rule_id: str
    rule_text: str
    verdict: str
    stages_executed: tuple[str, ...]
    schema_violations: tuple[str, ...]
    consistency: ConsistencyResult | None
    redundancy: str | None  # "novel" | "entailed"
    invariants: InvariantResult | None
    grounding: dict[str, Any]
    id: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            digest = hashlib.sha256(
                json.dumps(self._payload(), sort_keys=True).encode("utf-8")
            ).hexdigest()
            object.__setattr__(self, "id", "vrep" + digest[:12])

    def _payload(self) -> dict[str, Any]:
        return {
            "kind": "verification",
            "rule_id": self.rule_id,
            "rule_text": self.rule_text,
            "verdict": self.verdict,
            "stages_executed": list(self.stages_executed),
            "schema_violations": list(self.schema_violations),
            "consistency": None
            if self.consistency is None
            else {"consistent": self.consistency.consistent, "core": list(self.consistency.core)},
            "redundancy": self.redundancy,
            "invariants": None
            if self.invariants is None
            else {
                "preserved": self.invariants.preserved,
                "violated_id": self.invariants.violated_id,
                "countermodel": list(self.invariants.countermodel),
            },
            "grounding": self.grounding,
        }

    def to_json_dict(self) -> dict[str, Any]:
        return {"id": self.id, **self._payload()}


def verify(
    candidate: Rule, store: TheoryStore, config: GroundingConfig, onto: Ontology
) -> VerificationReport:
    """Run the staged pipeline for one candidate against the store's theory."""
    stages = ["schema"]
    violations = validate_schema(candidate, onto)
    grounding_used = config.to_json()
    if violations:
        return VerificationReport(
            candidate.id, render_rule(candidate), "Malformed", tuple(stages),
            tuple(v.message for v in violations), None, None, None, grounding_used,
        )
    theory = store.theory_rules()
    stages.append("consistency")
    consistency = check_consistency(theory, candidate, config, onto)
    db = consistency.db
    consistency = replace(consistency, db=None)  # the report keeps no grounding
    if not consistency.consistent:
        return VerificationReport(
            candidate.id, render_rule(candidate), "Inconsistent", tuple(stages),
            (), consistency, None, None, grounding_used,
        )
    stages.append("redundancy")
    if check_entailment(db):
        return VerificationReport(
            candidate.id, render_rule(candidate), "Redundant", tuple(stages),
            (), consistency, "entailed", None, grounding_used,
        )
    stages.append("invariants")
    invariant_result = check_invariants(db, store.invariants, config, onto)
    if not invariant_result.preserved:
        return VerificationReport(
            candidate.id, render_rule(candidate), "Unsafe", tuple(stages),
            (), consistency, "novel", invariant_result, grounding_used,
        )
    return VerificationReport(
        candidate.id, render_rule(candidate), "Accepted", tuple(stages),
        (), consistency, "novel", invariant_result, grounding_used,
    )


def theory_soundness(
    store: TheoryStore, config: GroundingConfig, onto: Ontology
) -> tuple[bool, str]:
    """Promotion soundness: the committed theory is satisfiable and every
    declared invariant is entailed by it."""
    theory = store.theory_rules()
    db = ground(theory, config, onto)
    if sat.solve(db.index, len(db.atoms)) is None:
        return False, "verified theory is unsatisfiable"
    result = check_invariants(db, store.invariants, config, onto)
    if not result.preserved:
        return False, f"invariant {result.violated_id} not entailed by the theory"
    return True, "ok"
