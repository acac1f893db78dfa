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

One `verify()` call asks `ground` for the theory's grounding and then for
that of theory plus candidate, each a ClauseDB with its clause index;
every check is one solve of one of those two indexes.  The config keeps
every grounding it made in one map: `ground` grounds the theory once per
theory version and lays the candidate over that grounding, and a later
stage that asks `ground` for theory plus candidate finds the grounding
the consistency stage made.  Consistency solves the index of theory plus
candidate whole; each core-shrinking trial switches off the clauses its
kept rules and the candidate lack; entailment solves the theory's index
with the interval axioms it lacks and one negated candidate clause as
extra clauses; each invariant attempt adds the unit and axiom clauses
that its assumed literals bring (`extend`), without copying the ClauseDB.
The attempts' literals are rendered once per config
(`invariant_attempts`), so an attempt only looks their names up in the
ClauseDB's atom table.  Each of these clause sets, and its atom
numbering, equals what grounding that check's rules afresh would give,
with an attempt's literals as unit clauses, up to clause order, and the
DPLL answer depends only on those two.

Only an Unsafe verdict reports a model, its countermodel, so only the
invariant attempts ask `sat.solve` for one.  The consistency check, the
core-shrinking trials, the entailment checks and `theory_soundness`'s
satisfiability check ask `sat.satisfiable` for a yes or no, which a model
kept from an earlier call on the same index lineage often gives after a
clause-by-clause check, without search; its answer is always DPLL's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
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


def check_consistency(
    theory: Sequence[Rule], candidate: Rule, config: GroundingConfig, onto: Ontology
) -> ConsistencyResult:
    """SAT check of theory plus candidate; on UNSAT, shrink the theory to a
    minimal subset that still conflicts with the candidate.

    Theory plus candidate is grounded once; each shrinking trial switches
    off the clauses its kept rules and the candidate do not have."""
    db = ground([*theory, candidate], config, onto)
    if sat.satisfiable(db.index):
        return ConsistencyResult(True)
    candidate_index = len(theory)
    kept = list(range(len(theory)))
    for dropped in range(len(theory)):
        trial = [i for i in kept if theory[i] is not theory[dropped]]
        # a subset's clauses, axioms included, are all in the index
        off = db.index.ids.keys() - rule_subset(db, [*trial, candidate_index])
        if not sat.satisfiable(db.index, off=off):
            kept = trial
    return ConsistencyResult(False, tuple(theory[i].id for i in kept))


def check_entailment(theory_db: ClauseDB, db: ClauseDB) -> bool:
    """True when every grounding clause of the candidate is refuted by the
    theory (clause-by-clause negation + SAT), i.e. the candidate is redundant.

    `theory_db` grounds the theory's rules and `db` those rules and then
    the candidate, and the theory plus candidate is consistent.  Each
    check solves the theory's index with the interval axioms it lacks and
    the negated literals of one candidate clause as extra clauses."""
    theory = theory_db.index
    axioms = [axiom for axiom in db.axioms if axiom not in theory.ids]
    for clause in db.rule_clauses[-1]:
        negation = [[-lit] for lit in clause]
        if sat.satisfiable(theory, extra=[*axioms, *negation]):
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
            model = sat.solve(db.index, extra=clauses)
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

    def report(
        verdict: str,
        violations: tuple[str, ...] = (),
        consistency: ConsistencyResult | None = None,
        redundancy: str | None = None,
        invariants: InvariantResult | None = None,
    ) -> VerificationReport:
        return VerificationReport(
            candidate.id, render_rule(candidate), verdict, tuple(stages), violations,
            consistency, redundancy, invariants, config.to_json(),
        )

    violations = validate_schema(candidate, onto)
    if violations:
        return report("Malformed", tuple(v.message for v in violations))
    theory = store.theory_rules()
    theory_db = ground(theory, config, onto)
    stages.append("consistency")
    consistency = check_consistency(theory, candidate, config, onto)
    if not consistency.consistent:
        return report("Inconsistent", consistency=consistency)
    stages.append("redundancy")
    db = ground([*theory, candidate], config, onto)  # the one check_consistency made
    if check_entailment(theory_db, db):
        return report("Redundant", consistency=consistency, redundancy="entailed")
    stages.append("invariants")
    invariants = check_invariants(db, store.invariants, config, onto)
    verdict = "Accepted" if invariants.preserved else "Unsafe"
    return report(verdict, consistency=consistency, redundancy="novel", invariants=invariants)


def theory_soundness(
    store: TheoryStore, config: GroundingConfig, onto: Ontology
) -> tuple[bool, str]:
    """Promotion soundness: the committed theory is satisfiable and every
    declared invariant is entailed by it."""
    theory = store.theory_rules()
    db = ground(theory, config, onto)
    if not sat.satisfiable(db.index):
        return False, "verified theory is unsatisfiable"
    result = check_invariants(db, store.invariants, config, onto)
    if not result.preserved:
        return False, f"invariant {result.violated_id} not entailed by the theory"
    return True, "ok"
