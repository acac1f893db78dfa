"""Staged rule verification: schema, consistency, redundancy, invariants.

Stages run in a fixed order with fail-fast verdicts:

1. schema      -> Malformed     (ontology violations)
2. consistency -> Inconsistent  (grounded theory + candidate is UNSAT;
                                 a minimal conflict core is extracted by
                                 deletion-based shrinking)
3. redundancy  -> Redundant     (the theory entails the candidate)
4. invariants  -> Unsafe        (some safety invariant is no longer
                                 entailed; a countermodel is reported)
5. (all pass)  -> Accepted

The quantification semantics is finite-model: rules are grounded over the
configured constant domain, so every verdict is relative to the grounding
config recorded in the report.

Redundancy and invariants ask one question, whether a grounding entails a
rule, and `counterexample` answers both: it walks the attempts to refute
the rule (`invariant_attempts`) and returns the first one the grounding
does not refute.  Redundancy asks about the candidate over the theory's
grounding, invariants about each invariant over theory plus candidate's.
The walk tries only canonical substitutions: those that take, per sort,
the grounding's interchangeable constants (the ones no rule can name) in
pool order.  Every rule of a check names only declared constants, so
permuting one sort's interchangeable constants maps the grounding onto
itself and one substitution's attempts onto another's, refuted alike;
the first attempt the grounding does not refute is then canonical, and
the walk finds the same one, with the same model, as a walk over every
substitution would.

One `verify()` call asks `ground` for the theory's grounding and, at the
invariants stage, for that of theory plus candidate, each a ClauseDB with
its clause index; every check is one solver call on one of those two indexes.
The config keeps every grounding in one map: the theory is grounded once
per theory version, the consistency stage lays the candidate over it, and
the invariants stage finds that grounding.  Consistency solves it whole; each
core-shrinking trial switches off the clauses its kept rules and the
candidate lack; each attempt adds the unit and axiom clauses that its
assumed literals bring (`extend`), without copying the ClauseDB.  Each of
these clause sets, and its atom numbering, equals what grounding that
check's rules afresh would give, with an attempt's literals as unit
clauses, up to clause order, and the DPLL answer depends only on those two.

Every check is a yes-or-no question to `sat.satisfiable`: the consistency
check, the core-shrinking trials, `theory_soundness`'s satisfiability
check, and each attempt of the counterexample search.  It refutes by unit
propagation, or answers yes with a model kept from an earlier call on the
same index lineage after a clause-by-clause check, without search, and
its answer is always DPLL's.  Only an Unsafe verdict reports a model, its
countermodel, so `check_invariants` asks `sat.solve` once, for the
violated invariant's unrefuted attempt, which is known to have one.
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


def counterexample(
    db: ClauseDB, rule: Rule, config: GroundingConfig, onto: Ontology
) -> tuple[dict[str, int], list[frozenset[int]]] | None:
    """The first attempt to refute `rule` that db's index, with the clauses
    the attempt adds (`extend`), does not refute (`sat.satisfiable`): the
    atoms and the clauses it adds.  None when db's rules entail `rule`."""
    for attempt in invariant_attempts(rule, config, onto):
        atoms, clauses = extend(db, attempt, config, onto)
        if sat.satisfiable(db.index, extra=clauses):
            return atoms, clauses
    return None


def check_entailment(theory_db: ClauseDB, candidate: Rule, config: GroundingConfig, onto: Ontology) -> bool:
    """True when the theory grounded in `theory_db` entails the candidate, which is then redundant."""
    return counterexample(theory_db, candidate, config, onto) is None


@dataclass(frozen=True)
class InvariantResult:
    preserved: bool
    violated_id: str | None = None
    countermodel: tuple[str, ...] = ()


def check_invariants(
    db: ClauseDB, invariants: Sequence[Invariant], config: GroundingConfig, onto: Ontology
) -> InvariantResult:
    """Check that the rules grounded in `db` entail each invariant.

    The first invariant in store order that has a counterexample
    (`counterexample`) is reported with the model `sat.solve` gives of it,
    in which its body holds and one head literal fails, as its
    countermodel."""
    for invariant in invariants:
        found = counterexample(db, invariant.rule, config, onto)
        if found is not None:
            atoms, clauses = found
            model = sat.solve(db.index, extra=clauses)
            return InvariantResult(False, invariant.id, render_model({**db.atoms, **atoms}, model))
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
    if check_entailment(theory_db, candidate, config, onto):
        return report("Redundant", consistency=consistency, redundancy="entailed")
    stages.append("invariants")
    db = ground([*theory, candidate], config, onto)  # the one check_consistency made
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
