"""Solver-free validity check of an Unsafe verdict's countermodel over the
full grounding config.

A countermodel must assign each atom of theory plus candidate grounded
over the config and each atom of the violated invariant's attempt, and no
other atom; it must satisfy every clause of that grounding, interval
axioms included; and it must falsify an instance of the invariant: under
one substitution and one head literal, the body holds and the head
literal fails, and these literals are the attempt whose atoms it assigns.
Each clause is evaluated directly on the signed atoms; no solver runs.
"""

from __future__ import annotations

from typing import Sequence

from rulesynth.fol import Ontology, Rule
from rulesynth.grounding import GroundingConfig, ground_literal, rule_substitutions

from reference_grounding import reference_ground


def countermodel_problem(
    countermodel: Sequence[str], rules: Sequence[Rule], invariant: Rule,
    config: GroundingConfig, onto: Ontology,
) -> str | None:
    """None when `countermodel` is valid for `rules` and `invariant` over
    `config`, else what is wrong with it."""
    model = {}
    for signed in countermodel:
        negated = signed.startswith("not ")
        model[signed[4:] if negated else signed] = not negated
    if len(model) != len(countermodel):
        return "an atom is assigned twice"
    db = reference_ground(rules, config, onto)
    missing = db.atoms.keys() - model.keys()
    if missing:
        return f"unassigned atoms of the grounding: {sorted(missing)[:3]}"
    names = list(db.atoms)
    for clause in db.clauses:
        if not any(model[names[abs(lit) - 1]] == (lit > 0) for lit in clause):
            return f"clause {sorted(names[abs(lit) - 1] for lit in clause)} fails"
    others = model.keys() - db.atoms.keys()
    for substitution in rule_substitutions(invariant, config, onto):
        body = [ground_literal(lit, substitution) for lit in invariant.body]
        for head_lit in invariant.head:
            attempt = [*body, ground_literal(head_lit.complement(), substitution)]
            if (all(model.get(name) == (not negated) for name, negated, _ in attempt)
                    and others <= {name for name, _, _ in attempt}):
                return None
    return "no attempt on the invariant holds in it with exactly its atoms besides the grounding's"
