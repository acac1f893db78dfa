"""Reference grounding for tests: every instance of every rule interned into
one fresh ClauseDB in turn, then each assumed literal as a unit clause,
with no grounding kept or laid over another.

Its atom numbering, rule clauses, interval axioms and index are what
`rulesynth.grounding.ground` must give for the rules, and, with
assumptions, what `ground` followed by `extend` must add up to.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, Sequence

from rulesynth import sat
from rulesynth.fol import Literal, Ontology, Rule
from rulesynth.grounding import (
    ClauseDB,
    GroundingConfig,
    append_comparison_axioms,
    instantiate_rule,
    rule_substitutions,
)


def reference_ground(
    rules: Sequence[Rule],
    config: GroundingConfig,
    onto: Ontology,
    assumptions: Sequence[tuple[Literal, Mapping[str, str]]] = (),
) -> ClauseDB:
    """The rules grounded in turn, each assumed (literal, substitution)
    pair interned after them as a unit clause, and the interval axioms
    over every comparison when the config's mode asks for them."""
    db = ClauseDB()
    for rule in rules:
        db.rule_clauses.append(tuple(
            clause
            for substitution in rule_substitutions(rule, config, onto)
            for clause in instantiate_rule(rule, substitution, db)
        ))
    units = [
        frozenset([-db.intern(lit.inner, s) if lit.negated else db.intern(lit.inner, s)])
        for lit, s in assumptions
    ]
    if config.comparison_mode == "interval-axioms":
        append_comparison_axioms(db, onto)
    db.index = sat.Index(chain(*db.rule_clauses, units, db.axioms))
    return db
