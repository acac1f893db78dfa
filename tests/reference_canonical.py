"""Reference canonicality for tests, written apart from
`rulesynth.grounding.canonical_choices`: a choice of constants is tested
against its definition, and the canonical substitutions of a rule are the
full enumeration (`rule_substitutions`) filtered by that test.

A pool constant is interchangeable when the ontology does not declare
it, and fixed when it does; a config pools each constant once.  A choice
is canonical when, for each sort, the interchangeable constants it uses,
listed at their first use, are the first ones of the sort's pool, in
pool order.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping, Sequence

from rulesynth.fol import Ontology, Rule, variable_sorts
from rulesynth.grounding import GroundingConfig, rule_substitutions


def is_canonical(
    choice: Sequence[str], sorts: Sequence[str], domain: Mapping[str, Sequence[str]],
    fixed: AbstractSet[str],
) -> bool:
    """Whether `choice`, position i a constant of sort `sorts[i]`, uses each
    sort's constants outside `fixed` in the order of its pool `domain[sort]`."""
    first_uses: dict[str, list[str]] = {}
    for constant, sort in zip(choice, sorts):
        if constant in fixed:
            continue
        uses = first_uses.setdefault(sort, [])
        if constant not in uses:
            uses.append(constant)
    for sort, uses in first_uses.items():
        free = [c for c in domain[sort] if c not in fixed]
        if uses != free[: len(uses)]:
            return False
    return True


def fixed_constants(config: GroundingConfig, onto: Ontology) -> set[str]:
    """The pool constants the ontology declares."""
    return {c for pool in config.domain_constants.values() for c in pool if c in onto.constants}


def canonical_substitutions(rule: Rule, config: GroundingConfig, onto: Ontology) -> list[dict[str, str]]:
    """`rule_substitutions` restricted to the canonical ones, in its order."""
    sorts_of = variable_sorts(rule, onto)
    sorts = [sorts_of[term.name] for term in rule.quantified_vars]
    fixed = fixed_constants(config, onto)
    return [
        s for s in rule_substitutions(rule, config, onto)
        if is_canonical(list(s.values()), sorts, config.domain_constants, fixed)
    ]
