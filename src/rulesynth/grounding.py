"""Finite-domain grounding of quantified rules into propositional clauses.

Each rule h1 and ... and hm <- b1 and ... and bk is instantiated for every
substitution of its quantified variables by same-sort constants; each
instantiation contributes m clauses (not b1 or ... or not bk or hi).
Ground atoms are interned into a propositional variable table in first
occurrence order, so clause databases are fully deterministic.

Comparisons are opaque atoms by default.  In interval-axioms mode the
declared finite value domain of each numeric attribute is used to forbid
sign patterns no domain value can realize, e.g. speed(a) > 50 implies
speed(a) > 30 and excludes speed(a) < 30.

A grounding is one ClauseDB: the atom table, each grounded rule's own
clauses, the interval axioms, and the `sat.Index` of its distinct clauses,
built once.  Callers solve sub-theories of it (`rule_subset`) or add
assumed literals to it (`extend`) without grounding the rules again and
without copying it: `extend` returns only the clauses and atoms that an
attempt adds, for one solve of the same index.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Any, KeysView, Mapping, Sequence

from . import sat
from .fol import (
    Atom,
    Comparison,
    Literal,
    Ontology,
    Rule,
    Term,
    const,
    render_literal,
    variable_sorts,
)

COMPARISON_MODES = ("opaque", "interval-axioms")


class GroundingError(ValueError):
    """A quantified variable's sort has no constants, or bad config."""


@dataclass(frozen=True)
class GroundingConfig:
    domain_constants: Mapping[str, tuple[str, ...]]
    comparison_mode: str = "opaque"

    def __post_init__(self) -> None:
        if self.comparison_mode not in COMPARISON_MODES:
            raise GroundingError(f"bad comparison mode {self.comparison_mode!r}")
        for sort, constants in self.domain_constants.items():
            if not constants:
                raise GroundingError(f"sort {sort!r} declares no constants")

    @classmethod
    def default(cls, onto: Ontology, domain_size: int = 3,
                comparison_mode: str = "opaque") -> "GroundingConfig":
        """Per sort, domain_size fresh constants named <sort>1..<sort>N."""
        if domain_size < 1:
            raise GroundingError("domain size must be positive")
        domains = {
            sort: tuple(f"{sort}{i}" for i in range(1, domain_size + 1))
            for sort in onto.sorts()
        }
        if not domains:
            raise GroundingError("ontology declares no sorts to ground over")
        return cls(domains, comparison_mode)

    def to_json(self) -> dict[str, Any]:
        return {
            "domain_constants": {s: list(c) for s, c in sorted(self.domain_constants.items())},
            "comparison_mode": self.comparison_mode,
        }


@dataclass
class ClauseDB:
    """One grounding: interned ground atoms, each rule's clauses, the
    interval axioms and the index of their distinct clauses.

    `atoms` maps each atom name to its variable, in numbering order.
    `rule_clauses[i]` holds every clause of the i-th grounded rule's
    instances, in instantiation order, duplicates included.  `axioms` holds
    the interval axioms as generated.  `index`, built once by `ground`,
    holds the distinct clauses of the rules, assumptions and axioms in
    first-occurrence order.
    """

    atoms: dict[str, int] = field(default_factory=dict)
    comparisons: dict[str, Comparison] = field(default_factory=dict)
    rule_clauses: list[tuple[frozenset[int], ...]] = field(default_factory=list)
    axioms: list[frozenset[int]] = field(default_factory=list)
    index: sat.Index = field(init=False, repr=False)

    @property
    def clauses(self) -> list[frozenset[int]]:
        return self.index.clauses

    @property
    def atom_names(self) -> KeysView[str]:
        return self.atoms.keys()

    def intern(self, ground: Atom | Comparison) -> int:
        name = render_literal(Literal(False, ground))
        index = self.atoms.get(name)
        if index is None:
            index = self.atoms[name] = len(self.atoms) + 1
            if isinstance(ground, Comparison):
                self.comparisons[name] = ground
        return index


def render_model(atoms: Mapping[str, int], model: Mapping[int, bool]) -> tuple[str, ...]:
    """Model as signed ground atoms, sorted by atom name."""
    return tuple(name if model.get(atoms[name], True) else f"not {name}" for name in sorted(atoms))


def substitute(term: Term, substitution: Mapping[str, str]) -> Term:
    if term.kind == "variable":
        return const(substitution[term.name])
    return term


def ground_inner(
    lit: Literal, substitution: Mapping[str, str]
) -> Atom | Comparison:
    if isinstance(lit.inner, Atom):
        args = tuple(substitute(t, substitution) for t in lit.inner.args)
        return Atom(lit.inner.predicate, args)
    cmp = lit.inner
    return Comparison(cmp.attribute, substitute(cmp.subject, substitution), cmp.op, cmp.value)


def rule_substitutions(
    rule: Rule, config: GroundingConfig, onto: Ontology
) -> list[dict[str, str]]:
    """Every assignment of same-sort constants to the rule's variables, in
    declaration order (variables outermost, constants in declared order)."""
    sorts = variable_sorts(rule, onto)
    names = [t.name for t in rule.quantified_vars]
    pools = []
    for name in names:
        sort = sorts[name]
        constants = config.domain_constants.get(sort)
        if not constants:
            raise GroundingError(f"no constants declared for sort {sort!r} (variable {name})")
        pools.append(constants)
    return [dict(zip(names, choice)) for choice in product(*pools)]


def instantiate_rule(
    rule: Rule, substitution: Mapping[str, str], db: ClauseDB
) -> list[frozenset[int]]:
    """Clauses of one ground instance: one clause per head literal."""
    body_part = []
    for lit in rule.body:
        index = db.intern(ground_inner(lit, substitution))
        body_part.append(-index if not lit.negated else index)  # complement
    clauses = []
    for head_lit in rule.head:
        index = db.intern(ground_inner(head_lit, substitution))
        signed_head = -index if head_lit.negated else index
        clauses.append(frozenset(body_part + [signed_head]))
    return clauses


def _evaluate(cmp: Comparison, value: Any) -> bool:
    ops = {
        "<": value < cmp.value,
        "<=": value <= cmp.value,
        "=": value == cmp.value,
        ">=": value >= cmp.value,
        ">": value > cmp.value,
        "!=": value != cmp.value,
    }
    return ops[cmp.op]


def comparison_axioms(
    comparisons: Mapping[str, Comparison], atoms: Mapping[str, int], onto: Ontology
) -> list[frozenset[int]]:
    """Interval axioms: for comparisons over one attribute and subject,
    forbid every sign pattern that no declared domain value realizes.

    Each axiom mentions one comparison or a pair of them, so the axioms of
    a set of comparisons include those of every subset.
    """
    groups: dict[tuple[str, str], list[str]] = {}
    for name, cmp in comparisons.items():
        groups.setdefault((cmp.attribute, cmp.subject.name), []).append(name)
    axioms = []
    for (attribute, _subject), names in sorted(groups.items()):
        domain = onto.numeric_attributes[attribute].domain
        names.sort()
        for name in names:
            truths = {_evaluate(comparisons[name], v) for v in domain}
            if truths == {True}:
                axioms.append(frozenset([atoms[name]]))
            elif truths == {False}:
                axioms.append(frozenset([-atoms[name]]))
        for i, first in enumerate(names):
            for second in names[i + 1 :]:
                patterns = {
                    (_evaluate(comparisons[first], v), _evaluate(comparisons[second], v))
                    for v in domain
                }
                for a_sign in (True, False):
                    for b_sign in (True, False):
                        if (a_sign, b_sign) not in patterns:
                            axioms.append(frozenset([
                                -atoms[first] if a_sign else atoms[first],
                                -atoms[second] if b_sign else atoms[second],
                            ]))
    return axioms


def append_comparison_axioms(db: ClauseDB, onto: Ontology) -> None:
    """Set db's interval axioms: those over all of its comparison atoms."""
    db.axioms = comparison_axioms(db.comparisons, db.atoms, onto)


def _unit(lit: Literal, index: int) -> frozenset[int]:
    return frozenset([-index if lit.negated else index])


def ground(
    rules: Sequence[Rule],
    config: GroundingConfig,
    onto: Ontology,
    assumptions: Sequence[tuple[Literal, Mapping[str, str]]] = (),
) -> ClauseDB:
    """Ground a rule set (plus optional assumed unit literals) to a ClauseDB.

    Assumptions are ground literals asserted as unit clauses; they share
    the atom table, and interval axioms (when enabled) cover their
    comparison atoms too.
    """
    db = ClauseDB()
    for rule in rules:
        db.rule_clauses.append(tuple(
            clause
            for substitution in rule_substitutions(rule, config, onto)
            for clause in instantiate_rule(rule, substitution, db)
        ))
    units = [_unit(lit, db.intern(ground_inner(lit, s))) for lit, s in assumptions]
    if config.comparison_mode == "interval-axioms":
        append_comparison_axioms(db, onto)
    db.index = sat.Index(chain(*db.rule_clauses, units, db.axioms))
    return db


def extend(
    db: ClauseDB,
    assumptions: Sequence[tuple[Literal, Mapping[str, str]]],
    config: GroundingConfig,
    onto: Ontology,
) -> tuple[dict[str, int], list[frozenset[int]]]:
    """What assumed unit literals add to `db`, which is left unchanged.

    Returns the atoms `db` lacks, numbered after db's in first-occurrence
    order, and the distinct unit and interval-axiom clauses `db` lacks.
    When db is ground(rules, config, onto), db's atoms followed by the new
    ones are the atom numbering of ground(rules, config, onto, assumptions),
    and db's clauses plus the new ones are its clause set.
    """
    atoms: dict[str, int] = {}
    comparisons: dict[str, Comparison] = {}
    units = []
    for lit, substitution in assumptions:
        inner = ground_inner(lit, substitution)
        name = render_literal(Literal(False, inner))
        index = db.atoms.get(name) or atoms.get(name)
        if index is None:
            index = atoms[name] = len(db.atoms) + len(atoms) + 1
            if isinstance(inner, Comparison):
                comparisons[name] = inner
        units.append(_unit(lit, index))
    axioms = []
    if config.comparison_mode == "interval-axioms" and comparisons:
        axioms = comparison_axioms(
            ChainMap(comparisons, db.comparisons), ChainMap(atoms, db.atoms), onto
        )
    known = db.index.ids
    return atoms, [c for c in dict.fromkeys(chain(units, axioms)) if c not in known]


def rule_subset(
    db: ClauseDB, indexes: Sequence[int], config: GroundingConfig, onto: Ontology
) -> list[frozenset[int]]:
    """Clauses of grounding only the rules at `indexes` of db's rule list,
    in db's atom numbering (a renaming of that grounding's own).

    In interval-axioms mode the axioms cover exactly the comparison atoms
    those rules contain, as that grounding's do; axioms over db's other
    comparisons are left out, so the clause set is that grounding's.
    """
    clauses = [clause for i in indexes for clause in db.rule_clauses[i]]
    if config.comparison_mode == "interval-axioms":
        used = {abs(lit) for clause in clauses for lit in clause}
        comparisons = {
            name: cmp for name, cmp in db.comparisons.items() if db.atoms[name] in used
        }
        clauses += comparison_axioms(comparisons, db.atoms, onto)
    return clauses
