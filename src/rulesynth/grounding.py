"""Finite-domain grounding of quantified rules into propositional clauses.

Each rule h1 and ... and hm <- b1 and ... and bk is instantiated for every
substitution of its quantified variables by same-sort constants; each
instantiation contributes m clauses (not b1 or ... or not bk or hi).
A ground atom's name is the rule's atom or comparison rendered under the
substitution (`fol.render_inner`); names are numbered in first occurrence
order, so clause databases are fully deterministic.

Comparisons are opaque atoms by default.  In interval-axioms mode the
declared finite value domain of each numeric attribute is used to forbid
sign patterns no domain value can realize, e.g. speed(a) > 50 implies
speed(a) > 30 and excludes speed(a) < 30.

A grounding is one ClauseDB: the atom table, each grounded rule's own
clauses, the interval axioms, and the `sat.Index` of its distinct clauses.
Callers solve sub-theories of it (`rule_subset`, which selects db's axioms
instead of generating them again) or add assumed ground literals to it
(`extend`, which looks their names up in db's atom table and numbers the
ones it lacks after db's) without grounding the rules again and without
copying it.

`ground` lays the last rule over a grounding of the rules before it: it
copies that grounding's atom table, grounds the last rule into the copy
and extends that grounding's index by the new clauses (`Index.extended`),
then adds the assumptions and the interval axioms.  A config keeps the
base and the result of its last call (`GroundingConfig.groundings`).  In a
verification batch the theory is either unchanged since the last
candidate, which was rejected, so the base is the kept base, or it has
grown by that candidate, so the base is the kept result; only a first
call, or a theory changed otherwise, grounds the base afresh, and then
takes its interval axioms from the result's.  The atom numbering, the rule clauses and the order of the distinct clauses are
those of grounding every rule in turn.

A config memoizes the rules it grounds (`GroundingConfig.rule_groundings`).
The first time it grounds a rule, the rule is interned straight into the
ClauseDB, so a `ground` call with nothing to reuse does the work it always
did.  The second time, the rule is grounded alone on a private ClauseDB
and memoized: its atom names in first-occurrence order, their numbers, its
clauses in those numbers and its comparisons.  From then on `ground`
renames that entry into the ClauseDB's numbering, numbering each name the
ClauseDB lacks next, which is the numbering interning every instance in
turn gives, and keeps the renamed entry, so a rule grounded where it was
grounded last time reuses its clauses as they are.

A config also keeps, per invariant, the ground literals each attempt to
refute it assumes (`invariant_attempts`, memoized in
`GroundingConfig.attempts` under the same key): per substitution and head
literal, the body literals and the head literal's complement, each as its
atom's name, its sign and its ground comparison.  They are rendered once
per config, not once per candidate.
"""

from __future__ import annotations

import operator
from collections import ChainMap
from dataclasses import dataclass, field, replace
from itertools import chain, combinations, product
from typing import Any, KeysView, Mapping, MutableMapping, Sequence

from . import sat
from .fol import (
    Atom,
    Comparison,
    Literal,
    Ontology,
    Rule,
    const,
    render_inner,
    variable_sorts,
)

COMPARISON_MODES = ("opaque", "interval-axioms")

# a ground literal: its atom's name, whether it is negated, and its ground
# comparison (None for an atom); an attempt is the ground literals it assumes
GroundLiteral = tuple[str, bool, Comparison | None]
Attempt = tuple[GroundLiteral, ...]


class GroundingError(ValueError):
    """A quantified variable's sort has no constants, or bad config."""


@dataclass(frozen=True)
class GroundingConfig:
    """The constants of each sort and the comparison mode.

    `rule_groundings` is `ground`'s memo, keyed by a rule's content (not
    its id) and the sort of each quantified variable, which the ontology of
    each call decides; within one config a sort fixes the constants.  A key
    maps to None once the config has grounded the rule, and to the rule's
    grounding once it has grounded it again.  `attempts` is
    `invariant_attempts`' memo, under the same key: an invariant's attempts
    as ground literals.  `groundings` holds the two ClauseDBs of the last
    `ground` call, with their rules and ontology: the grounding of every
    rule but the last, and the whole grounding when the call assumed
    nothing.  No cache is part of equality, repr or `to_json`, and they
    live as long as the config, which is one verification batch: a
    `dataclasses.replace`d config starts empty.
    """

    domain_constants: Mapping[str, tuple[str, ...]]
    comparison_mode: str = "opaque"
    rule_groundings: dict[tuple[Rule, tuple[str, ...]], tuple | None] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    attempts: dict[tuple[Rule, tuple[str, ...]], tuple[Attempt, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    groundings: list[tuple[tuple[Rule, ...], Ontology, ClauseDB]] = field(
        default_factory=list, init=False, compare=False, repr=False
    )

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
    the interval axioms as generated.  `rules_index` holds the distinct
    clauses of the rules in first-occurrence order, and `index`, built by
    extending it, those of the rules, assumptions and axioms.
    `prefix_index` is the index of the grounding of every rule but the
    last, which `ground` laid this one over (None for no rules).
    """

    atoms: MutableMapping[str, int] = field(default_factory=dict)
    comparisons: MutableMapping[str, Comparison] = field(default_factory=dict)
    rule_clauses: list[tuple[frozenset[int], ...]] = field(default_factory=list)
    axioms: list[frozenset[int]] = field(default_factory=list)
    rules_index: sat.Index = field(init=False, repr=False)
    index: sat.Index = field(init=False, repr=False)
    prefix_index: sat.Index | None = field(default=None, init=False, repr=False)

    @property
    def clauses(self) -> list[frozenset[int]]:
        return self.index.clauses

    @property
    def atom_names(self) -> KeysView[str]:
        return self.atoms.keys()

    def intern(self, inner: Atom | Comparison, substitution: Mapping[str, str]) -> int:
        """The variable of `inner` under `substitution`, numbered next when new."""
        name = render_inner(inner, substitution)
        index = self.atoms.get(name)
        if index is None:
            index = self.atoms[name] = len(self.atoms) + 1
            if isinstance(inner, Comparison):
                self.comparisons[name] = _ground_comparison(inner, substitution)
        return index


def _ground_comparison(cmp: Comparison, substitution: Mapping[str, str]) -> Comparison:
    """`cmp` with its subject the constant `substitution` gives it."""
    subject = cmp.subject
    if subject.kind == "variable":
        subject = const(substitution[subject.name])
    return replace(cmp, subject=subject)


def render_model(atoms: Mapping[str, int], model: Mapping[int, bool]) -> tuple[str, ...]:
    """Model as signed ground atoms, sorted by atom name."""
    return tuple(name if model.get(atoms[name], True) else f"not {name}" for name in sorted(atoms))


def rule_substitutions(
    rule: Rule, config: GroundingConfig, onto: Ontology
) -> list[dict[str, str]]:
    """Every assignment of same-sort constants to the rule's variables, in
    declaration order (variables outermost, constants in declared order)."""
    return _substitutions(rule, _sorts(rule, onto), config)


def _sorts(rule: Rule, onto: Ontology) -> tuple[str, ...]:
    """The sort of each quantified variable, in declaration order."""
    sorts = variable_sorts(rule, onto)
    return tuple(sorts[term.name] for term in rule.quantified_vars)


def _substitutions(
    rule: Rule, sorts: Sequence[str], config: GroundingConfig
) -> list[dict[str, str]]:
    names = [t.name for t in rule.quantified_vars]
    pools = []
    for name, sort in zip(names, sorts):
        constants = config.domain_constants.get(sort)
        if not constants:
            raise GroundingError(f"no constants declared for sort {sort!r} (variable {name})")
        pools.append(constants)
    return [dict(zip(names, choice)) for choice in product(*pools)]


def instantiate_rule(
    rule: Rule, substitution: Mapping[str, str], db: ClauseDB
) -> list[frozenset[int]]:
    """Clauses of one ground instance: one clause per head literal."""
    body_part = [-_signed(lit, db.intern(lit.inner, substitution)) for lit in rule.body]
    return [
        frozenset([*body_part, _signed(lit, db.intern(lit.inner, substitution))])
        for lit in rule.head
    ]


_OPERATORS = {
    "<": operator.lt, "<=": operator.le, "=": operator.eq,
    ">=": operator.ge, ">": operator.gt, "!=": operator.ne,
}


def _evaluate(cmp: Comparison, value: Any) -> bool:
    return _OPERATORS[cmp.op](value, cmp.value)


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
        truths = {name: [_evaluate(comparisons[name], v) for v in domain] for name in names}
        for name in names:
            if len(set(truths[name])) == 1:  # the same truth at every domain value
                axioms.append(frozenset([atoms[name] if truths[name][0] else -atoms[name]]))
        for first, second in combinations(names, 2):
            patterns = set(zip(truths[first], truths[second]))
            for a_sign, b_sign in product((True, False), repeat=2):
                if (a_sign, b_sign) not in patterns:
                    axioms.append(frozenset([
                        -atoms[first] if a_sign else atoms[first],
                        -atoms[second] if b_sign else atoms[second],
                    ]))
    return axioms


def append_comparison_axioms(db: ClauseDB, onto: Ontology) -> None:
    """Set db's interval axioms: those over all of its comparison atoms."""
    db.axioms = comparison_axioms(db.comparisons, db.atoms, onto)


def _signed(lit: Literal, index: int) -> int:
    return -index if lit.negated else index


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

    The grounding is laid over the config's grounding of every rule but the
    last (`GroundingConfig.groundings`), made afresh when the config lacks
    it; the config then keeps that grounding and, without assumptions, this
    one.
    """
    rules = tuple(rules)
    if not rules:
        db = _ground_rules(rules, config, onto)
        _add_assumptions_and_axioms(db, config, onto, assumptions)
        return db
    prefix = rules[:-1]
    base = next((db for key, known, db in config.groundings if known is onto and key == prefix), None)
    fresh = base is None
    if fresh:
        base = _ground_rules(prefix, config, onto)
    db = ClauseDB(dict(base.atoms), dict(base.comparisons), [*base.rule_clauses])
    clauses = _rule_clauses(rules[-1], config, onto, db)
    db.rule_clauses.append(clauses)
    db.rules_index = base.rules_index.extended(clauses)
    _add_assumptions_and_axioms(db, config, onto, assumptions)
    if fresh:
        # the base's atoms are numbered first, and its axioms are db's over
        # them, in the order generating them would give
        top = len(base.atoms)
        base.axioms = [axiom for axiom in db.axioms if all(abs(lit) <= top for lit in axiom)]
        base.index = base.rules_index.extended(base.axioms) if base.axioms else base.rules_index
    db.prefix_index = base.index
    config.groundings[:] = [(prefix, onto, base)] + ([] if assumptions else [(rules, onto, db)])
    return db


def _ground_rules(rules: Sequence[Rule], config: GroundingConfig, onto: Ontology) -> ClauseDB:
    """A ClauseDB of the rules grounded in turn and the index of their
    clauses; its axioms and `index` are left to the caller."""
    db = ClauseDB()
    for rule in rules:
        db.rule_clauses.append(_rule_clauses(rule, config, onto, db))
    db.rules_index = sat.Index(chain(*db.rule_clauses))
    return db


def _add_assumptions_and_axioms(
    db: ClauseDB,
    config: GroundingConfig,
    onto: Ontology,
    assumptions: Sequence[tuple[Literal, Mapping[str, str]]],
) -> None:
    """Intern the assumptions, set db's interval axioms and build its index
    over its rules' index."""
    units = [frozenset([_signed(lit, db.intern(lit.inner, s))]) for lit, s in assumptions]
    if config.comparison_mode == "interval-axioms":
        append_comparison_axioms(db, onto)
    db.index = db.rules_index.extended(chain(units, db.axioms)) if units or db.axioms else db.rules_index


def _rule_clauses(
    rule: Rule, config: GroundingConfig, onto: Ontology, db: ClauseDB
) -> tuple[frozenset[int], ...]:
    """The clauses of `rule`'s instances in db's numbering, in instance
    order, duplicates kept; the rule's atoms db lacks are numbered in it."""
    sorts = _sorts(rule, onto)
    key = (rule, sorts)
    memo = config.rule_groundings
    known = len(memo)
    entry = memo.setdefault(key, None)
    if len(memo) > known:  # the config's first grounding of the rule
        return _instances(rule, sorts, config, db)
    if entry is None:
        local = ClauseDB()
        clauses = _instances(rule, sorts, config, local)
        entry = memo[key] = (tuple(local.atoms), list(local.atoms.values()), clauses, local.comparisons)
    names, numbers, clauses, comparisons = entry
    atoms = db.atoms
    ids = [atoms.setdefault(name, len(atoms) + 1) for name in names]
    if ids != numbers:
        rename = dict(zip(numbers, ids))
        rename.update(zip(map(operator.neg, numbers), map(operator.neg, ids)))
        clauses = tuple(frozenset(map(rename.__getitem__, clause)) for clause in clauses)
        memo[key] = (names, ids, clauses, comparisons)
    db.comparisons.update(comparisons)
    return clauses


def _instances(
    rule: Rule, sorts: Sequence[str], config: GroundingConfig, db: ClauseDB
) -> tuple[frozenset[int], ...]:
    """The clauses of every instance of `rule`, interned into `db`."""
    return tuple(
        clause
        for substitution in _substitutions(rule, sorts, config)
        for clause in instantiate_rule(rule, substitution, db)
    )


def ground_literal(lit: Literal, substitution: Mapping[str, str]) -> GroundLiteral:
    """`lit` under `substitution`: its atom's name, whether it is negated,
    and, for a comparison, the comparison with its subject a constant."""
    inner = lit.inner
    comparison = _ground_comparison(inner, substitution) if isinstance(inner, Comparison) else None
    return render_inner(inner, substitution), lit.negated, comparison


def invariant_attempts(rule: Rule, config: GroundingConfig, onto: Ontology) -> tuple[Attempt, ...]:
    """The ground literals each attempt to refute `rule` assumes: per
    substitution, in substitution order, and per head literal, in head
    order, the body literals and then the head literal's complement.

    Memoized in `config.attempts` under the key of `rule_groundings`."""
    sorts = _sorts(rule, onto)
    key = (rule, sorts)
    found = config.attempts.get(key)
    if found is None:
        attempts = []
        for substitution in _substitutions(rule, sorts, config):
            body = [ground_literal(lit, substitution) for lit in rule.body]
            attempts += [(*body, ground_literal(lit.complement(), substitution)) for lit in rule.head]
        found = config.attempts[key] = tuple(attempts)
    return found


def extend(
    db: ClauseDB, attempt: Attempt, config: GroundingConfig, onto: Ontology
) -> tuple[dict[str, int], list[frozenset[int]]]:
    """What assuming an attempt's ground literals adds to `db`, which is
    left unchanged.

    Returns the atoms `db` lacks, numbered after db's in first-occurrence
    order, and the distinct unit and interval-axiom clauses `db` lacks;
    axioms are generated only when the attempt brings new comparisons.
    When db is ground(rules, config, onto), db's atoms followed by the new
    ones are the atom numbering of grounding the rules with the attempt's
    literals as assumptions, and db's clauses plus the new ones are its
    clause set.
    """
    known = db.atoms
    atoms: dict[str, int] = {}
    comparisons: dict[str, Comparison] = {}
    units = []
    for name, negated, comparison in attempt:
        number = known.get(name) or atoms.get(name)
        if number is None:
            number = atoms[name] = len(known) + len(atoms) + 1
            if comparison is not None:
                comparisons[name] = comparison
        units.append(frozenset([-number if negated else number]))
    axioms = []
    if comparisons and config.comparison_mode == "interval-axioms":
        axioms = comparison_axioms(ChainMap(comparisons, db.comparisons), ChainMap(atoms, known), onto)
    ids = db.index.ids
    return atoms, [c for c in dict.fromkeys(chain(units, axioms)) if c not in ids]


def rule_subset(db: ClauseDB, indexes: Sequence[int]) -> list[frozenset[int]]:
    """Clauses of grounding only the rules at `indexes` of db's rule list,
    in db's atom numbering (a renaming of that grounding's own).

    Of db's interval axioms it keeps those whose atoms all occur in these
    rules' clauses.  An axiom mentions one comparison or one pair of them,
    so these are the axioms that grounding generates, and the clause set
    is that grounding's.
    """
    clauses = [clause for i in indexes for clause in db.rule_clauses[i]]
    used = {abs(lit) for clause in clauses for lit in clause}
    return clauses + [axiom for axiom in db.axioms if all(abs(lit) in used for lit in axiom)]
