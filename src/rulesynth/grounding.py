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

A config keeps every grounding `ground` made in one map
(`GroundingConfig.groundings`), keyed by the identity of the ontology and
of each rule, and callers find a grounding by asking `ground` for its
rules.  `ground` returns the kept grounding of its rules when there is
one.  Otherwise it builds one through one loop from a base: the kept
grounding of every rule but the last, when the map holds it, or else an
empty ClauseDB.  It copies the base's atom table, grounds the rules the
base lacks into the copy, and extends the base's rule index, or an empty
index, by their clauses (`Index.extended`; `Index(()).extended(c)` equals
`Index(c)`).  Then it adds the interval axioms and keeps the result.
A rule with more than MAX_INSTANCES ground instances is refused before
any is built.  In a verification batch the theory is either unchanged since
the last candidate, which was rejected, or it has grown by that
candidate, and either way the map holds its grounding.  The atom
numbering, the rule clauses and the order of the distinct clauses are
those of grounding every rule in turn, however the grounding was reached.

The attempts to refute a rule, any rule: an invariant or a candidate
tested for redundancy (`invariant_attempts`), are the ground literals each
assumes: per canonical substitution and head literal, the body literals
and the head literal's complement, as atom name, sign and ground
comparison.  No constant is pooled twice (`GroundingConfig` refuses it),
and a pool constant that no rule can name, because the ontology does not
declare it, is interchangeable with the other such constants of its sort:
the grounding is function-free and equality-free, so permuting them
renames its atoms and leaves it otherwise unchanged, and every
substitution in one orbit of the permutations is refuted or not alike
(the EPR symmetry argument of Piskac, de Moura and Bjorner, JAR 2010).
A substitution is canonical when, per sort, the interchangeable constants
it uses appear in pool order, which makes it the lexicographically first
of its orbit (lex-leader symmetry breaking: Crawford, Ginsberg, Luks and
Roy, KR 1996).  So the first attempt a rule's grounding does not refute is
canonical, and walking only canonical attempts finds the same one.  The
grounding itself (`rule_substitutions`) keeps every substitution.
A rule's attempts are rendered all at once, on the first walk over them,
and kept in `GroundingConfig.attempts` by the rule's content, its
variables' sorts and the constants that no permutation moves.
"""

from __future__ import annotations

import operator
from collections import ChainMap, Counter
from dataclasses import dataclass, field, replace
from itertools import chain, combinations, product
from math import prod
from typing import AbstractSet, Any, KeysView, Mapping, MutableMapping, Sequence

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
# ground instances one rule may have, as many as the 2^20 cause subsets of
# analysis.BRUTE_FORCE_LIMIT; `ground` refuses a rule with more
MAX_INSTANCES = 2**20

# a ground literal: its atom's name, whether it is negated, and its ground
# comparison (None for an atom); an attempt is the ground literals it assumes
GroundLiteral = tuple[str, bool, Comparison | None]
Attempt = tuple[GroundLiteral, ...]


class GroundingError(ValueError):
    """A quantified variable's sort has no constants, a rule has more than
    MAX_INSTANCES ground instances, or bad config."""


@dataclass(frozen=True)
class GroundingConfig:
    """The constants of each sort and the comparison mode.

    `groundings` maps (id(onto), *map(id, rules)) to the ontology, the rule
    tuple and the ClauseDB `ground` made of them, one entry per rule tuple
    `ground` was asked for; the entry holds the objects whose ids key it,
    so no id is reused while it lives.
    `attempts` is `invariant_attempts`' memo, keyed by a rule's content,
    the sort of each quantified variable and the fixed constants
    (`fixed_constants`), which the ontology of each call decides; within
    one config a sort fixes the constants.
    Neither cache is part of equality, repr or `to_json`, and they live as
    long as the config, which is one verification batch: a
    `dataclasses.replace`d config starts empty.
    `pooled` holds every constant of the sorts.  No constant may be
    pooled more than once, in two sorts or twice in one: a permutation
    of one sort's constants would move it in another place too, and the
    sort names `v` and `v1` would give `v11` two meanings.
    """

    domain_constants: Mapping[str, tuple[str, ...]]
    comparison_mode: str = "opaque"
    attempts: dict[tuple[Rule, tuple[str, ...], frozenset[str]], tuple[Attempt, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    groundings: dict[tuple[int, ...], tuple[Ontology, tuple[Rule, ...], ClauseDB]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    pooled: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.comparison_mode not in COMPARISON_MODES:
            raise GroundingError(f"bad comparison mode {self.comparison_mode!r}")
        for sort, constants in self.domain_constants.items():
            if not constants:
                raise GroundingError(f"sort {sort!r} declares no constants")
        counts = Counter(chain(*self.domain_constants.values()))
        repeated = sorted(c for c, n in counts.items() if n > 1)
        if repeated:
            raise GroundingError(f"constants pooled more than once: {', '.join(map(repr, repeated))}")
        object.__setattr__(self, "pooled", frozenset(counts))

    @classmethod
    def default(cls, onto: Ontology, domain_size: int = 3,
                comparison_mode: str = "opaque") -> "GroundingConfig":
        """Per sort, domain_size fresh constants named <sort>1..<sort>N.

        Quantified variables range over these fresh constants only, not
        over the ontology's declared constants such as `ego`: a known gap,
        by which `forall X . collide(X) <- true` and
        `forall X . not collide(ego) <- true` check as consistent.
        A domain size above MAX_INSTANCES is refused.
        """
        if domain_size < 1:
            raise GroundingError("domain size must be positive")
        if domain_size > MAX_INSTANCES:  # every rule has a variable, so none could be grounded
            raise GroundingError(f"domain size {domain_size} exceeds {MAX_INSTANCES}, the most instances of a rule")
        domains = {
            sort: tuple(f"{sort}{i}" for i in range(1, domain_size + 1))
            for sort in onto.sorts()
        }
        if not domains:
            raise GroundingError("ontology declares no sorts to ground over")
        return cls(domains, comparison_mode)

    def fixed_constants(self, onto: Ontology) -> frozenset[str]:
        """The pool constants that `invariant_attempts` may not permute:
        those `onto` declares, which rules name."""
        return self.pooled.intersection(onto.constants)

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
    extending it, those of the rules and axioms.  A ClauseDB refers to no
    other grounding: that of its rules but the last is found by asking
    `ground` for them.
    """

    atoms: MutableMapping[str, int] = field(default_factory=dict)
    comparisons: MutableMapping[str, Comparison] = field(default_factory=dict)
    rule_clauses: list[tuple[frozenset[int], ...]] = field(default_factory=list)
    axioms: list[frozenset[int]] = field(default_factory=list)
    rules_index: sat.Index = field(init=False, repr=False)
    index: sat.Index = field(init=False, repr=False)

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
    declaration order (variables outermost, constants in declared order).

    Raises GroundingError, before building any, when there are more than
    MAX_INSTANCES of them: the product of the variables' pool sizes."""
    pools = _pools(rule, _sorts(rule, onto), config)
    instances = prod(map(len, pools))
    if instances > MAX_INSTANCES:
        raise GroundingError(f"rule {rule.id} has {instances} ground instances, more than {MAX_INSTANCES}")
    names = [t.name for t in rule.quantified_vars]
    return [dict(zip(names, choice)) for choice in product(*pools)]


def _sorts(rule: Rule, onto: Ontology) -> tuple[str, ...]:
    """The sort of each quantified variable, in declaration order."""
    sorts = variable_sorts(rule, onto)
    return tuple(sorts[term.name] for term in rule.quantified_vars)


def _pools(rule: Rule, sorts: Sequence[str], config: GroundingConfig) -> list[Sequence[str]]:
    """The constants of each quantified variable's sort, in declaration order."""
    pools = []
    for term, sort in zip(rule.quantified_vars, sorts):
        constants = config.domain_constants.get(sort)
        if not constants:
            raise GroundingError(f"no constants declared for sort {sort!r} (variable {term.name})")
        pools.append(constants)
    return pools


def canonical_choices(
    pools: Sequence[Sequence[str]], sorts: Sequence[str], fixed: AbstractSet[str]
) -> list[tuple[str, ...]]:
    """The canonical members of `product(*pools)`, in its (lexicographic)
    order; `sorts[i]` is the sort of position i, and positions of one sort
    share a pool.

    A choice is canonical when, per sort, the constants outside `fixed`
    that it uses first appear in pool order: each position takes a fixed
    constant, a non-fixed one of its sort that an earlier position took,
    or the first non-fixed one of its sort that none took.  The choices
    are generated by a restricted-growth walk, not filtered from the
    product: k positions of one sort with no fixed constant give Bell(k)
    choices when the pool holds at least k constants.  A constant outside
    `fixed` must occur in one pool only, once, as in every
    `GroundingConfig`.

    The walk extends the canonical prefixes one position at a time, each
    with the count of non-fixed constants it takes per sort; extending
    them in order, each by its pool's constants in order, keeps the
    prefixes in lexicographic order, at any number of positions.
    """
    level: list[tuple[tuple[str, ...], dict[str, int]]] = [((), {})]
    for pool, sort in zip(pools, sorts):
        extended = []
        for prefix, used in level:
            taken = used.get(sort, 0)
            passed = 0  # the non-fixed constants of the pool before this one
            for constant in pool:
                if constant in fixed:
                    after = used
                elif passed < taken:
                    after = used
                    passed += 1
                elif passed == taken:
                    after = {**used, sort: taken + 1}
                    passed += 1
                elif fixed:
                    continue  # a fixed constant may come later in the pool
                else:
                    break
                extended.append(((*prefix, constant), after))
        level = extended
    return [prefix for prefix, _ in level]


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


def ground(rules: Sequence[Rule], config: GroundingConfig, onto: Ontology) -> ClauseDB:
    """Ground a rule set to a ClauseDB, kept in `config.groundings`.

    The config's kept grounding of the rules is returned when there is
    one.  Otherwise the rules are grounded over a base: the kept grounding
    of every rule but the last, or an empty one when the config lacks it.
    """
    rules = tuple(rules)
    kept = config.groundings
    key = (id(onto), *map(id, rules))
    entry = kept.get(key)
    if entry is not None:
        return entry[2]
    base_entry = kept.get(key[:-1])  # for no rules, (): never a key
    base = ClauseDB() if base_entry is None else base_entry[2]
    grounded = len(base.rule_clauses)
    db = ClauseDB(dict(base.atoms), dict(base.comparisons), [*base.rule_clauses])
    for rule in rules[grounded:]:
        db.rule_clauses.append(_rule_clauses(rule, config, onto, db))
    rules_index = sat.Index(()) if base_entry is None else base.rules_index
    db.rules_index = rules_index.extended(chain(*db.rule_clauses[grounded:]))
    if config.comparison_mode == "interval-axioms":
        append_comparison_axioms(db, onto)
    db.index = db.rules_index.extended(db.axioms) if db.axioms else db.rules_index
    kept[key] = (onto, rules, db)
    return db


def _rule_clauses(
    rule: Rule, config: GroundingConfig, onto: Ontology, db: ClauseDB
) -> tuple[frozenset[int], ...]:
    """The clauses of every instance of `rule`, in instance order,
    duplicates kept; the rule's atoms db lacks are numbered in it."""
    return tuple(
        clause
        for substitution in rule_substitutions(rule, config, onto)
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
    canonical substitution (`canonical_choices`, with the constants of
    `config.fixed_constants(onto)` fixed), in substitution order, and per
    head literal, in head order, the body literals and then the head
    literal's complement.

    The first of these attempts that a grounding of rules over `config`
    does not refute is the first of all substitutions' attempts it does
    not refute, provided that every constant those rules and `rule` name
    is declared by `onto` (which `validate_schema` checks) and so fixed
    wherever a pool holds it; `Ontology` further refuses a declared
    constant named like a fresh one, and `GroundingConfig` a constant
    pooled twice.  Then permuting one sort's other constants maps the
    grounding onto itself and each substitution's attempts onto
    another's, refuted alike, and the lexicographically first
    substitution of each such orbit is the canonical one.

    The table is rendered whole on the first call and memoized in
    `config.attempts` by the rule's content, its variables' sorts and the
    fixed constants; a later call returns the memoized tuple."""
    sorts = _sorts(rule, onto)
    fixed = config.fixed_constants(onto)
    key = (rule, sorts, fixed)
    attempts = config.attempts.get(key)
    if attempts is None:
        names = [t.name for t in rule.quantified_vars]
        rendered = []
        for choice in canonical_choices(_pools(rule, sorts, config), sorts, fixed):
            substitution = dict(zip(names, choice))
            body = [ground_literal(lit, substitution) for lit in rule.body]
            rendered.extend((*body, ground_literal(lit.complement(), substitution)) for lit in rule.head)
        attempts = config.attempts[key] = tuple(rendered)
    return attempts


def extend(
    db: ClauseDB, attempt: Attempt, config: GroundingConfig, onto: Ontology
) -> tuple[dict[str, int], list[frozenset[int]]]:
    """What assuming an attempt's ground literals adds to `db`, which is
    left unchanged.

    Returns the atoms `db` lacks, numbered after db's in first-occurrence
    order, and the distinct unit and interval-axiom clauses `db` lacks;
    axioms are generated only when the attempt brings new comparisons.
    When db is ground(rules, config, onto), db's atoms followed by the new
    ones are the numbering that interning the rules' instances and then
    the attempt's literals in turn gives, and db's clauses plus the new
    ones are the rules' clauses, the literals as unit clauses and the
    interval axioms over every comparison among them.
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
