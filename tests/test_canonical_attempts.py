"""Canonical substitutions: the generator against its definition, and the
verifier's counterexample search over canonical attempts against a full
walk of every substitution.

The full-walk reference grounds each check's rules afresh, tries every
substitution `rule_substitutions` gives, per head literal, and solves each
attempt with the reference DPLL solver (`reference_dpll`), not with
`rulesynth.sat`.  It solves the first attempt not refuted again over the
small-model bound and copies that model out to every constant by renaming
atoms, as `verify` reports an Unsafe verdict's countermodel, but through
a copy of its own.  `verify` reports and `theory_soundness` answers must
equal it on seeded random cases, and two deliberately wrong canonicalizers
must make the comparison fail.
"""

import random
import re
from collections import Counter
from dataclasses import replace
from itertools import chain, product

import pytest

from rulesynth import grounding
from rulesynth.fol import PredicateDecl, parse_rule, render_rule, rule_sorts, validate_schema
from rulesynth.grounding import (
    ClauseDB,
    GroundingConfig,
    GroundingError,
    canonical_choices,
    canonical_count,
    comparison_axioms,
    ground_literal,
    invariant_attempts,
    render_model,
    rule_substitutions,
)
from rulesynth.store import Invariant, TheoryStore, VerifiedRule
from rulesynth.verify import theory_soundness, verify

import reference_dpll
from reference_canonical import canonical_substitutions, is_canonical
from reference_grounding import reference_ground
from rulegen import is_threshold_rule, random_rule, threshold_rule

BELL = [1, 1, 2, 5, 15, 52, 203]


# --- the generator ---

def random_layout(rng):
    """Sorts per position, a pool per sort and the fixed constants; a
    constant in two pools, or twice in one, is fixed, as the generator
    requires."""
    sort_names = ["s", "t", "u"][: rng.randint(1, 3)]
    domain = {}
    for sort in sort_names:
        pool = [f"{sort}{i}" for i in range(rng.randint(1, 5))]
        rng.shuffle(pool)
        domain[sort] = pool
    fixed = {c for pool in domain.values() for c in pool if rng.random() < 0.25}
    for _ in range(rng.randint(0, 2)):  # a constant shared by two pools, or repeated in one
        constant = f"k{rng.randint(0, 1)}"
        for sort in rng.sample(sort_names, min(2, len(sort_names))):
            domain[sort].insert(rng.randint(0, len(domain[sort])), constant)
        fixed.add(constant)
    sorts = [rng.choice(sort_names) for _ in range(rng.randint(0, 4))]
    return sorts, domain, frozenset(fixed)


def test_canonical_choices_are_the_canonical_members_of_the_product_in_order():
    rng = random.Random("canonical-choices")
    skipped = 0
    for case in range(600):
        sorts, domain, fixed = random_layout(rng)
        pools = [domain[sort] for sort in sorts]
        expected = [c for c in product(*pools) if is_canonical(c, sorts, domain, fixed)]
        assert list(canonical_choices(pools, sorts, fixed)) == expected, (case, sorts, domain, fixed)
        skipped += len(expected) < len(list(product(*pools)))
    assert skipped > 100, skipped


def test_canonical_count_is_the_number_of_canonical_choices():
    rng = random.Random("canonical-count")
    for case in range(600):
        sorts, domain, fixed = random_layout(rng)
        pools = [domain[sort] for sort in sorts]
        assert canonical_count(pools, sorts, fixed) == len(canonical_choices(pools, sorts, fixed)), case
    pool = [f"v{i}" for i in range(1, 10**5 + 1)]
    assert canonical_count([pool] * 6, ["v"] * 6, frozenset()) == BELL[6]


@pytest.mark.parametrize("k", range(len(BELL)))
def test_k_same_sort_positions_give_bell_k_choices(k):
    for size in range(k, k + 3):
        pool = [f"v{i}" for i in range(1, size + 1)]
        assert len(list(canonical_choices([pool] * k, ["v"] * k, frozenset()))) == BELL[k]


def test_canonical_choices_are_generated_not_filtered():
    """Three positions over a pool of 10**5 constants: the product has
    10**15 members, the canonical choices Bell(3)."""
    pool = [f"v{i}" for i in range(1, 10**5 + 1)]
    choices = list(canonical_choices([pool] * 3, ["v"] * 3, frozenset()))
    assert choices == [
        ("v1", "v1", "v1"), ("v1", "v1", "v2"), ("v1", "v2", "v1"), ("v1", "v2", "v2"), ("v1", "v2", "v3"),
    ]


def test_fixed_constants_are_declared_and_no_constant_is_pooled_twice(onto):
    config = GroundingConfig({"vehicle": ("ego", "v1", "v2"), "zone": ("z1", "z2")})
    assert config.fixed_constants(onto) == {"ego"}
    assert config.fixed_constants(replace(onto, constants={})) == frozenset()
    assert GroundingConfig.default(onto, 3).fixed_constants(onto) == frozenset()
    for domain in ({"vehicle": ("ego", "v1", "v2"), "zone": ("z1", "v2")}, {"vehicle": ("v2", "v1", "v2")}):
        with pytest.raises(GroundingError, match="^constants pooled more than once: 'v2'$"):
            GroundingConfig(domain)


def test_attempt_memo_is_keyed_by_the_fixed_constants(onto):
    """One config pooling `ego`, one rule: under an ontology that declares
    ego it is fixed and the walk tries it and v1; under one that does not,
    ego is the first interchangeable constant and the only one tried."""
    config = GroundingConfig({"vehicle": ("ego", "v1", "v2")})
    rule = parse_rule("forall X . not collide(X) <- true", onto)
    undeclared = replace(onto, constants={})
    names = [[attempt[-1][0] for attempt in invariant_attempts(rule, config, o)] for o in (onto, undeclared)]
    assert names == [["collide(ego)", "collide(v1)"], ["collide(ego)"]]
    assert sorted(sorted(fixed) for _, _, fixed in config.attempts) == [[], ["ego"]]


# --- the counterexample search against a full walk ---

def solve_reference(rules, config, onto, assumptions, base):
    """reference_dpll's model of `rules` grounded afresh (`base` is their
    reference grounding) with each assumed (literal, substitution) pair
    interned after them as a unit clause and the interval axioms over
    every comparison: `reference_ground(rules, ..., assumptions)`'s
    clauses, without grounding the rules again per attempt."""
    db = ClauseDB(dict(base.atoms), dict(base.comparisons))
    units = [frozenset([-db.intern(lit.inner, s) if lit.negated else db.intern(lit.inner, s)])
             for lit, s in assumptions]
    axioms = comparison_axioms(db.comparisons, db.atoms, onto) if config.comparison_mode == "interval-axioms" else []
    clauses = list(dict.fromkeys(chain(*base.rule_clauses, units, axioms)))
    return db, reference_dpll.solve(clauses, num_vars=len(db.atoms))


def reference_bound(config, onto, rules):
    """Per sort, the pool's declared constants and its first m others, in
    pool order, where m is the most variables of the sort in one of
    `rules`, at least 1: the small-model bound, derived afresh."""
    most = Counter()
    for rule in rules:
        for sort, count in Counter(rule_sorts(rule, onto)).items():
            most[sort] = max(most[sort], count)
    pools = {}
    for sort, pool in config.domain_constants.items():
        free = [c for c in pool if c not in onto.constants][: max(most[sort], 1)]
        pools[sort] = tuple(c for c in pool if c in onto.constants or c in free)
    return GroundingConfig(pools, config.comparison_mode)


def copied_out(names, bound_db, model, config, bound, onto):
    """`model`, a model of bound_db, copied out to the atoms `names` over
    `config`: each takes the value of the atom named with every constant
    the bound lacks replaced by the bound's last undeclared constant of
    that sort.  Names are renamed word by word; no predicate, attribute or
    value is named like a pool constant."""
    copy = {}
    for sort, pool in config.domain_constants.items():
        kept = bound.domain_constants[sort]
        last = [c for c in kept if c not in onto.constants][-1:]
        copy.update((c, last[0]) for c in pool if c not in kept)
    numbers = {name: bound_db.atoms[re.sub(r"\w+", lambda word: copy.get(word[0], word[0]), name)] for name in names}
    return render_model(numbers, model)


def full_walk(rules, rule, config, onto, bound):
    """The countermodel of the first attempt over every substitution that
    the rules do not refute, or None when they entail `rule`: the model
    reference_dpll gives of that attempt over `bound`, copied out to
    `config`."""
    base = reference_ground(rules, config, onto)
    for substitution in rule_substitutions(rule, config, onto):
        body = [(lit, substitution) for lit in rule.body]
        for head_lit in rule.head:
            assumptions = [*body, (head_lit.complement(), substitution)]
            db, model = solve_reference(rules, config, onto, assumptions, base)
            if model is not None:
                bound_base = reference_ground(rules, bound, onto)
                bound_db, bound_model = solve_reference(rules, bound, onto, assumptions, bound_base)
                return copied_out(db.atoms, bound_db, bound_model, config, bound, onto)
    return None


def reference_report(theory, candidate, invariants, config, onto):
    """(verdict, core, invariant outcome) as the staged pipeline decides them."""
    def satisfiable(rules):
        db = reference_ground(rules, config, onto)
        return reference_dpll.solve(db.clauses, num_vars=len(db.atoms)) is not None

    if not satisfiable([*theory, candidate]):
        kept = list(theory)
        for rule in list(kept):
            trial = [r for r in kept if r is not rule]
            if not satisfiable([*trial, candidate]):
                kept = trial
        return "Inconsistent", tuple(r.id for r in kept), None
    bound = reference_bound(config, onto, [candidate, *(invariant.rule for invariant in invariants)])
    if full_walk(theory, candidate, config, onto, bound) is None:
        return "Redundant", (), None
    for invariant in invariants:
        countermodel = full_walk([*theory, candidate], invariant.rule, config, onto, bound)
        if countermodel is not None:
            return "Unsafe", (), (False, invariant.id, countermodel)
    return "Accepted", (), (True, None, ())


def reference_soundness(theory, invariants, config, onto):
    db = reference_ground(theory, config, onto)
    if reference_dpll.solve(db.clauses, num_vars=len(db.atoms)) is None:
        return False
    bound = reference_bound(config, onto, [invariant.rule for invariant in invariants])
    return all(full_walk(theory, invariant.rule, config, onto, bound) is None for invariant in invariants)


def vocabularies(onto):
    """One sort over three predicates, so that random rules clash and
    entail each other often, and two sorts, with `dense` over zones."""
    one_sort = replace(onto, predicates={p: onto.predicates[p] for p in ("collide", "dense", "merge_ok")})
    by_zone = replace(onto, predicates={
        "collide": onto.predicates["collide"],
        "dense": PredicateDecl(1, ("zone",)),
        "near": PredicateDecl(2, ("vehicle", "zone")),
    })
    return one_sort, by_zone


def configs(vocabulary, rng, domain_size, mode):
    """The default config, or one that pools the declared `ego` among the
    fresh vehicles, first or later."""
    config = GroundingConfig.default(vocabulary, domain_size, mode)
    if rng.choice(["default", "ego", "ego"]) == "default":
        return config
    vehicles = list(config.domain_constants["vehicle"])
    vehicles.insert(0 if rng.random() < 0.75 else 1, "ego")
    return GroundingConfig({**config.domain_constants, "vehicle": tuple(vehicles)}, mode)


def valid_rule(rng, vocabulary):
    while True:
        rule = random_rule(rng, vocabulary)
        if not validate_schema(rule, vocabulary):
            return rule


def some_rule(rng, vocabulary):
    return threshold_rule(rng, vocabulary) if rng.random() < 0.25 else valid_rule(rng, vocabulary)


CASES = {1: 40, 2: 40, 3: 30, 4: 20, 5: 12, 6: 8}  # per domain size and mode


def cross_check(onto):
    """Mismatches between `verify` / `theory_soundness` and the full-walk
    reference on seeded random cases, and what the cases covered."""
    mismatches = []
    seen = Counter()
    for mode in ("opaque", "interval-axioms"):
        for domain_size, count in CASES.items():
            rng = random.Random(f"canonical-cross-check-{mode}-{domain_size}")
            for case in range(count):
                vocabulary = rng.choice(vocabularies(onto))
                config = configs(vocabulary, rng, domain_size, mode)
                theory = [some_rule(rng, vocabulary) for _ in range(rng.randint(0, 3))]
                candidate = some_rule(rng, vocabulary)
                invariants = [Invariant(f"inv{i}", some_rule(rng, vocabulary)) for i in range(rng.randint(1, 2))]
                store = TheoryStore(
                    verified_rules=tuple(VerifiedRule(r, "c", "g", "vrep") for r in theory),
                    invariants=tuple(invariants),
                )
                report = verify(candidate, store, config, vocabulary)
                outcome = None if report.invariants is None else (
                    report.invariants.preserved, report.invariants.violated_id, report.invariants.countermodel)
                actual = (report.verdict, report.consistency.core, outcome)
                expected = reference_report(theory, candidate, invariants, config, vocabulary)
                sound = theory_soundness(store, config, vocabulary)[0]
                if (actual, sound) != (expected, reference_soundness(theory, invariants, config, vocabulary)):
                    mismatches.append((mode, domain_size, case))
                seen[report.verdict] += 1
                seen["ego pooled"] += "ego" in config.domain_constants["vehicle"]
                seen["two sorts"] += vocabulary.predicates["dense"].sorts == ("zone",)
                seen["names ego"] += any("ego" in render_rule(r) for r in [*theory, candidate])
                seen["three variables"] += len(candidate.quantified_vars) == 3
                seen["threshold candidate"] += is_threshold_rule(candidate)
                seen["threshold invariant"] += any(is_threshold_rule(i.rule) for i in invariants)
                seen["threshold theory"] += any(map(is_threshold_rule, theory))
    return mismatches, seen


def test_counterexample_search_matches_the_full_walk(onto):
    mismatches, seen = cross_check(onto)
    assert mismatches == [], mismatches
    assert min(seen[v] for v in ("Inconsistent", "Redundant", "Unsafe", "Accepted")) >= 10, seen
    assert min(seen[k] for k in ("ego pooled", "two sorts", "names ego", "three variables")) >= 20, seen
    assert min(seen[k] for k in ("threshold candidate", "threshold invariant", "threshold theory")) >= 40, seen


def test_constants_pooled_by_two_sorts_are_refused():
    """Vehicles and zones named alike would let an attribute over both
    sorts link `collide(a)` to `dense(a)`, so that an invariant over X
    and Y fails only where they take different names, (a, b), which a
    walk over each sort's own order alone would skip as a copy of
    (a, a).  Such a config is refused."""
    with pytest.raises(GroundingError, match="'a', 'b'"):
        GroundingConfig({"vehicle": ("a", "b"), "zone": ("a", "b")})


def test_cross_check_fails_when_declared_constants_are_interchangeable(onto, monkeypatch):
    monkeypatch.setattr(GroundingConfig, "fixed_constants", lambda self, onto: frozenset())
    mismatches, _ = cross_check(onto)
    assert mismatches


def test_cross_check_fails_when_a_walk_takes_fewer_fresh_constants_than_variables(onto, monkeypatch):
    canonical = grounding.canonical_choices

    def capped(pools, sorts, fixed):
        """The canonical choices with at most k - 1 interchangeable constants."""
        return (c for c in canonical(pools, sorts, fixed) if len(set(c) - fixed) < len(pools))

    monkeypatch.setattr(grounding, "canonical_choices", capped)
    mismatches, _ = cross_check(onto)
    assert mismatches


def test_canonical_walk_equals_the_filtered_enumeration(onto):
    """On the cross-check's rules and configs, a walk's attempts are those
    of `rule_substitutions` filtered by the reference predicate."""
    rng = random.Random("canonical-walk")
    for case in range(200):
        vocabulary = rng.choice(vocabularies(onto))
        config = configs(vocabulary, rng, rng.randint(1, 4), "interval-axioms")
        rule = valid_rule(rng, vocabulary)
        expected = [
            (*(ground_literal(lit, s) for lit in rule.body), ground_literal(head_lit.complement(), s))
            for s in canonical_substitutions(rule, config, vocabulary)
            for head_lit in rule.head
        ]
        assert list(invariant_attempts(rule, config, vocabulary)) == expected, case
