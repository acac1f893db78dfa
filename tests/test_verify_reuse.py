"""Verification over one shared grounding against the reference composition,
which grounds its rules (and assumptions) afresh for every check, on a
config of its own so that no grounding the config keeps is reused, and
solves each grounding with the reference DPLL solver, not with
`rulesynth.sat`.

Verdicts, conflict cores and countermodels must be equal on seeded random
theories, candidates and invariants in both comparison modes and at domain
sizes 1 to 3.
"""

import random
from collections import ChainMap, Counter
from dataclasses import replace
from itertools import chain

import pytest

from rulesynth import sat
from rulesynth.fol import PredicateDecl, Rule, parse_rule, validate_schema
from rulesynth.grounding import (
    ClauseDB,
    GroundingConfig,
    comparison_axioms,
    extend,
    ground,
    ground_literal,
    invariant_attempts,
    render_model,
    rule_subset,
    rule_substitutions,
)
from rulesynth.store import Invariant, TheoryStore, VerifiedRule
from rulesynth.verify import (
    InvariantResult,
    check_consistency,
    check_entailment,
    check_invariants,
    theory_soundness,
    verify,
)

import reference_dpll
from rulegen import random_rule


# --- reference: one fresh grounding per check ---

def cold(config):
    """The same grounding settings with nothing memoized or kept."""
    return GroundingConfig(config.domain_constants, config.comparison_mode)


def _solve_db(db):
    return reference_dpll.solve(db.clauses, num_vars=len(db.atoms))


def reference_consistency(theory, candidate, config, onto):
    if _solve_db(ground([*theory, candidate], cold(config), onto)) is not None:
        return True, ()
    kept = list(theory)
    for rule in list(kept):
        trial = [r for r in kept if r is not rule]
        if _solve_db(ground([*trial, candidate], cold(config), onto)) is None:
            kept = trial
    return False, tuple(r.id for r in kept)


def reference_entailment(theory, candidate, config, onto):
    """The theory's clauses, with the interval axioms over the comparisons
    of theory and candidate, refute each negated candidate clause."""
    db = ground([*theory, candidate], cold(config), onto)
    theory_clauses = [clause for own in db.rule_clauses[:-1] for clause in own] + db.axioms
    for clause in db.rule_clauses[-1]:
        negation = [frozenset([-lit]) for lit in clause]
        if reference_dpll.solve(theory_clauses + negation, num_vars=len(db.atoms)) is not None:
            return False
    return True


def reference_invariants(theory, candidate, invariants, config, onto):
    rules = [*theory] if candidate is None else [*theory, candidate]
    for invariant in invariants:
        for substitution in rule_substitutions(invariant.rule, config, onto):
            assumptions = [(lit, substitution) for lit in invariant.rule.body]
            for head_lit in invariant.rule.head:
                negated = [*assumptions, (head_lit.complement(), substitution)]
                db = ground(rules, cold(config), onto, assumptions=negated)
                model = _solve_db(db)
                if model is not None:
                    return False, invariant.id, render_model(db.atoms, model)
    return True, None, ()


def reference_verify(theory, candidate, invariants, config, onto):
    """(verdict, core, invariant outcome) as the staged pipeline decides them."""
    consistent, core = reference_consistency(theory, candidate, config, onto)
    if not consistent:
        return "Inconsistent", core, None
    if reference_entailment(theory, candidate, config, onto):
        return "Redundant", (), None
    outcome = reference_invariants(theory, candidate, invariants, config, onto)
    return ("Accepted" if outcome[0] else "Unsafe"), (), outcome


# --- random cases ---

def valid_rule(rng, vocabulary, onto):
    while True:
        rule = random_rule(rng, vocabulary)
        if not validate_schema(rule, onto):
            return rule


def random_case(rng, vocabulary, onto):
    theory = [valid_rule(rng, vocabulary, onto) for _ in range(rng.randint(0, 4))]
    if theory and rng.random() < 0.2:
        theory.append(theory[0])  # the same rule object twice
    candidate = valid_rule(rng, vocabulary, onto)
    invariants = [
        Invariant(f"inv{i}", valid_rule(rng, vocabulary, onto))
        for i in range(rng.randint(0, 2))
    ]
    return theory, candidate, invariants


def small_vocabulary(onto):
    """Three predicates, so random rules often clash and entail each other."""
    return replace(
        onto, predicates={p: onto.predicates[p] for p in ("collide", "dense", "merge_ok")}
    )


def named(db, clauses):
    """Clauses as sets of signed atom names, independent of atom numbering."""
    names = list(db.atoms)
    return {frozenset((lit > 0, names[abs(lit) - 1]) for lit in clause) for clause in clauses}


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
def test_subset_and_extension_clause_sets_equal_fresh_groundings(onto, mode):
    vocabulary = small_vocabulary(onto)
    rng = random.Random(f"clause-sets-{mode}")
    added = Counter()
    for case in range(60):
        config = GroundingConfig.default(onto, case % 3 + 1, mode)
        rules = [valid_rule(rng, vocabulary, onto) for _ in range(rng.randint(1, 5))]
        db = ground(rules, config, onto)
        indexes = sorted(rng.sample(range(len(rules)), rng.randint(0, len(rules))))
        fresh = ground([rules[i] for i in indexes], config, onto)
        assert named(db, rule_subset(db, indexes)) == named(fresh, fresh.clauses)

        # an extension adds to db without changing it
        before = (dict(db.atoms), list(db.clauses), dict(db.comparisons), list(db.axioms))
        assumed = valid_rule(rng, vocabulary, onto)
        substitution = rng.choice(rule_substitutions(assumed, config, onto))
        assumptions = [(lit, substitution) for lit in assumed.literals()]
        assumptions += rng.sample(assumptions, rng.randint(0, 1))  # a repeated literal
        attempt = [ground_literal(lit, s) for lit, s in assumptions]
        atoms, clauses = extend(db, attempt, config, onto)
        assert (dict(db.atoms), list(db.clauses), dict(db.comparisons), list(db.axioms)) == before
        fresh = ground(rules, config, onto, assumptions=assumptions)
        assert list(fresh.atoms.items()) == [*db.atoms.items(), *atoms.items()]
        assert len(set(clauses)) == len(clauses) and not set(clauses) & set(db.clauses)
        assert set(db.clauses) | set(clauses) == set(fresh.clauses)
        added["atoms"] += bool(atoms)
        added["axioms"] += len(fresh.axioms) > len(db.axioms)
    assert added["atoms"] and (mode == "opaque" or added["axioms"]), added


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
def test_shared_grounding_matches_fresh_groundings(onto, mode):
    vocabulary = small_vocabulary(onto)
    rng = random.Random(f"shared-grounding-{mode}")
    verdicts = Counter()
    for case in range(60):
        config = GroundingConfig.default(onto, case % 3 + 1, mode)
        theory, candidate, invariants = random_case(rng, vocabulary, onto)
        store = TheoryStore(
            verified_rules=tuple(VerifiedRule(r, "c", "g", "vrep") for r in theory),
            invariants=tuple(invariants),
        )

        expected = reference_verify(theory, candidate, invariants, config, onto)
        report = verify(candidate, store, config, onto)
        verdicts[report.verdict] += 1
        assert report.verdict == expected[0], case
        assert report.consistency.core == expected[1], case
        if expected[2] is not None:
            invariants_result = report.invariants
            actual = (invariants_result.preserved, invariants_result.violated_id,
                      invariants_result.countermodel)
            assert actual == expected[2], case

        consistency = check_consistency(theory, candidate, config, onto)
        assert (consistency.consistent, consistency.core) == reference_consistency(
            theory, candidate, config, onto), case
        if consistency.consistent:
            assert check_entailment(consistency.db) == reference_entailment(
                theory, candidate, config, onto), case
        for with_candidate in (candidate, None):
            rules = [*theory] if with_candidate is None else [*theory, candidate]
            result = check_invariants(ground(rules, config, onto), invariants, config, onto)
            assert (result.preserved, result.violated_id, result.countermodel) == (
                reference_invariants(theory, with_candidate, invariants, config, onto)), case

        satisfiable = _solve_db(ground(theory, cold(config), onto)) is not None
        preserved = reference_invariants(theory, None, invariants, config, onto)[0]
        assert theory_soundness(store, config, onto)[0] == (satisfiable and preserved), case
    assert set(verdicts) == {"Inconsistent", "Redundant", "Unsafe", "Accepted"}, verdicts


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
def test_kept_groundings_verify_a_sequence_like_cold_configs(onto, mode):
    """Candidates verified in turn on one config, each Accepted one committed
    before the next, as a batch does: the config's kept groundings are the
    previous theory (after a rejection) and the previous theory plus
    candidate (after a commit), and every report equals a cold config's."""
    vocabulary = small_vocabulary(onto)
    rng = random.Random(f"sequence-{mode}")
    verdicts = Counter()
    for case in range(30):
        config = GroundingConfig.default(onto, case % 3 + 1, mode)
        theory, _, invariants = random_case(rng, vocabulary, onto)
        store = TheoryStore(
            verified_rules=tuple(VerifiedRule(r, "c", "g", "vrep") for r in theory),
            invariants=tuple(invariants),
        )
        for _ in range(8):
            if store.verified_rules and rng.random() < 0.15:  # a rule of the theory again
                candidate = rng.choice(store.verified_rules).rule
            else:
                candidate = valid_rule(rng, vocabulary, onto)
            report = verify(candidate, store, config, onto).to_json_dict()
            assert report == verify(candidate, store, cold(config), onto).to_json_dict(), case
            assert len(config.groundings) <= 2
            verdicts[report["verdict"]] += 1
            if report["verdict"] == "Accepted":
                rule = VerifiedRule(candidate, "c", "g", report["id"])
                store = replace(store, verified_rules=(*store.verified_rules, rule))
    assert min(verdicts[v] for v in ("Inconsistent", "Redundant", "Unsafe", "Accepted")) >= 5, verdicts


# --- the attempt table against the per-attempt loop ---

class _Overlay(ChainMap):
    """New entries over a base mapping that they never shadow, so its length
    is the sum of the two; ChainMap's own length unions every key."""

    def __len__(self) -> int:
        return sum(map(len, self.maps))


def reference_extend(db, assumptions, config, onto):
    """`extend` as it was before the attempt table: each assumed literal,
    a (literal, substitution) pair, rendered and interned into an overlay
    of db's tables."""
    atoms = {}
    comparisons = {}
    overlay = ClauseDB(_Overlay(atoms, db.atoms), _Overlay(comparisons, db.comparisons))
    units = []
    for lit, substitution in assumptions:
        number = overlay.intern(lit.inner, substitution)
        units.append(frozenset([-number if lit.negated else number]))
    axioms = []
    if config.comparison_mode == "interval-axioms" and comparisons:
        axioms = comparison_axioms(overlay.comparisons, overlay.atoms, onto)
    known = db.index.ids
    return atoms, [c for c in dict.fromkeys(chain(units, axioms)) if c not in known]


def reference_attempts(db, invariants, config, onto):
    """Each attempt's extension of db, in the order `check_invariants` as it
    was before the attempt table tried them."""
    return [
        reference_extend(db, [*((lit, s) for lit in invariant.rule.body), (head_lit.complement(), s)],
                         config, onto)
        for invariant in invariants
        for s in rule_substitutions(invariant.rule, config, onto)
        for head_lit in invariant.rule.head
    ]


def reference_check_invariants(db, invariants, config, onto):
    """`check_invariants` as it was before the attempt table."""
    for invariant in invariants:
        for substitution in rule_substitutions(invariant.rule, config, onto):
            assumptions = [(lit, substitution) for lit in invariant.rule.body]
            for head_lit in invariant.rule.head:
                negated = [*assumptions, (head_lit.complement(), substitution)]
                atoms, clauses = reference_extend(db, negated, config, onto)
                model = sat.solve(db.index, len(db.atoms) + len(atoms), extra=clauses)
                if model is not None:
                    countermodel = render_model({**db.atoms, **atoms}, model)
                    return InvariantResult(False, invariant.id, countermodel)
    return InvariantResult(True)


def two_sort_vocabularies(onto):
    """Predicates over two sorts, and the same names with `dense` over the
    other sort, so that one rule's variable has a sort under each."""
    vocabulary = replace(onto, predicates={
        "collide": onto.predicates["collide"],
        "dense": onto.predicates["dense"],
        "near": PredicateDecl(2, ("vehicle", "zone")),
        "clear": PredicateDecl(1, ("zone",)),
    })
    by_zone = replace(vocabulary, predicates={**vocabulary.predicates, "dense": PredicateDecl(1, ("zone",))})
    return vocabulary, by_zone


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
@pytest.mark.parametrize("domain_size", [1, 2, 3])
def test_attempt_table_checks_invariants_like_the_per_attempt_loop(onto, mode, domain_size):
    """Seeded sequences of candidates on one config, some committed, under
    two ontologies: every attempt's new atoms and clauses, and every
    InvariantResult, equal the per-attempt loop's."""
    vocabularies = two_sort_vocabularies(onto)
    config = GroundingConfig.default(vocabularies[0], domain_size, mode)
    seen = Counter()
    for seed in range(12):
        rng = random.Random(f"attempts-{mode}-{domain_size}-{seed}")
        theory = [random_rule(rng, vocabularies[0]) for _ in range(rng.randint(0, 3))]
        rules = [random_rule(rng, vocabularies[0]) for _ in range(rng.randint(1, 3))]
        rules.append(Rule(rules[0].quantified_vars, rules[0].head, ()))  # an empty body
        invariants = [Invariant(f"inv{i}", rule) for i, rule in enumerate(rules)]
        for _ in range(6):
            vocabulary = rng.choice(vocabularies)
            candidate = random_rule(rng, vocabulary)
            db = ground([*theory, candidate], config, vocabulary)
            expected = reference_attempts(db, invariants, config, vocabulary)
            actual = [
                extend(db, attempt, config, vocabulary)
                for invariant in invariants
                for attempt in invariant_attempts(invariant.rule, config, vocabulary)
            ]
            assert [(list(a.items()), c) for a, c in actual] == [(list(a.items()), c) for a, c in expected]
            result = check_invariants(db, invariants, config, vocabulary)
            assert result == reference_check_invariants(db, invariants, config, vocabulary)
            for atoms, clauses in actual:
                seen["new atoms"] += bool(atoms)
                seen["axioms"] += any(len(clause) > 1 for clause in clauses)
            seen["violated"] += not result.preserved
            if rng.random() < 0.5:
                theory.append(candidate)
    sorts = {rule: set() for rule, _ in config.attempts}
    for rule, key in config.attempts:
        sorts[rule].add(key)
    seen["two sorts"] = sum(len(keys) > 1 for keys in sorts.values())
    assert seen["new atoms"] and seen["violated"] and seen["two sorts"], seen
    assert mode == "opaque" or seen["axioms"], seen


def test_attempt_table_is_memoized_per_rule_content_and_sorts(onto):
    vocabulary, by_zone = two_sort_vocabularies(onto)
    config = GroundingConfig({"vehicle": ("v1", "v2"), "zone": ("z1",)}, "interval-axioms")
    rule = parse_rule("forall X . not dense(X) <- speed(X) > 50 and dense(X)")
    attempts = invariant_attempts(rule, config, vocabulary)
    assert invariant_attempts(replace(rule, id="r-twin"), config, vocabulary) is attempts
    assert [[(name, negated) for name, negated, _ in attempt] for attempt in attempts] == [
        [("speed(v1) > 50", False), ("dense(v1)", False), ("dense(v1)", False)],
        [("speed(v2) > 50", False), ("dense(v2)", False), ("dense(v2)", False)],
    ]
    assert attempts[0][0][2] == ground_literal(rule.body[0], {"X": "v1"})[2]
    assert attempts[0][0][2].subject.name == "v1" and attempts[0][1][2] is None
    zoned = invariant_attempts(rule, config, by_zone)
    assert [attempt[1][0] for attempt in zoned] == ["dense(z1)"]
    assert sorted(key[1] for key in config.attempts) == [("vehicle",), ("zone",)]
