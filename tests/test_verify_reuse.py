"""Verification over one shared grounding against the reference composition,
which grounds its rules afresh for every check, on a config of its own so
that no grounding the config keeps is reused, grounds each invariant
attempt's assumed literals with them in the per-instance loop
(`reference_ground`), and solves each grounding with the reference DPLL
solver, not with `rulesynth.sat`.

Verdicts, conflict cores and countermodels must be equal on seeded random
theories, candidates and invariants in both comparison modes and at domain
sizes 1 to 3.  One rule in four is a threshold rule (`p(X) and not p(Y)`),
whose verdict depends on how many constants a sort has.  A `verify`
report's countermodel is compared with the full-walk reference of
`test_canonical_attempts`, which copies the model over the small-model
bound out to every constant as `verify` does.
"""

import random
from collections import ChainMap, Counter
from dataclasses import replace
from itertools import chain

import pytest

from rulesynth import grounding, sat
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
from conftest import grounding_parts
from reference_canonical import canonical_substitutions
from reference_grounding import reference_ground
from rulegen import is_threshold_rule, random_rule, threshold_rule
from test_canonical_attempts import full_walk, reference_bound


# --- reference: one fresh grounding per check ---

def cold(config):
    """The same grounding settings with an empty map of groundings and no
    memoized attempts."""
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
                db = reference_ground(rules, config, onto, negated)
                model = _solve_db(db)
                if model is not None:
                    return False, invariant.id, render_model(db.atoms, model)
    return True, None, ()


def reference_verify(theory, candidate, invariants, config, onto):
    """(verdict, core, invariant outcome) as the staged pipeline decides
    them.  An Unsafe report's countermodel is the violated attempt's model
    over the small-model bound copied out to `config`, as `verify` reports
    it; `full_walk` derives it with a bound and a copy of its own."""
    consistent, core = reference_consistency(theory, candidate, config, onto)
    if not consistent:
        return "Inconsistent", core, None
    if reference_entailment(theory, candidate, config, onto):
        return "Redundant", (), None
    outcome = reference_invariants(theory, candidate, invariants, config, onto)
    if not outcome[0]:
        bound = reference_bound(config, onto, [candidate, *(i.rule for i in invariants)])
        violated = next(i.rule for i in invariants if i.id == outcome[1])
        outcome = (False, outcome[1], full_walk([*theory, candidate], violated, config, onto, bound))
    return ("Accepted" if outcome[0] else "Unsafe"), (), outcome


# --- random cases ---

def valid_rule(rng, vocabulary, onto):
    while True:
        rule = random_rule(rng, vocabulary)
        if not validate_schema(rule, onto):
            return rule


def some_rule(rng, vocabulary, onto):
    """A threshold rule one time in four, else a schema-valid random rule."""
    return threshold_rule(rng, vocabulary) if rng.random() < 0.25 else valid_rule(rng, vocabulary, onto)


def random_case(rng, vocabulary, onto):
    theory = [some_rule(rng, vocabulary, onto) for _ in range(rng.randint(0, 4))]
    if theory and rng.random() < 0.2:
        theory.append(theory[0])  # the same rule object twice
    candidate = some_rule(rng, vocabulary, onto)
    invariants = [
        Invariant(f"inv{i}", some_rule(rng, vocabulary, onto))
        for i in range(rng.randint(0, 2))
    ]
    return theory, candidate, invariants


def thresholds(theory, candidate, invariants):
    """Which parts of a case hold a threshold rule."""
    return Counter({
        "threshold theory": any(map(is_threshold_rule, theory)),
        "threshold candidate": is_threshold_rule(candidate),
        "threshold invariant": any(is_threshold_rule(i.rule) for i in invariants),
    })


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
        fresh = reference_ground(rules, config, onto, assumptions)
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
    drawn = Counter()
    for case in range(60):
        config = GroundingConfig.default(onto, case % 3 + 1, mode)
        theory, candidate, invariants = random_case(rng, vocabulary, onto)
        drawn += thresholds(theory, candidate, invariants)
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
            assert check_entailment(ground(theory, config, onto), candidate, config, onto) == (
                reference_entailment(theory, candidate, config, onto)), case
        for with_candidate in (candidate, None):
            rules = [*theory] if with_candidate is None else [*theory, candidate]
            result = check_invariants(ground(rules, config, onto), invariants, config, onto)
            assert (result.preserved, result.violated_id, result.countermodel) == (
                reference_invariants(theory, with_candidate, invariants, config, onto)), case

        satisfiable = _solve_db(ground(theory, cold(config), onto)) is not None
        preserved = reference_invariants(theory, None, invariants, config, onto)[0]
        assert theory_soundness(store, config, onto)[0] == (satisfiable and preserved), case
    assert set(verdicts) == {"Inconsistent", "Redundant", "Unsafe", "Accepted"}, verdicts
    assert min(drawn.values()) >= 8 and len(drawn) == 3, drawn


def random_sequence(rng, vocabulary, onto):
    """A store and eight candidates, now and then a rule of the theory or
    an earlier candidate again."""
    theory, _, invariants = random_case(rng, vocabulary, onto)
    store = TheoryStore(
        verified_rules=tuple(VerifiedRule(r, "c", "g", "vrep") for r in theory),
        invariants=tuple(invariants),
    )
    candidates = []
    for _ in range(8):
        if (theory or candidates) and rng.random() < 0.15:
            candidates.append(rng.choice([*theory, *candidates]))
        else:
            candidates.append(valid_rule(rng, vocabulary, onto))
    return store, candidates


def verify_sequence(store, candidates, config, onto):
    """Each candidate's report on `config`, each Accepted one committed
    before the next, as a batch does; each report must equal a cold
    config's."""
    reports = []
    for candidate in candidates:
        report = verify(candidate, store, config, onto).to_json_dict()
        assert report == verify(candidate, store, cold(config), onto).to_json_dict()
        reports.append(report)
        if report["verdict"] == "Accepted":
            rule = VerifiedRule(candidate, "c", "g", report["id"])
            store = replace(store, verified_rules=(*store.verified_rules, rule))
    return reports


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
def test_kept_groundings_verify_a_sequence_like_cold_configs(onto, mode):
    """Candidates verified in turn on one config: the config holds the
    previous theory (after a rejection) and the previous theory plus
    candidate (after a commit), and every report equals a cold config's."""
    vocabulary = small_vocabulary(onto)
    rng = random.Random(f"sequence-{mode}")
    verdicts = Counter()
    for case in range(30):
        config = GroundingConfig.default(onto, case % 3 + 1, mode)
        store, candidates = random_sequence(rng, vocabulary, onto)
        reports = verify_sequence(store, candidates, config, onto)
        verdicts.update(report["verdict"] for report in reports)
    assert min(verdicts[v] for v in ("Inconsistent", "Redundant", "Unsafe", "Accepted")) >= 5, verdicts


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
def test_grounding_map_verifies_a_sequence_again_like_cold_configs(onto, mode):
    """The same sequences verified twice on one config, as the benchmark's
    suite does across passes: every grounding of the second pass is one
    the map kept from the first, and every report equals a cold config's."""
    vocabulary = small_vocabulary(onto)
    rng = random.Random(f"sequence-again-{mode}")
    verdicts = Counter()
    for case in range(30):
        config = GroundingConfig.default(onto, case % 3 + 1, mode)
        store, candidates = random_sequence(rng, vocabulary, onto)
        first = verify_sequence(store, candidates, config, onto)
        kept = {key: db for key, (_, _, db) in config.groundings.items()}
        reports = verify_sequence(store, candidates, config, onto)
        assert reports == first, case
        assert config.groundings.keys() == kept.keys(), case
        assert all(config.groundings[key][2] is db for key, db in kept.items()), case
        verdicts.update(report["verdict"] for report in reports)
    assert min(verdicts[v] for v in ("Inconsistent", "Redundant", "Unsafe", "Accepted")) >= 5, verdicts


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
def test_grounding_map_grounds_a_theory_and_its_candidate_in_either_order(onto, mode):
    """Theory plus candidate grounded before the theory, and after it: both
    groundings equal the per-instance loop's, entailment answers as the
    reference does, and the map holds one entry per rule tuple asked for."""
    vocabulary = small_vocabulary(onto)
    rng = random.Random(f"order-{mode}")
    answers = Counter()
    for case in range(40):
        theory, candidate, _ = random_case(rng, vocabulary, onto)
        extended = [*theory, candidate]
        for asked in ([extended, theory], [theory, extended]):
            config = GroundingConfig.default(onto, case % 3 + 1, mode)
            for rules in asked:
                assert grounding_parts(ground(rules, config, onto)) == grounding_parts(
                    reference_ground(rules, config, onto)), case
            if reference_consistency(theory, candidate, config, onto)[0]:
                entailed = check_entailment(ground(theory, config, onto), candidate, config, onto)
                assert entailed == reference_entailment(theory, candidate, config, onto), case
                answers[entailed] += 1
            assert len(config.groundings) == 2, case
    assert answers[True] and answers[False], answers


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
@pytest.mark.parametrize("domain_size", [1, 2, 3])
def test_redundancy_and_invariants_give_one_entailment_answer(onto, mode, domain_size):
    """On random cases, consistent or not: redundancy equals the reference
    and equals the invariants stage's answer for the candidate as the
    only invariant, over the theory's grounding; redundancy grounds
    nothing, so the config's map of groundings does not change."""
    vocabulary = small_vocabulary(onto)
    rng = random.Random(f"one-entailment-{mode}-{domain_size}")
    answers = Counter()
    drawn = Counter()
    for case in range(40):
        config = GroundingConfig.default(onto, domain_size, mode)
        theory, candidate, _ = random_case(rng, vocabulary, onto)
        drawn += thresholds(theory, candidate, ())
        theory_db = ground(theory, config, onto)
        kept = dict(config.groundings)
        entailed = check_entailment(theory_db, candidate, config, onto)
        assert config.groundings == kept, case
        assert entailed == reference_entailment(theory, candidate, config, onto), case
        assert entailed == check_invariants(theory_db, [Invariant("c", candidate)], config, onto).preserved, case
        answers[entailed] += 1
    assert answers[True] and answers[False], answers
    assert drawn["threshold theory"] >= 5 and drawn["threshold candidate"] >= 5, drawn


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
    """Each canonical attempt's extension of db, in the order
    `check_invariants` as it was before the attempt table tried them."""
    return [
        reference_extend(db, [*((lit, s) for lit in invariant.rule.body), (head_lit.complement(), s)],
                         config, onto)
        for invariant in invariants
        for s in canonical_substitutions(invariant.rule, config, onto)
        for head_lit in invariant.rule.head
    ]


def reference_check_invariants(db, invariants, config, onto):
    """`check_invariants` as it was before the attempt table, over every
    substitution."""
    for invariant in invariants:
        for substitution in rule_substitutions(invariant.rule, config, onto):
            assumptions = [(lit, substitution) for lit in invariant.rule.body]
            for head_lit in invariant.rule.head:
                negated = [*assumptions, (head_lit.complement(), substitution)]
                atoms, clauses = reference_extend(db, negated, config, onto)
                model = sat.solve(db.index, extra=clauses)
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
    two ontologies: every canonical attempt's new atoms and clauses equal
    the per-attempt loop's over the canonical substitutions, and every
    InvariantResult equals the per-attempt loop's over all of them."""
    vocabularies = two_sort_vocabularies(onto)
    config = GroundingConfig.default(vocabularies[0], domain_size, mode)
    seen = Counter()
    for seed in range(12):
        rng = random.Random(f"attempts-{mode}-{domain_size}-{seed}")
        theory = [random_rule(rng, vocabularies[0]) for _ in range(rng.randint(0, 3))]
        rules = [random_rule(rng, vocabularies[0]) for _ in range(rng.randint(1, 3))]
        rules.append(Rule(rules[0].quantified_vars, rules[0].head, ()))  # an empty body
        rules.insert(0, threshold_rule(rng, vocabularies[0]))  # checked first
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
            seen["threshold violated"] += result.violated_id == invariants[0].id
            if rng.random() < 0.5:
                theory.append(candidate)
    sorts = {rule: set() for rule, _, _ in config.attempts}
    for rule, key, _ in config.attempts:
        sorts[rule].add(key)
    seen["two sorts"] = sum(len(keys) > 1 for keys in sorts.values())
    assert seen["new atoms"] and seen["violated"] and seen["two sorts"], seen
    assert domain_size == 1 or seen["threshold violated"], seen  # one constant per sort rarely violates one
    assert mode == "opaque" or seen["axioms"], seen


def test_attempt_table_is_memoized_per_rule_content_and_sorts(onto):
    vocabulary, by_zone = two_sort_vocabularies(onto)
    config = GroundingConfig({"vehicle": ("v1", "v2"), "zone": ("z1",)}, "interval-axioms")
    rule = parse_rule("forall X . not dense(X) <- speed(X) > 50 and dense(X)")
    attempts = tuple(invariant_attempts(rule, config, vocabulary))
    twin = tuple(invariant_attempts(replace(rule, id="r-twin"), config, vocabulary))
    assert list(map(id, twin)) == list(map(id, attempts))  # the memoized objects
    assert [[(name, negated) for name, negated, _ in attempt] for attempt in attempts] == [
        [("speed(v1) > 50", False), ("dense(v1)", False), ("dense(v1)", False)],
    ]  # X = v2 is the same attempt up to swapping v1 and v2
    assert attempts[0][0][2] == ground_literal(rule.body[0], {"X": "v1"})[2]
    assert attempts[0][0][2].subject.name == "v1" and attempts[0][1][2] is None
    zoned = tuple(invariant_attempts(rule, config, by_zone))
    assert [attempt[1][0] for attempt in zoned] == ["dense(z1)"]
    assert sorted(key[1] for key in config.attempts) == [("vehicle",), ("zone",)]


def test_attempt_table_is_rendered_whole_and_memoized_on_the_first_walk(onto, monkeypatch):
    """A walk that stops at its first attempt still renders and memoizes
    the whole table; a later walk renders nothing and gets the same tuple."""
    rendered = []
    monkeypatch.setattr(grounding, "ground_literal", lambda *args: rendered.append(args) or ground_literal(*args))
    config = GroundingConfig.default(onto, 3)
    candidate = parse_rule("forall X, Y . not collide(X) <- sd_front(X) and sd_rear(Y)", onto)
    assert not check_entailment(ground([], config, onto), candidate, config, onto)  # novel at (v1, v1)
    assert len(rendered) == 2 * 3  # (v1, v1) and (v1, v2): two body literals and one head literal each
    (memoized,) = config.attempts.values()
    assert len(memoized) == 2
    assert check_entailment(ground([candidate], config, onto), candidate, config, onto)  # redundant
    assert invariant_attempts(candidate, config, onto) is memoized
    assert len(rendered) == 6 and len(config.attempts) == 1
