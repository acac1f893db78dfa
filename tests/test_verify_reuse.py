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
from collections import Counter
from dataclasses import replace

import pytest

from rulesynth.fol import validate_schema
from rulesynth.grounding import (
    GroundingConfig,
    extend,
    ground,
    render_model,
    rule_subset,
    rule_substitutions,
)
from rulesynth.store import Invariant, TheoryStore, VerifiedRule
from rulesynth.verify import (
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
        atoms, clauses = extend(db, assumptions, config, onto)
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
