"""Verdicts at the small-model bound against verdicts at N.

`verify` and `theory_soundness` decide every question over
`GroundingConfig.bounded`: per sort, the declared pool constants and the
first m fresh ones, where m is the most variables of that sort in the
candidate or an invariant.  The reference is the same call with `bounded`
returning the config itself, so that every question is decided over all N
fresh constants.  Soundness answers and every report field but the
countermodel (verdict, core, violated invariant) must be equal on seeded
random cases, and a bound one constant short must make them differ.  An
Unsafe verdict's countermodel is the bound's model copied out to N, not
N's own DPLL model, so it is checked clause by clause over N instead
(`countermodel_check`).
"""

import random
from collections import Counter
from dataclasses import replace
from itertools import islice

import pytest

from rulesynth import grounding
from rulesynth.fol import PredicateDecl, parse_rule, render_rule, rule_sorts, validate_schema
from rulesynth.grounding import GroundingConfig
from rulesynth.store import Invariant, TheoryStore, VerifiedRule
from rulesynth.verify import theory_soundness, verify

from countermodel_check import countermodel_problem
from rulegen import random_rule, threshold_rule

CASES = {1: 10, 2: 30, 3: 30, 4: 20, 5: 12, 6: 8}  # per domain size and mode


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


def random_config(vocabulary, rng, domain_size, mode):
    """The default config, or one that pools the declared `ego` among the
    fresh vehicles, first or later."""
    config = GroundingConfig.default(vocabulary, domain_size, mode)
    if rng.random() < 0.5:
        return config
    vehicles = list(config.domain_constants["vehicle"])
    vehicles.insert(rng.randint(0, len(vehicles)), "ego")
    return GroundingConfig({**config.domain_constants, "vehicle": tuple(vehicles)}, mode)


def valid_rule(rng, vocabulary):
    while True:
        rule = random_rule(rng, vocabulary)
        if not validate_schema(rule, vocabulary):
            return rule


def some_rule(rng, vocabulary):
    return threshold_rule(rng, vocabulary) if rng.random() < 0.25 else valid_rule(rng, vocabulary)


def outcome(store, candidate, config, vocabulary):
    return (
        verify(candidate, store, config, vocabulary).to_json_dict(),
        theory_soundness(store, config, vocabulary),
    )


def without_countermodel(report):
    """The report's fields but the countermodel and the id derived from it."""
    fields = {key: value for key, value in report.items() if key != "id"}
    if report["invariants"] is not None:
        fields["invariants"] = {**report["invariants"], "countermodel": None}
    return fields


def invalid_countermodel(report, rules, invariants, config, vocabulary):
    """What is wrong with an Unsafe report's countermodel over `config`."""
    if report["verdict"] != "Unsafe":
        return None
    violated = next(i.rule for i in invariants if i.id == report["invariants"]["violated_id"])
    return countermodel_problem(report["invariants"]["countermodel"], rules, violated, config, vocabulary)


def cross_check(onto, monkeypatch):
    """Mismatches between the calls over the bound and over N on seeded
    random cases, or countermodels over the bound not valid over N, and
    what the cases covered."""
    bounded = GroundingConfig.bounded
    mismatches = []
    seen = Counter()
    for mode in ("opaque", "interval-axioms"):
        for domain_size, count in CASES.items():
            rng = random.Random(f"small-model-{mode}-{domain_size}")
            for case in range(count):
                vocabulary = rng.choice(vocabularies(onto))
                config = random_config(vocabulary, rng, domain_size, mode)
                theory = [valid_rule(rng, vocabulary) for _ in range(rng.randint(0, 3))]
                candidate = some_rule(rng, vocabulary)
                invariants = [Invariant(f"inv{i}", some_rule(rng, vocabulary)) for i in range(rng.randint(1, 2))]
                store = TheoryStore(
                    verified_rules=tuple(VerifiedRule(r, "c", "g", "vrep") for r in theory),
                    invariants=tuple(invariants),
                )
                actual = outcome(store, candidate, config, vocabulary)
                bound = bounded(config, vocabulary, [candidate, *(i.rule for i in invariants)])
                with monkeypatch.context() as patch:
                    patch.setattr(GroundingConfig, "bounded", lambda self, onto, rules: self)
                    expected = outcome(store, candidate, GroundingConfig(config.domain_constants, mode), vocabulary)
                if (without_countermodel(actual[0]), actual[1]) != (without_countermodel(expected[0]), expected[1]) \
                        or invalid_countermodel(actual[0], [*theory, candidate], invariants, config, vocabulary):
                    mismatches.append((mode, domain_size, case))
                seen[actual[0]["verdict"]] += 1
                seen["unsound"] += not actual[1][0]
                seen["bound shrinks"] += bound is not config
                seen["ego pooled"] += "ego" in config.domain_constants["vehicle"]
                seen["two sorts"] += vocabulary.predicates["dense"].sorts == ("zone",)
                seen["names ego"] += any("ego" in render_rule(r) for r in [*theory, candidate])
                seen["three variables"] += len(candidate.quantified_vars) == 3
    return mismatches, seen


def test_verdicts_at_the_bound_equal_verdicts_at_n(onto, monkeypatch):
    mismatches, seen = cross_check(onto, monkeypatch)
    assert mismatches == [], mismatches
    assert min(seen[v] for v in ("Inconsistent", "Redundant", "Unsafe", "Accepted", "unsound")) >= 10, seen
    assert min(seen[k] for k in ("bound shrinks", "ego pooled", "two sorts", "names ego", "three variables")) >= 20, seen


def test_cross_check_fails_when_the_bound_is_one_constant_short(onto, monkeypatch):
    def one_short(self, onto, rules):
        """`bounded` with m - 1 fresh constants per sort, at least 1."""
        most = Counter()
        for rule in rules:
            for sort, count in Counter(rule_sorts(rule, onto)).items():
                most[sort] = max(most[sort], count)
        fixed = self.fixed_constants(onto)
        pools = {}
        for sort, pool in self.domain_constants.items():
            kept = fixed.union(islice((c for c in pool if c not in fixed), max(most[sort] - 1, 1)))
            pools[sort] = tuple(c for c in pool if c in kept)
        return GroundingConfig(pools, self.comparison_mode)

    monkeypatch.setattr(GroundingConfig, "bounded", one_short)
    mismatches, _ = cross_check(onto, monkeypatch)
    assert mismatches


def test_the_bound_keeps_declared_constants_and_the_first_fresh_ones_in_pool_order(onto):
    config = GroundingConfig({"vehicle": ("vehicle1", "ego", "vehicle2", "vehicle3", "vehicle4")})
    one, two = (parse_rule(text, onto) for text in (
        "forall X . collide(X) <- dense(X)",
        "forall X, Y . collide(X) <- dense(Y)",
    ))
    bound = config.bounded(onto, [one])
    assert bound.domain_constants == {"vehicle": ("vehicle1", "ego")}
    assert config.bounded(onto, [two, one]).domain_constants == {"vehicle": ("vehicle1", "ego", "vehicle2")}
    assert config.bounded(onto, []) is bound  # at least one fresh constant; kept by its pools
    assert config.bounds == {(("vehicle", ("vehicle1", "ego")),): bound,
                             (("vehicle", ("vehicle1", "ego", "vehicle2")),): config.bounded(onto, [two])}
    assert bound.comparison_mode == config.comparison_mode and bound.to_json() != config.to_json()
    undeclared = replace(onto, constants={})  # ego is then an interchangeable constant
    assert config.bounded(undeclared, [one]).domain_constants == {"vehicle": ("vehicle1",)}
    small = GroundingConfig.default(onto, 2)
    assert small.bounded(onto, [two]) is small and not small.bounds  # no pool shrinks


def test_the_bound_is_looked_up_by_the_most_variables_of_each_sort(onto, seed_store):
    """Rules with the same most variables per sort get the very bound
    `bounds` holds, and an added invariant with more variables of a sort
    gets the wider bound."""
    config = GroundingConfig.default(onto, 6)
    two, twin, three = (parse_rule(text, onto) for text in (
        "forall X, Y . collide(X) <- dense(Y)",
        "forall Y, X . not merge_ok(X) <- dense(Y) and not dense(X)",
        "forall X, Y, Z . not collide(X) <- dense(Y) and dense(Z)",
    ))
    invariants = [invariant.rule for invariant in seed_store.invariants]
    bound = config.bounded(onto, [two, *invariants])
    assert config.bounds == {(("vehicle", ("vehicle1", "vehicle2")),): bound}
    assert config.bounded(onto, [twin, *invariants]) is bound
    store = replace(seed_store, invariants=(*seed_store.invariants, Invariant("inv-three", three)))
    wider = config.bounded(onto, [two, *(invariant.rule for invariant in store.invariants)])
    assert config.bounds[(("vehicle", ("vehicle1", "vehicle2", "vehicle3")),)] is wider
    assert config.bounded(onto, [twin, *invariants]) is bound and len(config.bounds) == 2


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
def test_a_batch_grounds_its_theory_once_per_config(onto, seed_store, mode, monkeypatch):
    """Rejected candidates of one, two and three variables against the
    shipped store at domain 6: each theory rule is grounded once over
    each bound, and no rule is grounded over N, not even for the Unsafe
    verdicts' countermodels."""
    grounded = Counter()
    rule_clauses = grounding._rule_clauses

    def counting(rule, config, onto, db):
        grounded[id(config), id(rule)] += 1
        return rule_clauses(rule, config, onto, db)

    monkeypatch.setattr(grounding, "_rule_clauses", counting)
    config = GroundingConfig.default(onto, 6, mode)
    texts = [
        "forall X . attentive(X) <- true",
        "forall X, Y . sd_front(X) and sd_rear(Y) and not lane_change(X) <- true",
        "forall X . speed(X) > 130 <- true",
        "forall X, Y, Z . attentive(X) <- dense(Y) and dense(Z)",
        "forall X, Y . attentive(X) <- dense(Y)",
        "forall X . overtake_right(X) <- true",
    ]
    verdicts = [verify(parse_rule(text, onto), seed_store, config, onto).verdict for text in texts]
    assert "Accepted" not in verdicts and {"Unsafe", "Inconsistent"} <= set(verdicts), verdicts
    configs = {id(bound) for bound in config.bounds.values()}
    theory = seed_store.theory_rules()
    assert len(config.bounds) == 3
    assert {key for key in grounded if key[1] in map(id, theory)} == {
        (c, id(rule)) for c in configs for rule in theory}
    assert all(grounded[c, id(rule)] == 1 for c in configs for rule in theory), grounded
    assert id(config) not in {c for c, _ in grounded} and not config.groundings, grounded
