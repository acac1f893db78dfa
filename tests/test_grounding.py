import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulesynth import grounding, sat
from rulesynth.fol import (
    AttributeDecl,
    Atom,
    Comparison,
    Literal,
    Ontology,
    PredicateDecl,
    Rule,
    const,
    parse_rule,
    render_inner,
    render_literal,
)
from rulesynth.grounding import (
    MAX_INSTANCES,
    ClauseDB,
    GroundingConfig,
    GroundingError,
    extend,
    ground,
    ground_literal,
    invariant_attempts,
    rule_substitutions,
)
from rulesynth.store import Invariant, TheoryStore, VerifiedRule
from rulesynth.verify import verify

from conftest import COLLIDE_RULE, DENSE_RULE, grounding_parts, many_variable_rule
from reference_grounding import reference_ground
from rulegen import random_rule


def one_constant(onto):
    return GroundingConfig({"vehicle": ("a",)})


def signed_names(db, clause):
    names = list(db.atoms)
    return {(names[abs(l) - 1], l > 0) for l in clause}


def test_collide_rule_single_constant(onto):
    rule = parse_rule(COLLIDE_RULE, onto)
    db = ground([rule], one_constant(onto), onto)
    assert len(db.clauses) == 1
    assert signed_names(db, db.clauses[0]) == {
        ("sd_front(a)", False),
        ("sd_rear(a)", False),
        ("lane_change(a)", True),
        ("collide(a)", False),
    }


def test_conjunctive_head_splits_into_two_clauses(onto):
    rule = parse_rule(DENSE_RULE, onto)
    db = ground([rule], one_constant(onto), onto)
    assert len(db.clauses) == 2
    assert signed_names(db, db.clauses[0]) == {("dense(a)", True), ("sd_front(a)", True)}
    assert signed_names(db, db.clauses[1]) == {("dense(a)", True), ("sd_rear(a)", True)}


def test_variable_free_rule_grounds_once(onto):
    rule = Rule(
        (),
        (Literal(False, Atom("collide", (const("ego"),))),),
        (Literal(False, Atom("dense", (const("ego"),))),),
    )
    db = ground([rule], one_constant(onto), onto)
    assert len(db.clauses) == 1
    assert signed_names(db, db.clauses[0]) == {("dense(ego)", False), ("collide(ego)", True)}


def test_clause_count_is_heads_times_domain_product():
    onto = Ontology(
        predicates={
            "near": PredicateDecl(2, ("vehicle", "zone")),
            "clear": PredicateDecl(1, ("zone",)),
            "stopped": PredicateDecl(1, ("vehicle",)),
        },
        numeric_attributes={},
        constants={},
    )
    rule = parse_rule("forall X, Z . stopped(X) and clear(Z) <- near(X, Z)")
    config = GroundingConfig({"vehicle": ("v1", "v2", "v3"), "zone": ("z1", "z2")})
    db = ground([rule], config, onto)
    assert len(db.clauses) == 2 * 3 * 2  # m=2 head literals, 3 * 2 substitutions


def test_duplicate_clauses_are_deduplicated(onto):
    rule = parse_rule(COLLIDE_RULE, onto)
    db = ground([rule, rule], one_constant(onto), onto)
    assert len(db.clauses) == 1


def test_default_config_names_constants_per_sort(onto):
    config = GroundingConfig.default(onto, 3)
    assert config.domain_constants["vehicle"] == ("vehicle1", "vehicle2", "vehicle3")
    with pytest.raises(GroundingError):
        GroundingConfig.default(onto, 0)


def test_default_pools_that_name_one_constant_twice_are_refused():
    """Sorts `v` and `v1`: at domain 11, `v`'s eleventh fresh constant is
    `v1`'s first, so `speed(v11)` would be an attribute of both a `v` and
    a `v1`, and a theory about every `v` would decide a candidate about
    every `v1`.  Domain 10 names every constant once."""
    onto = Ontology(
        predicates={"p": PredicateDecl(1, ("v",)), "q": PredicateDecl(1, ("v1",))},
        numeric_attributes={"speed": AttributeDecl("km/h", (Fraction(0), Fraction(10)))},
        constants={},
    )
    with pytest.raises(GroundingError, match="^constants pooled more than once: 'v11'$"):
        GroundingConfig.default(onto, 11)
    theory = [parse_rule(text, onto) for text in (
        "forall X . speed(X) > 5 <- p(X)", "forall X . p(X) <- true", "forall Y . q(Y) <- true",
    )]
    store = TheoryStore(verified_rules=tuple(VerifiedRule(rule, "c", "g", "vrep") for rule in theory))
    candidate = parse_rule("forall Y . not speed(Y) > 5 <- q(Y)", onto)
    assert verify(candidate, store, GroundingConfig.default(onto, 10), onto).verdict == "Accepted"


def test_a_domain_size_above_the_instance_bound_is_refused(onto):
    with pytest.raises(GroundingError, match=f"^domain size {MAX_INSTANCES + 1} exceeds {MAX_INSTANCES}"):
        GroundingConfig.default(onto, MAX_INSTANCES + 1)


def test_a_rule_with_more_instances_than_the_bound_is_refused_before_grounding(onto, monkeypatch):
    config = GroundingConfig.default(onto, 2)
    wide = parse_rule(many_variable_rule(21), onto)  # 2^21 instances
    message = f"^rule {wide.id} has {2**21} ground instances, more than {MAX_INSTANCES}$"
    with pytest.raises(GroundingError, match=message):
        ground([wide], config, onto)
    with pytest.raises(GroundingError, match=message):
        verify(wide, TheoryStore(), config, onto)
    assert [rules for _, rules, _ in config.groundings.values()] == [()]  # the empty theory only
    monkeypatch.setattr(grounding, "MAX_INSTANCES", 8)
    three, four = (parse_rule(many_variable_rule(k), onto) for k in (3, 4))
    assert len(ground([three], config, onto).rule_clauses[0]) == 8  # at the bound
    with pytest.raises(GroundingError, match=f"^rule {four.id} has 16 ground instances, more than 8$"):
        ground([three, four], config, onto)


@pytest.mark.parametrize("k", [22, 30])
def test_an_attempt_table_past_the_instance_bound_is_refused_before_rendering(onto, k):
    """A k-variable rule at domain 2 has 2^(k-1) canonical substitutions:
    the first variable takes vehicle1, every other either constant."""
    config = GroundingConfig.default(onto, 2)
    wide = parse_rule(many_variable_rule(k), onto)
    message = f"^rule {wide.id} has {2 ** (k - 1)} canonical substitutions, more than {MAX_INSTANCES}$"
    with pytest.raises(GroundingError, match=message):
        invariant_attempts(wide, config, onto)
    assert not config.attempts
    store = TheoryStore(invariants=(Invariant("inv-wide", wide),))
    with pytest.raises(GroundingError, match=message):
        verify(parse_rule(DENSE_RULE, onto), store, config, onto)
    assert wide not in {rule for rule, _, _ in config.attempts}


def test_missing_sort_constants_is_grounding_error(onto):
    rule = parse_rule(COLLIDE_RULE, onto)
    with pytest.raises(GroundingError):
        ground([rule], GroundingConfig({"lane": ("l1",)}), onto)


def test_opaque_mode_keeps_comparisons_independent(onto):
    strong = parse_rule("forall X . merge_ok(X) <- speed(X) > 50", onto)
    weak = parse_rule("forall X . merge_ok(X) <- speed(X) > 30", onto)
    db = ground([strong, weak], one_constant(onto), onto)
    assert "speed(a) > 50" in db.atoms and "speed(a) > 30" in db.atoms
    assert len(db.clauses) == 2  # no axioms linking the two thresholds


def test_interval_axioms_link_same_attribute_comparisons(onto):
    strong = parse_rule("forall X . merge_ok(X) <- speed(X) > 50", onto)
    weak = parse_rule("forall X . merge_ok(X) <- speed(X) > 30", onto)
    config = GroundingConfig({"vehicle": ("a",)}, comparison_mode="interval-axioms")
    db = ground([strong, weak], config, onto)
    high = db.atoms["speed(a) > 50"]
    low = db.atoms["speed(a) > 30"]
    # speed(a) > 50 implies speed(a) > 30: the pattern (True, False) is
    # impossible over the declared domain
    assert frozenset({-high, low}) in db.clauses


def test_interval_axioms_exclude_contradictory_pairs(onto):
    a = parse_rule("forall X . merge_ok(X) <- speed(X) > 100", onto)
    b = parse_rule("forall X . merge_ok(X) <- speed(X) < 30", onto)
    config = GroundingConfig({"vehicle": ("a",)}, comparison_mode="interval-axioms")
    db = ground([a, b], config, onto)
    fast = db.atoms["speed(a) > 100"]
    slow = db.atoms["speed(a) < 30"]
    assert frozenset({-fast, -slow}) in db.clauses


def test_interval_axioms_unit_clauses_for_degenerate_comparisons(onto):
    never = parse_rule("forall X . merge_ok(X) <- speed(X) > 150", onto)
    always = parse_rule("forall X . merge_ok(X) <- speed(X) >= 0", onto)
    config = GroundingConfig({"vehicle": ("a",)}, comparison_mode="interval-axioms")
    db = ground([never, always], config, onto)
    assert frozenset({-db.atoms["speed(a) > 150"]}) in db.clauses
    assert frozenset({db.atoms["speed(a) >= 0"]}) in db.clauses


def test_fraction_values_intern_canonically(onto):
    a = parse_rule("forall X . traction(X) <- friction(X) >= 0.5", onto)
    db = ground([a], one_constant(onto), onto)
    assert "friction(a) >= 0.5" in db.atoms
    assert db.comparisons["friction(a) >= 0.5"].value == Fraction(1, 2)


def test_comparison_only_rule_grounds_over_default_sort(onto):
    rule = parse_rule("forall X . speed(X) < 50 <- friction(X) >= 0.5", onto)
    db = ground([rule], GroundingConfig({"vehicle": ("a", "b")}), onto)
    assert len(db.clauses) == 2
    assert "speed(a) < 50" in db.atoms and "speed(b) < 50" in db.atoms


def test_assumptions_become_unit_clauses(onto):
    rule = parse_rule(COLLIDE_RULE, onto)
    config = one_constant(onto)
    db = ground([rule], config, onto)
    lit = Literal(True, Atom("collide", (const("a"),)))
    atoms, clauses = extend(db, (ground_literal(lit.complement(), {}),), config, onto)
    assert atoms == {} and clauses == [frozenset({db.atoms["collide(a)"]})]
    assert frozenset({db.atoms["collide(a)"]}) not in db.clauses  # db is left unchanged


def ground_syntax(inner, substitution):
    """The ground atom or comparison as syntax: each variable replaced by
    the constant term the substitution gives it."""

    def term(t):
        return const(substitution[t.name]) if t.kind == "variable" else t

    if isinstance(inner, Atom):
        return Atom(inner.predicate, tuple(map(term, inner.args)))
    return Comparison(inner.attribute, term(inner.subject), inner.op, inner.value)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.fractions(max_denominator=40))
def test_ground_atom_names_render_the_ground_syntax(onto, rng, value):
    rule = random_rule(rng, onto)
    pool = ["vehicle1", "vehicle2", *sorted(onto.constants)]
    substitution = {t.name: rng.choice(pool) for t in rule.quantified_vars}
    for lit in rule.literals():
        inners = [lit.inner]
        if isinstance(lit.inner, Comparison):  # any value, negative and fractional too
            inners.append(replace(lit.inner, value=value))
        for inner in inners:
            ground_atom = ground_syntax(inner, substitution)
            name = render_literal(Literal(False, ground_atom))
            assert render_inner(inner, substitution) == name
            db = ClauseDB()
            assert db.intern(inner, substitution) == 1 and list(db.atoms) == [name]
            assert db.comparisons == ({name: ground_atom} if isinstance(inner, Comparison) else {})
            terms = inner.args if isinstance(inner, Atom) else (inner.subject,)
            variables = {t.name for t in terms if t.kind == "variable"}
            if variables:  # a variable the substitution lacks is never named
                with pytest.raises(KeyError):
                    render_inner(inner, {k: v for k, v in substitution.items() if k not in variables})


# --- the config's map of groundings against the per-instance loop ---

def two_sort_vocabulary(onto):
    """A few predicates over two sorts, so random rules share atoms and
    their variables range over pools of different sizes."""
    return replace(onto, predicates={
        "collide": onto.predicates["collide"],
        "dense": onto.predicates["dense"],
        "near": PredicateDecl(2, ("vehicle", "zone")),
        "clear": PredicateDecl(1, ("zone",)),
    })


def random_assumptions(rng, rules, config, onto):
    if not rules or rng.random() < 0.3:
        return []
    rule = rng.choice(rules)
    substitution = rng.choice(rule_substitutions(rule, config, onto))
    return [(lit, substitution) for lit in rule.literals() if rng.random() < 0.6]


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
@pytest.mark.parametrize("domain_size", [1, 2, 3])
def test_grounding_map_grounds_like_the_per_instance_loop(onto, mode, domain_size):
    vocabulary = two_sort_vocabulary(onto)
    for seed in range(30):
        rng = random.Random(seed)
        config = GroundingConfig.default(vocabulary, domain_size, mode)
        rules = [random_rule(rng, vocabulary) for _ in range(rng.randint(1, 5))]
        expected = grounding_parts(reference_ground(rules, config, vocabulary))
        # the first grounding, then the kept one
        for _ in range(3):
            assert grounding_parts(ground(rules, config, vocabulary)) == expected
        # a rule repeated and the list reordered, on the warm map
        moved = [*rules, rules[0]]
        rng.shuffle(moved)
        assert grounding_parts(ground(moved, config, vocabulary)) == grounding_parts(
            reference_ground(moved, config, vocabulary)
        )


def test_grounding_map_keeps_one_entry_per_rule_tuple_grounded_without_assumptions(onto, monkeypatch):
    built = []

    class CountedIndex(sat.Index):
        def __init__(self, clauses):
            built.append(self)
            super().__init__(clauses)

    monkeypatch.setattr(sat, "Index", CountedIndex)
    config = GroundingConfig.default(onto, 2)
    theory = (parse_rule(COLLIDE_RULE, onto),)
    candidate = parse_rule(DENSE_RULE, onto)
    db = ground([*theory, candidate], config, onto)  # from an empty base: the map lacks the theory
    assert {key: (known, rules) for key, (known, rules, _) in config.groundings.items()} == {
        (id(onto), id(theory[0]), id(candidate)): (onto, (*theory, candidate)),
    }
    assert ground((*theory, candidate), config, onto) is db  # the kept grounding
    base = ground(theory, config, onto)  # from an empty base
    assert len(built) == 2
    committed = ground([*theory, candidate, candidate], config, onto)  # laid over db, after a commit
    rejected = ground([*theory, theory[0]], config, onto)  # laid over base, after a rejection
    assert len(built) == 2  # laying a rule over a kept grounding extends its index
    empty = ground((), config, onto)
    assert ground([], config, onto) is empty and ground(theory, config, onto) is base
    assert len(config.groundings) == 5
    for known, rules, kept in config.groundings.values():
        assert grounding_parts(kept) == grounding_parts(reference_ground(rules, config, known))
    assert [config.groundings[(id(onto), *map(id, rules))][2] for rules in (
        (*theory, candidate), theory, (*theory, candidate, candidate), (*theory, theory[0]), ()
    )] == [db, base, committed, rejected, empty]


def test_grounding_map_grounds_twins_and_a_second_ontology_afresh(onto):
    """Content-equal but distinct rule objects, and one config under two
    ontologies that give X different sorts, miss the map and ground like
    the per-instance loop."""
    by_vehicle = replace(onto, predicates={"p": PredicateDecl(1, ("vehicle",))})
    by_zone = replace(onto, predicates={"p": PredicateDecl(1, ("zone",))})
    config = GroundingConfig({"vehicle": ("v1", "v2"), "zone": ("z1",)})
    rule = parse_rule("forall X . p(X) <- true")
    twin = replace(rule, id="r-twin")
    assert twin == rule and twin is not rule
    for vocabulary, rules in [(by_vehicle, [rule]), (by_zone, [rule]), (by_vehicle, [twin]),
                              (by_zone, [rule, twin]), (by_vehicle, [rule])]:
        db = ground(rules, config, vocabulary)
        assert grounding_parts(db) == grounding_parts(reference_ground(rules, config, vocabulary))
    assert list(ground([rule], config, by_zone).atoms) == ["p(z1)"]
    assert sorted(
        (vocabulary is by_zone, [r is twin for r in rules]) for vocabulary, rules, _ in config.groundings.values()
    ) == [(False, [False]), (False, [True]), (True, [False]), (True, [False, True])]


def test_memo_starts_empty_in_a_replaced_config(onto):
    config = GroundingConfig.default(onto, 2)
    ground([parse_rule(COLLIDE_RULE, onto)], config, onto)
    tuple(invariant_attempts(parse_rule(DENSE_RULE, onto), config, onto))
    assert config.groundings and config.attempts
    for copy in (replace(config), replace(config, comparison_mode="interval-axioms")):
        assert copy.groundings == {} and copy.groundings is not config.groundings
        assert copy.attempts == {} and copy.attempts is not config.attempts


def test_memo_leaves_equality_json_and_reports_alone(onto, seed_store):
    warm = GroundingConfig.default(onto, 2)
    cold = GroundingConfig.default(onto, 2)
    rule = parse_rule(DENSE_RULE, onto)
    ground([*seed_store.theory_rules(), rule], warm, onto)
    tuple(invariant_attempts(rule, warm, onto))
    assert warm.groundings and warm.attempts and not cold.groundings and not cold.attempts
    assert warm == cold and repr(warm) == repr(cold)
    assert warm.to_json() == cold.to_json() == {
        "domain_constants": {"vehicle": ["vehicle1", "vehicle2"]},
        "comparison_mode": "opaque",
    }
    report = verify(rule, seed_store, warm, onto).to_json_dict()  # on the kept grounding
    assert report == verify(rule, seed_store, cold, onto).to_json_dict()
    assert report["grounding"] == cold.to_json()


def test_grounding_map_list_constants_ground_like_tuples(onto):
    rule = parse_rule("forall X . merge_ok(X) <- speed(X) > 50 and dense(X)", onto)
    listed = GroundingConfig({"vehicle": ["a", "b"]}, "interval-axioms")
    tupled = GroundingConfig({"vehicle": ("a", "b")}, "interval-axioms")
    for _ in range(3):
        assert grounding_parts(ground([rule], listed, onto)) == grounding_parts(ground([rule], tupled, onto))


# --- the groundings a config keeps, each the base of the next ---

@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
def test_kept_groundings_equal_the_per_instance_loop(onto, mode):
    """Rule lists in the order a batch grounds them: one rule more after a
    commit, the last rule replaced after a rejection, at times with
    assumed literals, a list from scratch or another ontology that gives X
    another sort.  Each grounding, and each grounding the config keeps,
    equals the per-instance loop's, and so does the grounding of its rules
    but the last that the map gives, and the atoms and clauses
    `extend` adds for assumed literals complete the per-instance loop's
    grounding with those literals as unit clauses."""
    vocabulary = two_sort_vocabulary(onto)
    by_zone = replace(vocabulary, predicates={**vocabulary.predicates, "dense": PredicateDecl(1, ("zone",))})
    seen = set()
    for seed in range(20):
        rng = random.Random(f"kept-{seed}")
        config = GroundingConfig.default(vocabulary, seed % 3 + 1, mode)
        rules = [random_rule(rng, vocabulary) for _ in range(rng.randint(0, 3))]
        for _ in range(10):
            move = rng.choice(["commit", "commit", "reject", "reject", "fresh", "assume", "ontology"])
            seen.add(move)
            ontology = by_zone if move == "ontology" else vocabulary
            if move == "fresh" or not rules:
                rules = [random_rule(rng, vocabulary) for _ in range(rng.randint(1, 4))]
            candidate = random_rule(rng, vocabulary)
            listed = [*rules, candidate] if move == "commit" else [*rules[:-1], candidate]
            db = ground(listed, config, ontology)
            assert grounding_parts(db) == grounding_parts(reference_ground(listed, config, ontology))
            assert grounding_parts(ground(listed[:-1], config, ontology)) == grounding_parts(
                reference_ground(listed[:-1], config, ontology))
            if move == "assume":
                assumptions = random_assumptions(rng, listed, config, ontology)
                attempt = [ground_literal(lit, substitution) for lit, substitution in assumptions]
                atoms, clauses = extend(db, attempt, config, ontology)
                assumed = reference_ground(listed, config, ontology, assumptions)
                assert list(assumed.atoms.items()) == [*db.atoms.items(), *atoms.items()]
                assert set(assumed.clauses) == set(db.clauses) | set(clauses)
            if move == "commit":
                rules = listed
        for known, kept_rules, db in config.groundings.values():
            assert grounding_parts(db) == grounding_parts(reference_ground(kept_rules, config, known))
    assert len(seen) == 5
