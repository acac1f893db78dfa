import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulesynth import sat
from rulesynth.fol import (
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
    ClauseDB,
    GroundingConfig,
    GroundingError,
    append_comparison_axioms,
    ground,
    instantiate_rule,
    invariant_attempts,
    rule_substitutions,
)
from rulesynth.verify import verify

from conftest import COLLIDE_RULE, DENSE_RULE
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
    lit = Literal(True, Atom("collide", (const("a"),)))
    db = ground([rule], one_constant(onto), onto, assumptions=[(lit.complement(), {})])
    assert frozenset({db.atoms["collide(a)"]}) in db.clauses


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


# --- the per-rule memo against the per-instance loop ---

def reference_ground(rules, config, onto, assumptions=()):
    """`ground` as it was before each rule's grounding was memoized: every
    instance of every rule interned into one ClauseDB in turn."""
    db = ClauseDB()
    for rule in rules:
        db.rule_clauses.append(tuple(
            clause
            for substitution in rule_substitutions(rule, config, onto)
            for clause in instantiate_rule(rule, substitution, db)
        ))
    units = [
        frozenset([-db.intern(lit.inner, s) if lit.negated else db.intern(lit.inner, s)])
        for lit, s in assumptions
    ]
    if config.comparison_mode == "interval-axioms":
        append_comparison_axioms(db, onto)
    db.index = sat.Index(chain(*db.rule_clauses, units, db.axioms))
    return db


def grounding_parts(db):
    """Everything a grounding determines, orders and duplicates included."""
    return (
        list(db.atoms.items()),
        db.rule_clauses,
        list(db.comparisons.items()),
        db.axioms,
        db.index.clauses,
    )


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
def test_memo_ground_equals_the_per_instance_loop(onto, mode, domain_size):
    vocabulary = two_sort_vocabulary(onto)
    for seed in range(30):
        rng = random.Random(seed)
        config = GroundingConfig.default(vocabulary, domain_size, mode)
        rules = [random_rule(rng, vocabulary) for _ in range(rng.randint(1, 5))]
        assumptions = random_assumptions(rng, rules, config, vocabulary)
        expected = grounding_parts(reference_ground(rules, config, vocabulary, assumptions))
        # first grounding, second (memoizes), third (the entries' numbering again)
        for _ in range(3):
            assert grounding_parts(ground(rules, config, vocabulary, assumptions)) == expected
        # a rule repeated and the list reordered, on the warm memo
        moved = [*rules, rules[0]]
        rng.shuffle(moved)
        assert grounding_parts(ground(moved, config, vocabulary, assumptions)) == grounding_parts(
            reference_ground(moved, config, vocabulary, assumptions)
        )


def test_memo_key_holds_the_sorts_each_ontology_gives(onto):
    """One config, two ontologies that give X different sorts."""
    by_vehicle = replace(onto, predicates={"p": PredicateDecl(1, ("vehicle",))})
    by_zone = replace(onto, predicates={"p": PredicateDecl(1, ("zone",))})
    config = GroundingConfig({"vehicle": ("v1", "v2"), "zone": ("z1",)})
    rule = parse_rule("forall X . p(X) <- true")
    for vocabulary in (by_vehicle, by_zone, by_vehicle, by_zone, by_vehicle):
        db = ground([rule], config, vocabulary)
        assert grounding_parts(db) == grounding_parts(reference_ground([rule], config, vocabulary))
    assert list(ground([rule], config, by_zone).atoms) == ["p(z1)"]
    assert sorted(key[1] for key in config.rule_groundings) == [("vehicle",), ("zone",)]
    assert all(entry is not None for entry in config.rule_groundings.values())


def test_memo_is_filled_by_a_second_grounding_and_shared_by_content_equal_rules(onto):
    config = one_constant(onto)
    rule = parse_rule(COLLIDE_RULE, onto)
    twin = replace(rule, id="r-twin")
    assert twin == rule and twin.id != rule.id
    ground([rule], config, onto)
    assert config.rule_groundings == {(rule, ("vehicle",)): None}  # a single grounding memoizes nothing
    ground([rule], config, onto)
    (entry,) = config.rule_groundings.values()
    assert entry is not None
    db = ground([twin], config, onto)
    (after,) = config.rule_groundings.values()
    assert db.rule_clauses == [after[2]] and after[2] is entry[2]  # the twin reused the rule's clauses


def test_memo_starts_empty_in_a_replaced_config(onto):
    config = GroundingConfig.default(onto, 2)
    ground([parse_rule(COLLIDE_RULE, onto)], config, onto)
    invariant_attempts(parse_rule(DENSE_RULE, onto), config, onto)
    assert config.rule_groundings and config.attempts
    for copy in (replace(config), replace(config, comparison_mode="interval-axioms")):
        assert copy.rule_groundings == {} and copy.rule_groundings is not config.rule_groundings
        assert copy.attempts == {} and copy.attempts is not config.attempts


def test_memo_leaves_equality_json_and_reports_alone(onto, seed_store):
    warm = GroundingConfig.default(onto, 2)
    cold = GroundingConfig.default(onto, 2)
    rule = parse_rule(DENSE_RULE, onto)
    for _ in range(2):
        ground([rule], warm, onto)
    invariant_attempts(rule, warm, onto)
    assert warm.rule_groundings and warm.attempts and not cold.rule_groundings and not cold.attempts
    assert warm == cold and repr(warm) == repr(cold)
    assert warm.to_json() == cold.to_json() == {
        "domain_constants": {"vehicle": ["vehicle1", "vehicle2"]},
        "comparison_mode": "opaque",
    }
    report = verify(rule, seed_store, warm, onto).to_json_dict()
    assert report == verify(rule, seed_store, cold, onto).to_json_dict()
    assert report["grounding"] == cold.to_json()


def test_memo_list_constants_ground_like_tuples(onto):
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
    assumptions, a list from scratch or another ontology that gives X
    another sort.  Each grounding equals the per-instance loop's, its
    `prefix_index` holds the clauses of grounding its rules but the last,
    and the config keeps at most two groundings."""
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
            assumptions = random_assumptions(rng, listed, config, ontology) if move == "assume" else []
            db = ground(listed, config, ontology, assumptions)
            assert grounding_parts(db) == grounding_parts(reference_ground(listed, config, ontology, assumptions))
            assert set(db.prefix_index.clauses) == set(reference_ground(listed[:-1], config, ontology).clauses)
            assert len(config.groundings) <= 2
            if move == "commit":
                rules = listed
    assert len(seen) == 5


def test_a_config_keeps_the_last_base_and_the_last_grounding_without_assumptions(onto):
    config = GroundingConfig.default(onto, 2)
    theory = [parse_rule(COLLIDE_RULE, onto)]
    candidate = parse_rule(DENSE_RULE, onto)
    db = ground([*theory, candidate], config, onto)
    (_, _, base), last = config.groundings
    assert last == ((*theory, candidate), onto, db) and db.prefix_index is base.index
    assert ground([*theory, candidate, candidate], config, onto).prefix_index is db.index  # after a commit
    rejected = ground([*theory, candidate, theory[0]], config, onto)
    assert rejected.prefix_index is db.index  # the same base again
    assumption = [(candidate.head[0], {"X": "vehicle1"})]
    assumed = ground([*theory, candidate], config, onto, assumption)
    assert [key for key, _, _ in config.groundings] == [tuple(theory)]
    assert assumed.prefix_index is not db.prefix_index  # the base is grounded afresh
