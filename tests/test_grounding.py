from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rulesynth.grounding import ClauseDB, GroundingConfig, GroundingError, ground

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
