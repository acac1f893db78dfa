import json
import random
import string
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulesynth.fol import (
    _TOKEN_RE,
    RESERVED_WORDS,
    Atom,
    Literal,
    Ontology,
    OntologyError,
    PredicateDecl,
    Rule,
    RuleSyntaxError,
    SchemaError,
    grammar_reference,
    load_ontology,
    parse_rule,
    render_number,
    render_rule,
    rule_sorts,
    _tokenize,
    validate_schema,
    var,
    variable_sorts,
)

from conftest import COLLIDE_RULE, DENSE_RULE, SCENARIOS
from rulegen import random_rule, threshold_rule


def test_parse_collide_rule(onto):
    rule = parse_rule(COLLIDE_RULE, onto)
    assert [t.name for t in rule.quantified_vars] == ["X"]
    assert len(rule.head) == 1
    assert rule.head[0].negated and rule.head[0].inner.predicate == "collide"
    body_preds = [(lit.negated, lit.inner.predicate) for lit in rule.body]
    assert body_preds == [(False, "sd_front"), (False, "sd_rear"), (True, "lane_change")]


def test_parse_conjunctive_head(onto):
    rule = parse_rule(DENSE_RULE, onto)
    assert len(rule.head) == 2
    assert [lit.inner.predicate for lit in rule.head] == ["sd_front", "sd_rear"]
    assert rule.body == (Literal(True, Atom("dense", (var("X"),))),)


def test_arity_mismatch_is_schema_error(onto):
    with pytest.raises(SchemaError) as err:
        parse_rule("forall X . collide(X, X) <- dense(X)", onto)
    assert any(v.kind == "arity-mismatch" for v in err.value.violations)


def test_render_is_exact_round_trip(onto):
    rule = parse_rule(COLLIDE_RULE, onto)
    assert render_rule(rule) == COLLIDE_RULE
    assert parse_rule(render_rule(rule), onto) == rule


def test_empty_body_renders_true():
    rule = parse_rule("forall X . p(X) <- true")
    assert render_rule(rule) == "forall X . p(X) <- true"
    assert rule.body == ()


def test_comparison_numbers_round_trip(onto):
    for text in (
        "forall X . merge_ok(X) <- speed(X) >= 30",
        "forall X . merge_ok(X) <- friction(X) < 0.5",
        "forall X . merge_ok(X) <- friction(X) >= 1/3",
        "forall X . merge_ok(X) <- speed(X) != -5",
    ):
        rule = parse_rule(text, onto)
        assert render_rule(rule) == text
        assert parse_rule(render_rule(rule), onto) == rule


def test_render_number_forms():
    assert render_number(Fraction(50)) == "50"
    assert render_number(Fraction(1, 2)) == "0.5"
    assert render_number(Fraction(1, 8)) == "0.125"
    assert render_number(Fraction(3, 20)) == "0.15"
    assert render_number(Fraction(1, 3)) == "1/3"
    assert render_number(Fraction(-7, 4)) == "-1.75"


def test_double_negation_collapses(onto):
    rule = parse_rule("forall X . collide(X) <- not not dense(X)", onto)
    assert rule.body[0] == Literal(False, Atom("dense", (var("X"),)))


def test_duplicate_literals_collapse(onto):
    rule = parse_rule("forall X . collide(X) <- dense(X) and dense(X)", onto)
    assert len(rule.body) == 1


def test_duplicate_quantified_variable_rejected():
    with pytest.raises(RuleSyntaxError):
        parse_rule("forall X, X . p(X) <- true")


def test_unquantified_variable_rejected():
    with pytest.raises(SchemaError) as err:
        parse_rule("forall X . p(Y) <- true")
    assert "unquantified" in str(err.value)


def test_structural_equality_ignores_id_and_origin(onto):
    a = parse_rule(COLLIDE_RULE, onto)
    b = Rule(a.quantified_vars, a.head, a.body, id="other", origin="explanation")
    assert a == b
    assert a.id != b.id
    c = parse_rule(COLLIDE_RULE, onto, id="other", origin="explanation")
    assert (c, c.id, c.origin) == (b, b.id, b.origin)
    d = parse_rule(COLLIDE_RULE, onto, id="", origin="explanation")
    assert (d.id, d.origin) == (a.id, "explanation")


def test_validate_schema_examples(onto):
    assert validate_schema(parse_rule(COLLIDE_RULE, onto), onto) == []
    bad = parse_rule("forall X . teleport(X) <- true")
    kinds = [v.kind for v in validate_schema(bad, onto)]
    assert kinds == ["unknown-predicate"]
    free = Rule((var("X"),), (Literal(False, Atom("collide", (var("Y"),))),), ())
    kinds = [v.kind for v in validate_schema(free, onto)]
    assert "unquantified-variable" in kinds


def test_validate_schema_sort_and_constant_checks():
    onto = Ontology(
        predicates={
            "at": PredicateDecl(2, ("vehicle", "lane")),
            "busy": PredicateDecl(1, ("lane",)),
        },
        numeric_attributes={},
        constants={"ego": "vehicle", "left": "lane"},
    )
    ok = parse_rule("forall X, L . at(X, L) <- busy(L)")
    assert validate_schema(ok, onto) == []
    crossed = parse_rule("forall X . at(X, X) <- true")
    assert {v.kind for v in validate_schema(crossed, onto)} == {"sort-mismatch"}
    misplaced = parse_rule("forall X . at(left, X) <- true")
    assert {v.kind for v in validate_schema(misplaced, onto)} == {"sort-mismatch"}
    unknown = parse_rule("forall X . at(X, middle) <- true")
    assert {v.kind for v in validate_schema(unknown, onto)} == {"unknown-constant"}


def test_undeclared_comparison_op(onto):
    restricted = Ontology(
        predicates=dict(onto.predicates),
        numeric_attributes=dict(onto.numeric_attributes),
        constants=dict(onto.constants),
        comparison_ops=frozenset({"<", "<=", "=", ">=", ">"}),
        default_sort=onto.default_sort,
    )
    rule = parse_rule("forall X . merge_ok(X) <- speed(X) != 50")
    assert {v.kind for v in validate_schema(rule, restricted)} == {"undeclared-comparison-op"}


def test_unknown_attribute(onto):
    rule = parse_rule("forall X . merge_ok(X) <- mass(X) > 1000")
    assert {v.kind for v in validate_schema(rule, onto)} == {"unknown-attribute"}


def test_generated_corpus_round_trips(onto):
    rng = random.Random(20240817)
    for _ in range(200):
        rule = random_rule(rng, onto)
        assert parse_rule(render_rule(rule)) == rule


def test_canonical_rendering_is_injective(onto):
    rng = random.Random(99)
    rendered = {}
    for _ in range(300):
        rule = random_rule(rng, onto)
        text = render_rule(rule)
        if text in rendered:
            assert rendered[text] == rule
        rendered[text] = rule


def test_kept_rule_facts_equal_those_of_a_fresh_parse(onto):
    """An ontology keeps each rule's sorts and schema violations, and a
    rule its text and content hash.  Each equals what a newly parsed equal
    rule gets from a new ontology, also for a `replace`d rule, which keeps
    the id of a rule with another body."""
    by_zone = replace(onto, predicates={
        "collide": onto.predicates["collide"],
        "dense": PredicateDecl(1, ("zone",)),
        "near": PredicateDecl(2, ("vehicle", "zone")),
    })
    rng = random.Random(20240817)
    rules = [random_rule(rng, onto) for _ in range(200)] + [threshold_rule(rng, onto) for _ in range(20)]
    derived = [replace(a, body=b.body) for a, b in zip(rules, rules[1:])
               if a.body != b.body and b.variables() <= set(a.quantified_vars)]
    assert len(derived) > 20
    for vocabulary in (onto, by_zone):
        kinds = set()
        for rule in rules + derived:
            kept = [(rule_sorts(rule, vocabulary), variable_sorts(rule, vocabulary),
                     validate_schema(rule, vocabulary), render_rule(rule), hash(rule)) for _ in range(2)]
            fresh, fresh_vocabulary = parse_rule(render_rule(rule), id="fresh"), replace(vocabulary)
            assert fresh == rule and hash(rule) == hash((rule.quantified_vars, rule.head, rule.body))
            assert kept[0] == kept[1] == (
                rule_sorts(fresh, fresh_vocabulary), variable_sorts(fresh, fresh_vocabulary),
                validate_schema(fresh, fresh_vocabulary), render_rule(fresh), hash(fresh))
            kinds.update(v.kind for v in kept[0][2])
        assert kinds == (set() if vocabulary is onto else {"unknown-predicate", "sort-mismatch"})


def test_each_ontology_keeps_its_own_facts_of_one_rule(onto):
    rule = parse_rule("forall X, Y . collide(X) <- dense(Y) and speed(Y) > 30")
    by_zone = replace(onto, predicates={**onto.predicates, "dense": PredicateDecl(1, ("zone",))},
                      numeric_attributes={})
    for vocabulary, sorts, kinds in [(onto, ("vehicle", "vehicle"), set()),
                                     (by_zone, ("vehicle", "zone"), {"unknown-attribute"}),
                                     (onto, ("vehicle", "vehicle"), set())]:
        assert rule_sorts(rule, vocabulary) == sorts
        assert {v.kind for v in validate_schema(rule, vocabulary)} == kinds


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=string.printable, max_size=80))
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_rule(text)
    except (RuleSyntaxError, SchemaError):
        pass


def reference_tokenize(text):
    """The tokenizer as it was before it walked `finditer`: one `match`
    per position."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise RuleSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup or ""
        if kind != "ws":
            value = match.group()
            if kind == "lower" and value in RESERVED_WORDS:
                kind = value
            tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=string.printable + "é\u2028", max_size=40))
def test_tokenizer_equals_the_match_loop(text):
    try:
        expected = reference_tokenize(text)
    except RuleSyntaxError as error:
        with pytest.raises(RuleSyntaxError) as raised:
            _tokenize(text)
        assert (str(raised.value), raised.value.position, raised.value.expected) == (
            str(error), error.position, error.expected)
    else:
        assert [tuple(token) for token in _tokenize(text)] == expected


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["forall", "and", "not", "true", "<-", ".", ",", "(", ")",
             "X", "Y", "collide", "speed", "<=", ">", "5", "0.5", "1/3"]
        ),
        max_size=25,
    )
)
def test_parser_total_on_token_soup(tokens):
    try:
        parse_rule(" ".join(tokens))
    except (RuleSyntaxError, SchemaError):
        pass


def test_grammar_reference_lists_vocabulary(onto):
    doc = grammar_reference(onto)
    assert "collide/1" in doc
    assert "speed in km/h" in doc
    assert "forall" in doc


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["predicates"]["collide"].update(sorts=[""]),  # constants would be "1", "2"
        lambda doc: doc["predicates"]["collide"].update(sorts=[3]),
        lambda doc: doc.update(predicates=["collide"]),
        lambda doc: doc.update(constants={"ego": 5}),
        lambda doc: doc.update(default_sort=["vehicle"]),
        lambda doc: doc["constants"].update(vehicle1="vehicle"),  # a fresh constant's name
        lambda doc: doc["constants"].update(vehicle12="lane"),  # one of another sort's
    ],
)
def test_load_ontology_rejects_malformed_documents(tmp_path, edit):
    doc = json.loads((SCENARIOS / "traffic.onto.json").read_text())
    edit(doc)
    path = tmp_path / "bad.onto.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(OntologyError):
        load_ontology(path)


@pytest.mark.parametrize("name", ["vehicle0", "vehicle01", "vehicles1", "vehicle_1", "lane1"])
def test_constants_not_named_like_a_fresh_constant_are_accepted(onto, name):
    constants = {**onto.constants, name: "vehicle"}
    assert replace(onto, constants=constants).constants[name] == "vehicle"
