"""Seeded random generation of rules for round-trip testing and the
verification cross-checks: schema-valid random rules, and threshold rules
whose verdicts depend on how many constants a sort has."""

from __future__ import annotations

import random
from fractions import Fraction

from rulesynth.fol import Atom, Comparison, Literal, Ontology, Rule, Term, parse_rule, var


def random_rule(rng: random.Random, onto: Ontology) -> Rule:
    variables = [var(name) for name in ("X", "Y", "Z")[: rng.randint(1, 3)]]
    constants = sorted(onto.constants)

    def random_term() -> Term:
        if constants and rng.random() < 0.2:
            return Term("constant", rng.choice(constants))
        return rng.choice(variables)

    def random_literal() -> Literal:
        negated = rng.random() < 0.4
        if onto.numeric_attributes and rng.random() < 0.3:
            attribute = rng.choice(sorted(onto.numeric_attributes))
            op = rng.choice(sorted(onto.comparison_ops))
            value = rng.choice(
                [
                    Fraction(rng.randint(0, 150)),
                    Fraction(rng.randint(1, 20), rng.choice([2, 3, 4, 5, 7, 10])),
                ]
            )
            return Literal(negated, Comparison(attribute, random_term(), op, value))
        predicate = rng.choice(sorted(onto.predicates))
        arity = onto.predicates[predicate].arity
        return Literal(negated, Atom(predicate, tuple(random_term() for _ in range(arity))))

    def conjunction(low: int, high: int) -> tuple[Literal, ...]:
        picked: list[Literal] = []
        for _ in range(rng.randint(low, high)):
            lit = random_literal()
            if lit not in picked:
                picked.append(lit)
        return tuple(picked)

    head = conjunction(1, 2)
    while not head:
        head = conjunction(1, 2)
    return Rule(tuple(variables), head, conjunction(0, 3))


def threshold_rule(rng: random.Random, vocabulary: Ontology) -> Rule:
    """A rule whose body asks for two distinct constants of a sort, so
    that it holds over one constant of that sort and not, by itself, over
    two: the case a bound one constant short gets wrong."""
    unary = sorted(p for p, decl in vocabulary.predicates.items() if decl.arity == 1)
    body, head = rng.choice(unary), rng.choice(unary)
    same_sort = vocabulary.predicates[body].sorts == vocabulary.predicates[head].sorts
    head_var = rng.choice("XYZ" if same_sort else "Z")
    names = ", ".join(sorted({"X", "Y", head_var}))
    sign = rng.choice(["", "not "])
    return parse_rule(f"forall {names} . {sign}{head}({head_var}) <- {body}(X) and not {body}(Y)", vocabulary)


def is_threshold_rule(rule: Rule) -> bool:
    """Whether the body is `p(X) and not p(Y)` over two distinct variables,
    as `threshold_rule` builds it."""
    if len(rule.body) != 2:
        return False
    held, missing = rule.body
    return (
        not held.negated and missing.negated
        and isinstance(held.inner, Atom) and isinstance(missing.inner, Atom)
        and held.inner.predicate == missing.inner.predicate
        and len(held.inner.args) == 1
        and held.inner.args[0].kind == missing.inner.args[0].kind == "variable"
        and held.inner.args[0] != missing.inner.args[0]
    )
