"""Constrained first-order rule language: AST, parser, renderer, ontology.

Rules are universally quantified implications with conjunctive heads and
bodies of literals (atoms or numeric comparisons).  The ASCII surface syntax
is deliberately small::

    rule   := "forall" var {"," var} "." head "<-" body
    head   := lit {"and" lit}
    body   := "true" | lit {"and" lit}
    lit    := ["not"] (atom | cmp)
    atom   := pred "(" term {"," term} ")"
    cmp    := attr "(" term ")" op number
    op     := "<" | "<=" | "=" | ">=" | ">" | "!="

Predicates and constants are lowercase identifiers, variables uppercase.
Rendering is canonical (single spaces, lowercase keywords, literals in
source order) so that parse(render(rule)) == rule.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

CONSTANT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
VARIABLE_RE = re.compile(r"[A-Z][a-z0-9_]*\Z")
COMPARISON_OPS = ("<", "<=", "=", ">=", ">", "!=")
RESERVED_WORDS = frozenset({"forall", "and", "not", "true"})

SURFACE_GRAMMAR = """\
rule   := "forall" var {"," var} "." head "<-" body
head   := lit {"and" lit}
body   := "true" | lit {"and" lit}
lit    := ["not"] (atom | cmp)
atom   := pred "(" term {"," term} ")"
cmp    := attr "(" term ")" op number
op     := "<" | "<=" | "=" | ">=" | ">" | "!="
term   := variable | constant

Variables match [A-Z][a-z0-9_]*, predicates and constants match
[a-z][a-z0-9_]*.  Numbers are integers, finite decimals, or fractions
written p/q.  An empty body is written "true".  Every variable used in
the head or body must be listed after "forall".
"""


class RuleSyntaxError(ValueError):
    """Raised on malformed rule text; carries the offending position."""

    def __init__(self, message: str, position: int, expected: Sequence[str] = ()):
        self.position = position
        self.expected = tuple(expected)
        detail = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at position {position}{detail}")


class SchemaError(ValueError):
    """Raised when a parsed rule does not fit the ontology."""

    def __init__(self, violations: Sequence["SchemaViolation"]):
        self.violations = tuple(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class OntologyError(ValueError):
    """Raised for ill-formed ontology declarations or files."""


@dataclass(frozen=True)
class Term:
    kind: str  # "variable" | "constant"
    name: str

    def __post_init__(self) -> None:
        if self.kind not in ("variable", "constant"):
            raise ValueError(f"bad term kind {self.kind!r}")
        pattern = VARIABLE_RE if self.kind == "variable" else CONSTANT_RE
        if not pattern.match(self.name):
            raise ValueError(f"bad {self.kind} name {self.name!r}")


def var(name: str) -> Term:
    return Term("variable", name)


def const(name: str) -> Term:
    return Term("constant", name)


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Comparison:
    attribute: str
    subject: Term
    op: str
    value: Fraction


@dataclass(frozen=True)
class Literal:
    negated: bool
    inner: Atom | Comparison

    def complement(self) -> "Literal":
        return Literal(not self.negated, self.inner)


@dataclass(frozen=True)
class Rule:
    """Universally quantified implication head <- body.

    Structural equality covers the logical content only; ``id`` and
    ``origin`` are bookkeeping and excluded from comparison.  A missing
    id is derived from the canonical rendering, so re-parsing the same
    text always yields the same id.  That rendering (``text``, which
    `render_rule` returns) and the content hash are derived once, on
    construction; a `dataclasses.replace`d rule derives its own.
    """

    quantified_vars: tuple[Term, ...]
    head: tuple[Literal, ...]
    body: tuple[Literal, ...]
    id: str = field(default="", compare=False)
    origin: str = field(default="", compare=False)
    text: str = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.head:
            raise ValueError("rule head must be nonempty")
        if any(t.kind != "variable" for t in self.quantified_vars):
            raise ValueError("quantified terms must be variables")
        if len(set(self.quantified_vars)) != len(self.quantified_vars):
            raise ValueError("duplicate quantified variable")
        for part in (self.head, self.body):
            if len(set(part)) != len(part):
                raise ValueError("duplicate literal in head or body")
        variables = ", ".join(t.name for t in self.quantified_vars)
        head = " and ".join(map(render_literal, self.head))
        body = " and ".join(map(render_literal, self.body)) or "true"
        object.__setattr__(self, "text", f"forall {variables} . {head} <- {body}")
        object.__setattr__(self, "_hash", hash((self.quantified_vars, self.head, self.body)))
        if not self.id:
            digest = hashlib.sha256(self.text.encode("utf-8")).hexdigest()
            object.__setattr__(self, "id", "r" + digest[:12])

    def __hash__(self) -> int:
        return self._hash

    def literals(self) -> Iterator[Literal]:
        yield from self.head
        yield from self.body

    def variables(self) -> set[Term]:
        found: set[Term] = set()
        for lit in self.literals():
            if isinstance(lit.inner, Atom):
                found.update(t for t in lit.inner.args if t.kind == "variable")
            elif lit.inner.subject.kind == "variable":
                found.add(lit.inner.subject)
        return found


@dataclass(frozen=True)
class PredicateDecl:
    arity: int
    sorts: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.arity < 1 or len(self.sorts) != self.arity:
            raise OntologyError("predicate arity must be >= 1 and match its sorts")


@dataclass(frozen=True)
class AttributeDecl:
    unit: str
    domain: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.domain:
            raise OntologyError("numeric attribute domain must be nonempty")


@dataclass(frozen=True)
class Ontology:
    """Vocabulary a rule set ranges over.

    Names must be unique across predicates, numeric attributes, and
    constants.  Numeric attributes carry a unit and a finite value domain
    used by the interval-axiom grounding mode.

    The sorts are derived once, on construction.  `rule_facts` keeps what
    the ontology decides about each rule's content (`facts`): its schema
    violations and its variables' sorts.  Neither is part of equality or
    repr, and a `dataclasses.replace`d ontology derives its own.
    """

    predicates: Mapping[str, PredicateDecl]
    numeric_attributes: Mapping[str, AttributeDecl]
    constants: Mapping[str, str]
    comparison_ops: frozenset[str] = frozenset(COMPARISON_OPS)
    default_sort: str | None = None
    rule_facts: dict[Rule, RuleFacts] = field(default_factory=dict, init=False, compare=False, repr=False)
    _sorts: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        names = [*self.predicates, *self.numeric_attributes, *self.constants]
        if len(set(names)) != len(names):
            raise OntologyError("predicate/attribute/constant names must be unique")
        for name in names:
            if not CONSTANT_RE.match(name) or name in RESERVED_WORDS:
                raise OntologyError(f"bad ontology name {name!r}")
        bad_ops = self.comparison_ops - set(COMPARISON_OPS)
        if bad_ops or not self.comparison_ops:
            raise OntologyError(f"bad comparison operator set {sorted(bad_ops)}")
        found = {s for d in self.predicates.values() for s in d.sorts}
        found.update(self.constants.values())
        if self.default_sort:
            found.add(self.default_sort)
        object.__setattr__(self, "_sorts", tuple(sorted(found)))
        for sort in self._sorts:  # grounding names a sort's constants <sort>1, <sort>2, ...
            if not CONSTANT_RE.match(sort):
                raise OntologyError(f"bad sort name {sort!r}")
            for name in self.constants:  # a declared constant may not alias them
                if re.fullmatch(re.escape(sort) + "[1-9][0-9]*", name):
                    raise OntologyError(f"constant {name!r} is named like a fresh constant of sort {sort!r}")

    def sorts(self) -> tuple[str, ...]:
        return self._sorts

    def facts(self, rule: Rule) -> RuleFacts:
        """What this ontology decides about `rule`'s content, derived on
        the first call and kept in `rule_facts`."""
        facts = self.rule_facts.get(rule)
        if facts is None:
            facts = self.rule_facts[rule] = _rule_facts(rule, self)
        return facts


def load_ontology(path: str | Path) -> Ontology:
    """Load an ontology from its JSON file format."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise OntologyError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise OntologyError(f"{path}: top level must be an object")

    def section(key: str) -> dict[str, Any]:
        value = doc.get(key, {})
        if not isinstance(value, dict) or not all(isinstance(d, dict) for d in value.values()):
            raise OntologyError(f"{path}: {key} must be an object of objects")
        return value

    def strings(value: Any, where: str) -> tuple[str, ...]:
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise OntologyError(f"{path}: {where} must be a list of strings")
        return tuple(value)

    def numbers(value: Any, where: str) -> tuple[Fraction, ...]:
        try:
            return tuple(Fraction(str(v)) for v in value)
        except ZeroDivisionError:
            raise OntologyError(f"{path}: {where} has a zero denominator") from None
        except ValueError as exc:  # not a number, or more digits than int() converts
            raise OntologyError(f"{path}: {where}: {exc}") from None

    constants = doc.get("constants", {})
    if not isinstance(constants, dict) or not all(isinstance(s, str) for s in constants.values()):
        raise OntologyError(f"{path}: constants must map names to sort names")
    default_sort = doc.get("default_sort")
    if default_sort is not None and not isinstance(default_sort, str):
        raise OntologyError(f"{path}: default_sort must be a sort name")
    try:
        predicates = {
            name: PredicateDecl(int(d["arity"]), strings(d.get("sorts"), f"{name}.sorts"))
            for name, d in section("predicates").items()
        }
        attributes = {
            name: AttributeDecl(d["unit"], numbers(d["domain"], f"{name}.domain"))
            for name, d in section("numeric_attributes").items()
        }
        ops = frozenset(strings(doc.get("comparison_ops", list(COMPARISON_OPS)), "comparison_ops"))
        return Ontology(predicates, attributes, dict(constants), ops, default_sort)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, OntologyError):
            raise
        raise OntologyError(f"{path}: {exc}") from exc


# --- tokenizer ---

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>-?\d+(?:\.\d+|/\d+)?)
      | (?P<arrow><-)
      | (?P<op><=|>=|!=|<|>|=)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<dot>\.)
      | (?P<lower>[a-z][a-z0-9_]*)
      | (?P<upper>[A-Z][a-z0-9_]*)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text`, whitespace dropped; a character no token
    matches, which leaves a gap between matches, is a syntax error."""
    tokens: list[_Token] = []
    pos = 0
    for match in _TOKEN_RE.finditer(text):
        if match.start() != pos:
            break
        kind = match.lastgroup or ""
        if kind != "ws":
            value = match.group()
            if kind == "lower" and value in RESERVED_WORDS:
                kind = value
            tokens.append(_Token(kind, value, pos))
        pos = match.end()
    if pos < len(text):
        raise RuleSyntaxError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], rule_id: str, origin: str):
        self.tokens = tokens
        self.index = 0
        self.rule_id = rule_id
        self.origin = origin

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self, kind: str, expected: str) -> _Token:
        token = self.tokens[self.index]
        if token.kind != kind:
            raise RuleSyntaxError(
                f"unexpected {token.text!r}" if token.text else "unexpected end of input",
                token.pos,
                [expected],
            )
        self.index += 1
        return token

    def parse_rule(self) -> Rule:
        self.take("forall", "forall")
        variables = [var(self.take("upper", "variable").text)]
        while self.peek().kind == "comma":
            self.index += 1
            token = self.take("upper", "variable")
            if var(token.text) in variables:
                raise RuleSyntaxError(f"duplicate quantified variable {token.text}", token.pos)
            variables.append(var(token.text))
        self.take("dot", ".")
        head = self.parse_conjunction()
        self.take("arrow", "<-")
        if self.peek().kind == "true":
            self.index += 1
            body: list[Literal] = []
        else:
            body = self.parse_conjunction()
        self.take("eof", "end of input")
        return Rule(tuple(variables), tuple(head), tuple(body), self.rule_id, self.origin)

    def parse_conjunction(self) -> list[Literal]:
        literals = [self.parse_literal()]
        while self.peek().kind == "and":
            self.index += 1
            lit = self.parse_literal()
            if lit not in literals:  # conjunction is idempotent
                literals.append(lit)
        return literals

    def parse_literal(self) -> Literal:
        negated = False
        while self.peek().kind == "not":  # collapse double negation
            negated = not negated
            self.index += 1
        name = self.take("lower", "predicate or attribute").text
        self.take("lparen", "(")
        args = [self.parse_term()]
        while self.peek().kind == "comma":
            self.index += 1
            args.append(self.parse_term())
        self.take("rparen", ")")
        if self.peek().kind == "op":
            op_token = self.tokens[self.index]
            self.index += 1
            number = self.take("number", "number")
            if len(args) != 1:
                raise RuleSyntaxError(
                    "comparison attribute takes exactly one argument", op_token.pos
                )
            try:
                value = Fraction(number.text)
            except ZeroDivisionError:
                raise RuleSyntaxError("zero denominator", number.pos) from None
            except ValueError:  # more digits than int() converts
                raise RuleSyntaxError("number has too many digits", number.pos) from None
            return Literal(negated, Comparison(name, args[0], op_token.text, value))
        return Literal(negated, Atom(name, tuple(args)))

    def parse_term(self) -> Term:
        token = self.peek()
        if token.kind == "upper":
            self.index += 1
            return var(token.text)
        if token.kind == "lower":
            self.index += 1
            return const(token.text)
        raise RuleSyntaxError(
            f"unexpected {token.text!r}" if token.text else "unexpected end of input",
            token.pos,
            ["variable", "constant"],
        )


def parse_rule(text: str, onto: Ontology | None = None, *, id: str = "", origin: str = "") -> Rule:
    """Parse surface syntax into a Rule with the given id and origin (an
    empty id is derived from the rule's rendering, as `Rule` does).

    With an ontology the rule is also schema-validated and a SchemaError
    raised on any violation; without one only the structural grammar
    (including the quantification of every used variable) is enforced,
    which is how deliberately ill-typed candidates reach the verifier.
    """
    rule = _Parser(_tokenize(text), id, origin).parse_rule()
    free = rule.variables() - set(rule.quantified_vars)
    if free:
        names = ", ".join(sorted(t.name for t in free))
        raise SchemaError(
            [SchemaViolation("unquantified-variable", f"unquantified variable {names}")]
        )
    if onto is not None:
        violations = validate_schema(rule, onto)
        if violations:
            raise SchemaError(violations)
    return rule


def render_number(value: Fraction) -> str:
    if value < 0:
        return "-" + render_number(-value)
    if value.denominator == 1:
        return str(value.numerator)
    den, twos, fives = value.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:  # exact finite decimal
        digits = max(twos, fives)
        scaled = value.numerator * 10**digits // value.denominator
        whole, part = divmod(scaled, 10**digits)
        return f"{whole}.{str(part).zfill(digits)}"
    return f"{value.numerator}/{value.denominator}"


def render_inner(inner: Atom | Comparison, substitution: Mapping[str, str] | None = None) -> str:
    """Text of an atom or comparison.  Given a substitution, each variable
    is written as its constant there (a variable it lacks is a KeyError);
    without one, variables keep their names."""

    def name(term: Term) -> str:
        if substitution is None or term.kind == "constant":
            return term.name
        return substitution[term.name]

    if isinstance(inner, Atom):
        return f"{inner.predicate}({', '.join(map(name, inner.args))})"
    return f"{inner.attribute}({name(inner.subject)}) {inner.op} {render_number(inner.value)}"


def render_literal(lit: Literal) -> str:
    return f"not {render_inner(lit.inner)}" if lit.negated else render_inner(lit.inner)


def render_rule(rule: Rule) -> str:
    """The canonical surface form (an empty body renders as true), which
    the rule derived on construction."""
    return rule.text


@dataclass(frozen=True)
class SchemaViolation:
    kind: str
    message: str


class RuleFacts(NamedTuple):
    """What an ontology decides about one rule's content (`Ontology.facts`)."""

    violations: tuple[SchemaViolation, ...]
    # each quantified variable's sort, in declaration order, and the number
    # of variables of each sort; None and () when the ontology has no sorts
    sorts: tuple[str, ...] | None
    sort_counts: tuple[tuple[str, int], ...]


def validate_schema(rule: Rule, onto: Ontology) -> list[SchemaViolation]:
    """Check a structurally well-formed rule against the ontology.

    Returns the (possibly empty) list of violations; an empty list means
    the rule is valid.  Violations are data, not exceptions.  The check
    runs once per rule content and ontology (`Ontology.facts`).
    """
    return list(onto.facts(rule).violations)


def _rule_facts(rule: Rule, onto: Ontology) -> RuleFacts:
    """`validate_schema`'s violations and `rule_sorts`' sorts, found in
    one walk: a variable's sort is that of its first atom position."""
    violations: list[SchemaViolation] = []
    seen: set[tuple[str, str]] = set()

    def report(kind: str, message: str) -> None:
        if (kind, message) not in seen:
            seen.add((kind, message))
            violations.append(SchemaViolation(kind, message))

    quantified = set(rule.quantified_vars)
    var_sorts: dict[str, str] = {}

    def check_position(term: Term, sort: str | None, context: str) -> None:
        if term.kind == "variable":
            if term not in quantified:
                report("unquantified-variable", f"unquantified variable {term.name}")
            if sort is not None:
                known = var_sorts.setdefault(term.name, sort)
                if known != sort:
                    report(
                        "sort-mismatch",
                        f"variable {term.name} used as both {known} and {sort}",
                    )
            return
        declared = onto.constants.get(term.name)
        if declared is None:
            report("unknown-constant", f"unknown constant {term.name}")
        elif sort is not None and declared != sort:
            report(
                "sort-mismatch",
                f"constant {term.name} has sort {declared}, {context} needs {sort}",
            )

    for lit in rule.literals():
        if isinstance(lit.inner, Atom):
            atom = lit.inner
            decl = onto.predicates.get(atom.predicate)
            if decl is None:
                report("unknown-predicate", f"unknown predicate {atom.predicate}")
                for arg in atom.args:
                    check_position(arg, None, atom.predicate)
                continue
            if len(atom.args) != decl.arity:
                report(
                    "arity-mismatch",
                    f"{atom.predicate} takes {decl.arity} argument(s), got {len(atom.args)}",
                )
            for position, arg in enumerate(atom.args):
                sort = decl.sorts[position] if position < decl.arity else None
                check_position(arg, sort, f"{atom.predicate} argument {position + 1}")
        else:
            cmp = lit.inner
            if cmp.attribute not in onto.numeric_attributes:
                report("unknown-attribute", f"unknown numeric attribute {cmp.attribute}")
            if cmp.op not in onto.comparison_ops:
                report("undeclared-comparison-op", f"comparison operator {cmp.op} not declared")
            check_position(cmp.subject, None, cmp.attribute)
    fallback = onto.default_sort or (onto.sorts()[0] if onto.sorts() else None)
    if fallback is None:
        return RuleFacts(tuple(violations), None, ())
    sorts = tuple(var_sorts.get(t.name, fallback) for t in rule.quantified_vars)
    return RuleFacts(tuple(violations), sorts, tuple(Counter(sorts).items()))


def rule_sorts(rule: Rule, onto: Ontology) -> tuple[str, ...]:
    """Each quantified variable's sort, in declaration order, as `onto`
    keeps it: the sort of the variable's first atom position.  Variables
    constrained only by comparisons (or unused) fall back to the
    ontology's default sort, else the alphabetically first declared sort.
    """
    sorts = onto.facts(rule).sorts
    if sorts is None:
        raise OntologyError("ontology declares no sorts")
    return sorts


def variable_sorts(rule: Rule, onto: Ontology) -> dict[str, str]:
    """`rule_sorts` keyed by variable name.  The package calls
    `rule_sorts`; the benchmark's verify suite calls this."""
    return dict(zip((t.name for t in rule.quantified_vars), rule_sorts(rule, onto)))


def grammar_reference(onto: Ontology) -> str:
    """Grammar plus vocabulary listing, suitable for prompts and docs."""
    lines = [SURFACE_GRAMMAR, "Predicates:"]
    for name, decl in sorted(onto.predicates.items()):
        lines.append(f"  {name}/{decl.arity} over ({', '.join(decl.sorts)})")
    lines.append("Numeric attributes:")
    for name, decl in sorted(onto.numeric_attributes.items()):
        domain = ", ".join(render_number(v) for v in decl.domain)
        lines.append(f"  {name} in {decl.unit}, values {{{domain}}}")
    if onto.constants:
        lines.append("Constants:")
        for name, sort in sorted(onto.constants.items()):
            lines.append(f"  {name}: {sort}")
    lines.append(f"Comparison operators: {' '.join(sorted(onto.comparison_ops))}")
    return "\n".join(lines)
