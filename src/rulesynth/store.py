"""Persistent theory store: principles, goals, causes, verified rules, invariants.

The store is a single JSON document and an immutable in-memory value;
operations return new stores.  Saving is byte-deterministic (sorted keys,
canonical rule text) so that stores diff cleanly and repeated runs of the
pipeline produce identical files.
"""

from __future__ import annotations

import json
import os
import secrets
import shutil
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from .fol import Ontology, Rule, SchemaError, parse_rule, render_rule

PRINCIPLE_KINDS = ("legal", "safety")
GOAL_STATUSES = ("draft", "analyzed")
_SECTIONS = ("principles", "goals", "causes", "verified_rules", "invariants", "reports")


class StoreFormatError(ValueError):
    """Malformed store document; ``path`` points into the JSON."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class StoreIntegrityError(ValueError):
    """Store content violates an integrity invariant (dangling trace etc.)."""


class RuleRejectedError(ValueError):
    """Commit attempted with a non-Accepted verification report."""


@dataclass(frozen=True)
class Principle:
    id: str
    kind: str
    text: str
    formal: Rule | None = None
    source: str = ""


@dataclass(frozen=True)
class Goal:
    id: str
    text: str
    status: str = "draft"


@dataclass(frozen=True)
class Cause:
    id: str
    goal_id: str
    text: str
    merged_from: tuple[str, ...]
    rule: Rule | None = None
    rule_explanation: str | None = None


@dataclass(frozen=True)
class VerifiedRule:
    rule: Rule
    cause_id: str
    goal_id: str
    report_id: str


@dataclass(frozen=True)
class Invariant:
    id: str
    rule: Rule


@dataclass(frozen=True)
class TheoryStore:
    principles: tuple[Principle, ...] = ()
    goals: tuple[Goal, ...] = ()
    causes: tuple[Cause, ...] = ()
    verified_rules: tuple[VerifiedRule, ...] = ()
    invariants: tuple[Invariant, ...] = ()
    reports: tuple[Mapping[str, Any], ...] = ()

    def goal_by_id(self, goal_id: str) -> Goal:
        for goal in self.goals:
            if goal.id == goal_id:
                return goal
        raise StoreIntegrityError(f"no goal with id {goal_id!r}")

    def goal_by_text(self, text: str) -> Goal | None:
        for goal in self.goals:
            if goal.text == text:
                return goal
        return None

    def cause_by_id(self, cause_id: str) -> Cause:
        for cause in self.causes:
            if cause.id == cause_id:
                return cause
        raise StoreIntegrityError(f"no cause with id {cause_id!r}")

    def causes_for_goal(self, goal_id: str) -> tuple[Cause, ...]:
        return tuple(c for c in self.causes if c.goal_id == goal_id)

    def theory_rules(self) -> tuple[Rule, ...]:
        """The current theory: principle formalizations plus verified rules."""
        formal = tuple(p.formal for p in self.principles if p.formal is not None)
        return formal + tuple(v.rule for v in self.verified_rules)

    def report_by_id(self, report_id: str) -> Mapping[str, Any] | None:
        for report in self.reports:
            if report.get("id") == report_id:
                return report
        return None

    def with_goal_status(self, goal_id: str, status: str) -> "TheoryStore":
        if status not in GOAL_STATUSES:
            raise ValueError(f"bad goal status {status!r}")
        goals = tuple(
            replace(g, status=status) if g.id == goal_id else g for g in self.goals
        )
        return replace(self, goals=goals)

    def with_goal(self, goal: Goal) -> "TheoryStore":
        if any(g.id == goal.id for g in self.goals):
            raise StoreIntegrityError(f"duplicate goal id {goal.id!r}")
        return replace(self, goals=self.goals + (goal,))

    def with_causes(self, causes: Sequence[Cause]) -> "TheoryStore":
        """Replace the cause list for the goals the new causes belong to.

        Refuses to drop a cause id that a verified rule still traces to;
        re-synthesis must never break the trace chain.
        """
        touched = {c.goal_id for c in causes}
        for cause in causes:
            self.goal_by_id(cause.goal_id)
            if not cause.merged_from:
                raise StoreIntegrityError(f"cause {cause.id!r} has empty merged_from")
        surviving = {c.id for c in self.causes if c.goal_id not in touched}
        surviving.update(c.id for c in causes)
        for entry in self.verified_rules:
            if entry.cause_id not in surviving:
                raise StoreIntegrityError(
                    f"replacing causes would orphan verified rule {entry.rule.id} "
                    f"(traces to cause {entry.cause_id!r})"
                )
        kept = tuple(c for c in self.causes if c.goal_id not in touched)
        return replace(self, causes=kept + tuple(causes))

    def with_report(self, report: Mapping[str, Any]) -> "TheoryStore":
        """Archive a report; identical ids are skipped (idempotent)."""
        report_id = report.get("id")
        if not isinstance(report_id, str) or not report_id:
            raise StoreIntegrityError("report must carry a string id")
        if self.report_by_id(report_id) is not None:
            return self
        return replace(self, reports=self.reports + (dict(report),))


def commit_verified_rule(
    store: TheoryStore,
    rule: Rule,
    trace: tuple[str, str],
    report: Mapping[str, Any],
) -> tuple[TheoryStore, bool]:
    """Append a verified rule with its trace; archive the report.

    Returns (new_store, duplicate).  Committing a rule structurally equal
    to an existing verified rule is a no-op flagged duplicate=True.
    """
    if report.get("verdict") != "Accepted":
        raise RuleRejectedError(
            f"cannot commit rule {rule.id}: report verdict is {report.get('verdict')!r}"
        )
    cause_id, goal_id = trace
    cause = store.cause_by_id(cause_id)
    store.goal_by_id(goal_id)
    if cause.goal_id != goal_id:
        raise StoreIntegrityError(
            f"trace mismatch: cause {cause_id!r} belongs to goal {cause.goal_id!r}"
        )
    if any(v.rule == rule for v in store.verified_rules):
        return store.with_report(report), True
    entry = VerifiedRule(rule, cause_id, goal_id, str(report.get("id", "")))
    updated = replace(store, verified_rules=store.verified_rules + (entry,))
    return updated.with_report(report), False


# --- persistence ---


def _rule_to_json(rule: Rule) -> dict[str, str]:
    return {"id": rule.id, "origin": rule.origin, "text": render_rule(rule)}


def _rule_from_json(doc: Any, path: str, onto: Ontology | None) -> Rule:
    if not isinstance(doc, Mapping) or not isinstance(doc.get("text"), str):
        raise StoreFormatError(path, "rule must be an object with a text field")
    for key in ("id", "origin"):
        if key in doc and not isinstance(doc[key], str):
            raise StoreFormatError(f"{path}.{key}", "expected str")
    try:
        return parse_rule(doc["text"], onto, id=doc.get("id", ""), origin=doc.get("origin", ""))
    except (SchemaError, ValueError) as exc:
        raise StoreFormatError(f"{path}.text", str(exc)) from exc


def _require(doc: Mapping[str, Any], key: str, kind: type, path: str) -> Any:
    value = doc.get(key)
    if not isinstance(value, kind):
        raise StoreFormatError(f"{path}.{key}", f"expected {kind.__name__}")
    return value


def load_store(path: str | Path, onto: Ontology | None = None) -> TheoryStore:
    """Load and integrity-check a store document.

    Rules are parsed structurally; pass the ontology to also schema-check
    every stored rule.  Violations abort the load.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreFormatError("$", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StoreFormatError("$", "top level must be an object")
    missing = [s for s in _SECTIONS if s not in doc]
    if missing:
        raise StoreFormatError("$", f"missing required sections: {', '.join(missing)}")

    def entries(section: str) -> list[tuple[int, Mapping[str, Any]]]:
        value = doc[section]
        if not isinstance(value, list):
            raise StoreFormatError(f"$.{section}", "expected a list")
        for i, entry in enumerate(value):
            if not isinstance(entry, Mapping):
                raise StoreFormatError(f"$.{section}[{i}]", "expected an object")
        return list(enumerate(value))

    principles = []
    for i, entry in entries("principles"):
        where = f"$.principles[{i}]"
        kind = _require(entry, "kind", str, where)
        if kind not in PRINCIPLE_KINDS:
            raise StoreFormatError(f"{where}.kind", f"must be one of {PRINCIPLE_KINDS}")
        formal = entry.get("formal")
        principles.append(
            Principle(
                id=_require(entry, "id", str, where),
                kind=kind,
                text=_require(entry, "text", str, where),
                formal=None if formal is None else _rule_from_json(formal, f"{where}.formal", onto),
                source=entry.get("source", ""),
            )
        )
    goals = []
    for i, entry in entries("goals"):
        where = f"$.goals[{i}]"
        status = entry.get("status", "draft")
        if status not in GOAL_STATUSES:
            raise StoreFormatError(f"{where}.status", f"must be one of {GOAL_STATUSES}")
        text_value = _require(entry, "text", str, where)
        if not text_value:
            raise StoreFormatError(f"{where}.text", "goal text must be nonempty")
        goals.append(Goal(_require(entry, "id", str, where), text_value, status))
    causes = []
    for i, entry in entries("causes"):
        where = f"$.causes[{i}]"
        merged = _require(entry, "merged_from", list, where)
        if not merged:
            raise StoreFormatError(f"{where}.merged_from", "must be nonempty")
        rule_doc = entry.get("rule")
        causes.append(
            Cause(
                id=_require(entry, "id", str, where),
                goal_id=_require(entry, "goal_id", str, where),
                text=_require(entry, "text", str, where),
                merged_from=tuple(merged),
                rule=None if rule_doc is None else _rule_from_json(rule_doc, f"{where}.rule", onto),
                rule_explanation=entry.get("rule_explanation"),
            )
        )
    verified = []
    for i, entry in entries("verified_rules"):
        where = f"$.verified_rules[{i}]"
        verified.append(
            VerifiedRule(
                rule=_rule_from_json(_require(entry, "rule", Mapping, where), f"{where}.rule", onto),
                cause_id=_require(entry, "cause_id", str, where),
                goal_id=_require(entry, "goal_id", str, where),
                report_id=_require(entry, "report_id", str, where),
            )
        )
    invariants = []
    for i, entry in entries("invariants"):
        where = f"$.invariants[{i}]"
        invariants.append(
            Invariant(
                id=_require(entry, "id", str, where),
                rule=_rule_from_json(_require(entry, "rule", Mapping, where), f"{where}.rule", onto),
            )
        )
    reports = []
    for i, entry in entries("reports"):
        where = f"$.reports[{i}]"
        if not isinstance(entry, Mapping) or not isinstance(entry.get("id"), str):
            raise StoreFormatError(where, "report must be an object with a string id")
        reports.append(dict(entry))

    store = TheoryStore(
        tuple(principles), tuple(goals), tuple(causes),
        tuple(verified), tuple(invariants), tuple(reports),
    )
    _check_integrity(store)
    return store


def _check_integrity(store: TheoryStore) -> None:
    for section, ids in (
        ("principle", [p.id for p in store.principles]),
        ("goal", [g.id for g in store.goals]),
        ("cause", [c.id for c in store.causes]),
        ("invariant", [i.id for i in store.invariants]),
        ("report", [r["id"] for r in store.reports]),
    ):
        dupes = {x for x, count in Counter(ids).items() if count > 1}
        if dupes:
            raise StoreIntegrityError(f"duplicate {section} ids: {sorted(dupes)}")
    goal_ids = {g.id for g in store.goals}
    goal_of_cause = {c.id: c.goal_id for c in store.causes}
    for cause in store.causes:
        if cause.goal_id not in goal_ids:
            raise StoreIntegrityError(
                f"cause {cause.id!r} traces to missing goal {cause.goal_id!r}"
            )
    for entry in store.verified_rules:
        if entry.cause_id not in goal_of_cause:
            raise StoreIntegrityError(
                f"verified rule {entry.rule.id} traces to missing cause {entry.cause_id!r}"
            )
        if goal_of_cause[entry.cause_id] != entry.goal_id:
            raise StoreIntegrityError(
                f"verified rule {entry.rule.id} trace goal mismatch"
            )
    seen: set[Rule] = set()
    for entry in store.verified_rules:
        if entry.rule in seen:
            raise StoreIntegrityError(
                f"verified rules contain structural duplicate {render_rule(entry.rule)!r}"
            )
        seen.add(entry.rule)


def store_to_json(store: TheoryStore) -> dict[str, Any]:
    return {
        "principles": [
            {
                "id": p.id,
                "kind": p.kind,
                "text": p.text,
                "formal": None if p.formal is None else _rule_to_json(p.formal),
                "source": p.source,
            }
            for p in store.principles
        ],
        "goals": [{"id": g.id, "text": g.text, "status": g.status} for g in store.goals],
        "causes": [
            {
                "id": c.id,
                "goal_id": c.goal_id,
                "text": c.text,
                "merged_from": list(c.merged_from),
                "rule": None if c.rule is None else _rule_to_json(c.rule),
                "rule_explanation": c.rule_explanation,
            }
            for c in store.causes
        ],
        "verified_rules": [
            {
                "rule": _rule_to_json(v.rule),
                "cause_id": v.cause_id,
                "goal_id": v.goal_id,
                "report_id": v.report_id,
            }
            for v in store.verified_rules
        ],
        "invariants": [{"id": i.id, "rule": _rule_to_json(i.rule)} for i in store.invariants],
        "reports": [dict(r) for r in store.reports],
    }


_escape = json.encoder.encode_basestring  # C-accelerated where available
_INFINITY = float("inf")


def json_text(value: Any) -> str:
    """`value` written as json.dumps(value, sort_keys=True, indent=2,
    ensure_ascii=False) writes it, byte for byte, for JSON values whose
    dict keys are strings.  With `indent`, json.dumps runs its
    pure-Python encoder; this one escapes strings with the C encoder's
    function and builds the rest from one list of parts."""
    parts: list[str] = []
    _write_json(value, "\n", parts)
    return "".join(parts)


def _write_json(value: Any, newline: str, parts: list[str]) -> None:
    if isinstance(value, str):
        parts.append(_escape(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts += (separator, _escape(key), ": ")
            _write_json(value[key], inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write_json(item, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            parts.append("NaN")
        elif value in (_INFINITY, -_INFINITY):
            parts.append("Infinity" if value > 0 else "-Infinity")
        else:
            parts.append(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def replace_file(path: str | Path, text: str) -> None:
    """Write `text` to `path` in one step.

    The text goes to a temporary file in the same directory, which then
    replaces `path`, so a failure part-way through leaves the previous
    file intact and no temporary file behind.  A symlinked path keeps its
    link, and an existing file keeps its permission bits.
    """
    path = Path(path).resolve()
    temporary = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with temporary.open("x", encoding="utf-8") as out:
            out.write(text)
            out.flush()
            os.fsync(out.fileno())
        if path.exists():
            shutil.copymode(path, temporary)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def save_store(store: TheoryStore, path: str | Path) -> None:
    """Write the store in one step (`replace_file`); output bytes depend
    only on the store value."""
    _check_integrity(store)
    replace_file(path, json_text(store_to_json(store)) + "\n")
