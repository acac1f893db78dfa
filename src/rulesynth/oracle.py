"""Judgment oracles driving the synthesis pipeline.

An oracle answers five kinds of queries: cause generation for a goal,
pairwise semantic equivalence, individual necessity, subset achievement,
and translation of a cause into the rule language.  Implementations:

* DeterministicOracle - answers scripted in a JSON spec file; the
  reproducible backend used by tests and offline runs.
* LlmOracle (rulesynth.llm) - OpenAI-compatible chat completions.
* ReplayOracle - replays a recorded transcript with no backend at all.

Every query has a canonical string key (subset ids sorted, equivalence
pairs ordered), which is what the cache, the transcripts, and the query
budget accounting all share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .fol import Ontology
from .store import Cause, Goal, Principle


class OracleUnavailable(RuntimeError):
    """Backend unreachable, retries exhausted, or transcript incomplete."""


class MalformedResponse(ValueError):
    """Oracle answer failed the structured-output schema for its query kind."""


class UntranslatableCause(ValueError):
    """Translation did not parse even after the bounded re-ask."""

    def __init__(self, cause_id: str, message: str):
        self.cause_id = cause_id
        super().__init__(f"cause {cause_id}: {message}")


def query_key(kind: str, *parts: str | int) -> str:
    """Canonical cache/transcript key for one oracle query."""
    return json.dumps([kind, *parts], separators=(",", ":"), ensure_ascii=False)


def achieves_key(goal_id: str, subset: frozenset[str]) -> str:
    return query_key("achieves", goal_id, *sorted(subset))


def equivalence_key(a: str, b: str) -> str:
    first, second = sorted((a, b))
    return query_key("equivalent", first, second)


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    merged_text: str | None


@dataclass(frozen=True)
class NecessityVerdict:
    necessary: bool
    rationale: str


@dataclass(frozen=True)
class Translation:
    rule_text: str
    explanation: str


def check_necessity(verdict: NecessityVerdict, principles: Sequence[Principle]) -> NecessityVerdict:
    """Enforce the rationale contract: a necessary verdict must justify
    itself with nonempty text naming at least one principle id."""
    if verdict.necessary:
        if not verdict.rationale.strip():
            raise MalformedResponse("necessary verdict with empty rationale")
        if not any(p.id in verdict.rationale for p in principles):
            raise MalformedResponse(
                "necessity rationale does not cite any principle id"
            )
    return verdict


class Oracle:
    """Interface; implementations answer deterministically per query key."""

    def generate_causes(
        self, goal: Goal, principles: Sequence[Principle], count_hint: int
    ) -> list[str]:
        raise NotImplementedError

    def judge_equivalent(self, a: str, b: str) -> EquivalenceVerdict:
        """Precondition: a != b.  Symmetric in its equivalence verdict."""
        raise NotImplementedError

    def judge_individual_necessity(
        self, cause: Cause, goal: Goal, principles: Sequence[Principle]
    ) -> NecessityVerdict:
        raise NotImplementedError

    def judge_subset_achieves(
        self,
        goal: Goal,
        subset: frozenset[str],
        causes: Sequence[Cause],
        principles: Sequence[Principle],
    ) -> bool:
        """True iff the cause subset achieves the goal under the principles."""
        raise NotImplementedError

    def translate_to_fol(
        self,
        cause: Cause,
        onto: Ontology,
        grammar_doc: str,
        feedback: str | None = None,
    ) -> Translation:
        raise NotImplementedError


# --- deterministic oracle ---


@dataclass(frozen=True)
class GoalScript:
    raw_causes: tuple[str, ...]
    equivalence_classes: tuple[tuple[str, tuple[str, ...]], ...]  # (representative, members)
    individual_necessity: Mapping[str, NecessityVerdict]
    sufficient_family: tuple[frozenset[str], ...]
    translations: Mapping[str, Translation]


@dataclass(frozen=True)
class DeterministicOracleSpec:
    """Scripted answers per goal; achievement is monotone by construction:
    a subset achieves iff it contains some member of the sufficient family."""

    goals: Mapping[str, GoalScript]

    @classmethod
    def from_file(cls, path: str | Path) -> "DeterministicOracleSpec":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_json(doc)

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "DeterministicOracleSpec":
        goals: dict[str, GoalScript] = {}
        for goal_id, entry in doc.get("goals", {}).items():
            raw = tuple(entry["raw_causes"])
            classes = []
            claimed: set[str] = set()
            for cls_doc in entry.get("equivalence_classes", []):
                members = tuple(cls_doc["members"])
                if len(members) < 1:
                    raise MalformedResponse(f"{goal_id}: empty equivalence class")
                for member in members:
                    if member not in raw:
                        raise MalformedResponse(
                            f"{goal_id}: class member not a declared candidate: {member!r}"
                        )
                    if member in claimed:
                        raise MalformedResponse(
                            f"{goal_id}: candidate in two classes: {member!r}"
                        )
                    claimed.add(member)
                classes.append((cls_doc["representative"], members))
            # candidates not named by any class are implicit singletons
            necessity = {
                cause_id: NecessityVerdict(bool(v["necessary"]), v.get("rationale", ""))
                for cause_id, v in entry.get("individual_necessity", {}).items()
            }
            family = tuple(frozenset(s) for s in entry.get("sufficient_family", []))
            for subset in family:
                unknown = subset - set(necessity)
                if unknown:
                    raise MalformedResponse(
                        f"{goal_id}: sufficient set references undeclared ids {sorted(unknown)}"
                    )
            translations = {
                text: Translation(t["rule"], t.get("explanation", ""))
                for text, t in entry.get("translations", {}).items()
            }
            goals[goal_id] = GoalScript(raw, tuple(classes), necessity, family, translations)
        return cls(goals)


class DeterministicOracle(Oracle):
    def __init__(self, spec: DeterministicOracleSpec):
        self.spec = spec
        self._class_of: dict[str, tuple[str, tuple[str, ...]]] = {}
        for script in spec.goals.values():
            for rep, members in script.equivalence_classes:
                for member in members:
                    self._class_of[member] = (rep, members)

    def _script(self, goal_id: str) -> GoalScript:
        script = self.spec.goals.get(goal_id)
        if script is None:
            raise MalformedResponse(f"oracle spec has no answers for goal {goal_id!r}")
        return script

    def generate_causes(
        self, goal: Goal, principles: Sequence[Principle], count_hint: int
    ) -> list[str]:
        if count_hint < 1:
            raise ValueError("count_hint must be positive")
        raw = self._script(goal.id).raw_causes
        if not raw:
            raise MalformedResponse(f"oracle spec declares no causes for goal {goal.id!r}")
        return list(raw[:count_hint])

    def judge_equivalent(self, a: str, b: str) -> EquivalenceVerdict:
        if a == b:
            raise ValueError("judge_equivalent requires distinct texts")
        entry = self._class_of.get(a)
        if entry is not None and b in entry[1]:
            return EquivalenceVerdict(True, entry[0])
        return EquivalenceVerdict(False, None)

    def judge_individual_necessity(
        self, cause: Cause, goal: Goal, principles: Sequence[Principle]
    ) -> NecessityVerdict:
        verdicts = self._script(goal.id).individual_necessity
        if cause.id not in verdicts:
            raise MalformedResponse(
                f"oracle spec has no necessity verdict for cause {cause.id!r}"
            )
        return check_necessity(verdicts[cause.id], principles)

    def judge_subset_achieves(
        self,
        goal: Goal,
        subset: frozenset[str],
        causes: Sequence[Cause],
        principles: Sequence[Principle],
    ) -> bool:
        family = self._script(goal.id).sufficient_family
        return any(required <= subset for required in family)

    def translate_to_fol(
        self,
        cause: Cause,
        onto: Ontology,
        grammar_doc: str,
        feedback: str | None = None,
    ) -> Translation:
        translations = self._script(cause.goal_id).translations
        if cause.text not in translations:
            raise MalformedResponse(
                f"oracle spec has no translation for cause text {cause.text!r}"
            )
        return translations[cause.text]


# --- query cache ---


class QueryCache:
    """Answer cache keyed by canonical query key, with hit and miss counts.

    Not synchronised: use one instance from one thread.  An answer whose
    computation raises is not memoized; the next query computes it again.
    """

    def __init__(self) -> None:
        self._answers: dict[str, Any] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        if key in self._answers:
            self.hits += 1
            return self._answers[key]
        self.misses += 1
        value = self._answers[key] = compute()
        return value


class CachedAchievementJudge:
    """Binds an oracle to one goal and caches subset judgments.

    The judge is a plain callable frozenset[str] -> bool so the search
    code (and its property tests) never touch oracle plumbing.  Distinct
    backend queries equal cache misses, which is the query budget.
    """

    def __init__(
        self,
        oracle: Oracle,
        goal: Goal,
        causes: Sequence[Cause],
        principles: Sequence[Principle],
        cache: QueryCache | None = None,
    ):
        self.oracle = oracle
        self.goal = goal
        self.causes = tuple(causes)
        self.principles = tuple(principles)
        self.cache = cache if cache is not None else QueryCache()

    def __call__(self, subset: frozenset[str]) -> bool:
        key = achieves_key(self.goal.id, subset)
        return self.cache.get_or_compute(
            key,
            lambda: bool(
                self.oracle.judge_subset_achieves(
                    self.goal, subset, self.causes, self.principles
                )
            ),
        )

    @property
    def query_count(self) -> int:
        return self.cache.misses


# --- transcripts: record and replay ---


class RecordingOracle(Oracle):
    """Wraps any oracle and records every answer keyed by canonical query key."""

    def __init__(self, inner: Oracle):
        self.inner = inner
        self.entries: dict[str, Any] = {}

    def _record(self, key: str, value: Any) -> Any:
        self.entries[key] = value
        return value

    def generate_causes(self, goal, principles, count_hint):
        answer = self.inner.generate_causes(goal, principles, count_hint)
        self._record(query_key("generate", goal.id, count_hint), list(answer))
        return answer

    def judge_equivalent(self, a, b):
        verdict = self.inner.judge_equivalent(a, b)
        self._record(
            equivalence_key(a, b),
            {"equivalent": verdict.equivalent, "merged_text": verdict.merged_text},
        )
        return verdict

    def judge_individual_necessity(self, cause, goal, principles):
        verdict = self.inner.judge_individual_necessity(cause, goal, principles)
        self._record(
            query_key("necessity", goal.id, cause.id),
            {"necessary": verdict.necessary, "rationale": verdict.rationale},
        )
        return verdict

    def judge_subset_achieves(self, goal, subset, causes, principles):
        answer = self.inner.judge_subset_achieves(goal, subset, causes, principles)
        self._record(achieves_key(goal.id, subset), bool(answer))
        return answer

    def translate_to_fol(self, cause, onto, grammar_doc, feedback=None):
        translation = self.inner.translate_to_fol(cause, onto, grammar_doc, feedback)
        self._record(
            query_key("translate", cause.goal_id, cause.text, feedback or ""),
            {"rule": translation.rule_text, "explanation": translation.explanation},
        )
        return translation

    def save(self, path: str | Path) -> None:
        payload = {"version": 1, "entries": self.entries}
        text = json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)
        Path(path).write_text(text + "\n", encoding="utf-8")


class ReplayOracle(Oracle):
    """Serves recorded answers only; a missing key is an OracleUnavailable
    naming the key, never a silent fallback to a live backend."""

    def __init__(self, entries: Mapping[str, Any]):
        self.entries = dict(entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayOracle":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
            raise MalformedResponse(f"{path}: not a transcript file")
        return cls(doc["entries"])

    def _lookup(self, key: str) -> Any:
        if key not in self.entries:
            raise OracleUnavailable(f"transcript missing query key: {key}")
        return self.entries[key]

    def generate_causes(self, goal, principles, count_hint):
        answer = self._lookup(query_key("generate", goal.id, count_hint))
        if not isinstance(answer, list) or not all(isinstance(t, str) for t in answer):
            raise MalformedResponse("recorded generate answer is not a list of strings")
        return list(answer)

    def judge_equivalent(self, a, b):
        answer = self._lookup(equivalence_key(a, b))
        try:
            return EquivalenceVerdict(bool(answer["equivalent"]), answer["merged_text"])
        except (TypeError, KeyError) as exc:
            raise MalformedResponse(f"recorded equivalence answer malformed: {exc}") from exc

    def judge_individual_necessity(self, cause, goal, principles):
        answer = self._lookup(query_key("necessity", goal.id, cause.id))
        try:
            verdict = NecessityVerdict(bool(answer["necessary"]), str(answer["rationale"]))
        except (TypeError, KeyError) as exc:
            raise MalformedResponse(f"recorded necessity answer malformed: {exc}") from exc
        return check_necessity(verdict, principles)

    def judge_subset_achieves(self, goal, subset, causes, principles):
        answer = self._lookup(achieves_key(goal.id, subset))
        if not isinstance(answer, bool):
            raise MalformedResponse("recorded achievement answer is not a boolean")
        return answer

    def translate_to_fol(self, cause, onto, grammar_doc, feedback=None):
        answer = self._lookup(query_key("translate", cause.goal_id, cause.text, feedback or ""))
        try:
            return Translation(str(answer["rule"]), str(answer["explanation"]))
        except (TypeError, KeyError) as exc:
            raise MalformedResponse(f"recorded translation malformed: {exc}") from exc
