"""Judgment oracles driving the synthesis pipeline.

An oracle answers five kinds of queries: cause generation for a goal,
pairwise semantic equivalence, individual necessity, subset achievement,
and translation of a cause into the rule language.  Implementations:

* DeterministicOracle - answers scripted in a JSON spec file; the
  reproducible backend used by tests and offline runs.
* LlmOracle (rulesynth.llm) - OpenAI-compatible chat completions.
* ReplayOracle - replays a recorded transcript with no backend at all.

Every query has a canonical string key (subset ids sorted, equivalence
pairs ordered).  Transcripts are keyed by it, and so is the LLM backend's
prompt text.  The achievement judge is not: it is called with the cause
search's own bitmask over the goal's causes and keys its cache by that
int, which maps one-to-one to the string key.  Only a miss decodes the
mask (`mask_ids`) to the frozenset of cause ids the backend is asked
about, so a repeated subset costs a dict lookup and the number of
distinct backend queries is the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable, Hashable, Mapping, Sequence

from .fol import Ontology
from .store import Cause, Goal, Principle, json_text, replace_file


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

    def merged_texts(self) -> dict[tuple[str, str], str]:
        """Each ordered pair of distinct class members -> the class's
        representative; every other pair of texts is not equivalent."""
        return {
            (a, b): representative
            for representative, members in self.equivalence_classes
            for a in members
            for b in members
            if a != b
        }


@dataclass(frozen=True)
class DeterministicOracleSpec:
    """Scripted answers per goal; achievement is monotone by construction:
    a subset achieves iff it contains some member of the sufficient family."""

    goals: Mapping[str, GoalScript]

    @classmethod
    def from_file(cls, path: str | Path) -> "DeterministicOracleSpec":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise MalformedResponse(f"{path}: oracle spec is not valid JSON: {exc}") from exc
        return cls.from_json(doc)

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "DeterministicOracleSpec":
        goals: dict[str, GoalScript] = {}
        goal_docs = _object(_object(doc, "oracle spec").get("goals", {}), "goals")
        for goal_id, entry in goal_docs.items():
            where = f"goals.{goal_id}"
            entry = _object(entry, where)
            raw = _strings(entry.get("raw_causes"), f"{where}.raw_causes")
            classes = []
            claimed: set[str] = set()
            class_docs = _list(entry.get("equivalence_classes", []), f"{where}.equivalence_classes")
            for cls_doc in class_docs:
                cls_doc = _object(cls_doc, f"{where}.equivalence_classes[]")
                members = _strings(cls_doc.get("members"), f"{where} class members")
                representative = cls_doc.get("representative")
                if not isinstance(representative, str):
                    raise MalformedResponse(f"{where}: class representative must be a string")
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
                classes.append((representative, members))
            # candidates not named by any class are implicit singletons
            necessity = {}
            for cause_id, v in _object(entry.get("individual_necessity", {}), where).items():
                if not (
                    isinstance(v, dict)
                    and isinstance(v.get("necessary"), bool)
                    and isinstance(v.get("rationale", ""), str)
                ):
                    raise MalformedResponse(
                        f"{where}: necessity of {cause_id} needs a boolean and a string rationale"
                    )
                necessity[cause_id] = NecessityVerdict(v["necessary"], v.get("rationale", ""))
            family = tuple(
                frozenset(_strings(s, f"{where}.sufficient_family"))
                for s in _list(entry.get("sufficient_family", []), f"{where}.sufficient_family")
            )
            for subset in family:
                unknown = subset - set(necessity)
                if unknown:
                    raise MalformedResponse(
                        f"{goal_id}: sufficient set references undeclared ids {sorted(unknown)}"
                    )
            translations = {}
            for text, t in _object(entry.get("translations", {}), where).items():
                if not (
                    isinstance(t, dict)
                    and isinstance(t.get("rule"), str)
                    and isinstance(t.get("explanation", ""), str)
                ):
                    raise MalformedResponse(
                        f"{where}: translation of {text!r} needs a string rule and explanation"
                    )
                translations[text] = Translation(t["rule"], t.get("explanation", ""))
            goals[goal_id] = GoalScript(raw, tuple(classes), necessity, family, translations)
        for (first_id, first), (second_id, second) in combinations(goals.items(), 2):
            shared = sorted(set(first.raw_causes) & set(second.raw_causes))
            if len(shared) < 2:
                continue
            first_merged, second_merged = first.merged_texts(), second.merged_texts()
            for pair in combinations(shared, 2):
                if first_merged.get(pair) != second_merged.get(pair):
                    raise MalformedResponse(
                        f"goals {first_id} and {second_id} disagree on whether {pair[0]!r} "
                        f"and {pair[1]!r} are equivalent, or on their merged text"
                    )
        return cls(goals)


# structural checks for parsed JSON spec documents; each names where the problem is


def _object(value: Any, where: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise MalformedResponse(f"{where}: expected an object")
    return value


def _list(value: Any, where: str) -> list[Any]:
    if not isinstance(value, list):
        raise MalformedResponse(f"{where}: expected a list")
    return value


def _strings(value: Any, where: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise MalformedResponse(f"{where}: expected a list of strings")
    return tuple(value)


class DeterministicOracle(Oracle):
    def __init__(self, spec: DeterministicOracleSpec):
        self.spec = spec
        self._merged: dict[tuple[str, str], str] = {}
        for script in spec.goals.values():
            self._merged.update(script.merged_texts())

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
        merged = self._merged.get((a, b))
        return EquivalenceVerdict(merged is not None, merged)

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
        for required in self._script(goal.id).sufficient_family:
            if required <= subset:
                return True
        return False

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
    """Answer cache with hit and miss counts, keyed by any hashable key.

    Not synchronised: use one instance from one thread.  An answer whose
    computation raises is not memoized; the next query computes it again.
    """

    def __init__(self) -> None:
        self._answers: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: Hashable, compute: Callable[..., Any], *args: Any) -> Any:
        """The answer for `key`, computing `compute(*args)` on a miss."""
        if key in self._answers:
            self.hits += 1
            return self._answers[key]
        self.misses += 1
        value = self._answers[key] = compute(*args)
        return value


def mask_ids(universe: Sequence[str]) -> Callable[[int], frozenset[str]]:
    """Decoder from a bitmask (bit i is universe[i]) to its ids, one
    table lookup per 8 bits of the mask."""
    tables = []
    for lo in range(0, len(universe), 8):
        table: list[tuple[str, ...]] = [()]
        for cause in universe[lo : lo + 8]:  # entry b lists the causes of b's bits
            table += [t + (cause,) for t in table]
        tables.append(table)

    def ids(mask: int) -> frozenset[str]:
        out: tuple[str, ...] = ()
        for table in tables:
            out += table[mask & 255]
            mask >>= 8
        return frozenset(out)

    return ids


class CachedAchievementJudge:
    """Binds an oracle to one goal and its causes and caches subset judgments.

    The judge is a plain callable int -> bool over the cause search's own
    bitmasks: bit i stands for causes[i].  The mask is the cache key, so a
    hit costs no decoding.  A miss decodes the mask to a frozenset of
    cause ids and asks the oracle about it, so backends, recorders and
    transcripts see the same queries as with string keys.  Distinct
    backend queries equal cache misses, which is the query budget.  A mask
    with a bit beyond the causes raises ValueError before any query.
    """

    def __init__(
        self,
        oracle: Oracle,
        goal: Goal,
        causes: Sequence[Cause],
        principles: Sequence[Principle],
    ):
        self.oracle = oracle
        self.goal = goal
        self.causes = tuple(causes)
        self.principles = tuple(principles)
        self.cache = QueryCache()
        self._width = len(self.causes)
        self._ids = mask_ids([cause.id for cause in self.causes])

    def __call__(self, mask: int) -> bool:
        if mask >> self._width:  # also true for a negative mask
            raise ValueError(
                f"mask {mask:#x} has a bit beyond the {self._width} causes of goal {self.goal.id!r}"
            )
        return self.cache.get_or_compute(mask, self._ask, mask)

    def _ask(self, mask: int) -> bool:
        return bool(
            self.oracle.judge_subset_achieves(self.goal, self._ids(mask), self.causes, self.principles)
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
        """Write the transcript in one step, so a failed save keeps the old one."""
        payload = {"version": 1, "entries": self.entries}
        replace_file(path, json_text(payload) + "\n")


class ReplayOracle(Oracle):
    """Serves recorded answers only; a missing key is an OracleUnavailable
    naming the key, never a silent fallback to a live backend."""

    def __init__(self, entries: Mapping[str, Any]):
        self.entries = dict(entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayOracle":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise MalformedResponse(f"{path}: transcript is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
            raise MalformedResponse(f"{path}: not a transcript file")
        return cls(doc["entries"])

    def _lookup(self, key: str) -> Any:
        if key not in self.entries:
            raise OracleUnavailable(f"transcript missing query key: {key}")
        return self.entries[key]

    def generate_causes(self, goal, principles, count_hint):
        answer = self._lookup(query_key("generate", goal.id, count_hint))
        if not (answer and isinstance(answer, list) and all(isinstance(t, str) for t in answer)):
            raise MalformedResponse("recorded generate answer is not a nonempty list of strings")
        return list(answer)

    def judge_equivalent(self, a, b):
        answer = self._lookup(equivalence_key(a, b))
        if not (
            isinstance(answer, dict)
            and isinstance(answer.get("equivalent"), bool)
            and isinstance(answer.get("merged_text", 0), (str, type(None)))
        ):
            raise MalformedResponse(
                "recorded equivalence answer is not {equivalent: boolean, merged_text: string or null}"
            )
        return EquivalenceVerdict(answer["equivalent"], answer["merged_text"])

    def judge_individual_necessity(self, cause, goal, principles):
        answer = self._lookup(query_key("necessity", goal.id, cause.id))
        if not (
            isinstance(answer, dict)
            and isinstance(answer.get("necessary"), bool)
            and isinstance(answer.get("rationale"), str)
        ):
            raise MalformedResponse(
                "recorded necessity answer is not {necessary: boolean, rationale: string}"
            )
        return check_necessity(NecessityVerdict(answer["necessary"], answer["rationale"]), principles)

    def judge_subset_achieves(self, goal, subset, causes, principles):
        answer = self._lookup(achieves_key(goal.id, subset))
        if not isinstance(answer, bool):
            raise MalformedResponse("recorded achievement answer is not a boolean")
        return answer

    def translate_to_fol(self, cause, onto, grammar_doc, feedback=None):
        answer = self._lookup(query_key("translate", cause.goal_id, cause.text, feedback or ""))
        if not (
            isinstance(answer, dict)
            and isinstance(answer.get("rule"), str)
            and isinstance(answer.get("explanation"), str)
        ):
            raise MalformedResponse("recorded translation is not {rule: string, explanation: string}")
        return Translation(answer["rule"], answer["explanation"])
