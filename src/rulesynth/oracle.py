"""Judgment oracles driving the synthesis pipeline.

An oracle answers five kinds of queries: cause generation for a goal,
pairwise semantic equivalence, individual necessity, subset achievement,
and translation of a cause into the rule language.  Implementations:

* DeterministicOracle - answers scripted in a JSON spec file; the
  reproducible backend used by tests and offline runs.
* LlmOracle (rulesynth.llm) - OpenAI-compatible chat completions.
* TranscriptOracle - serves a recorded transcript and asks a live oracle,
  if it has one, about each key it lacks, recording the answer.

Every query has a canonical string key (subset ids sorted, equivalence
pairs ordered), built only in TranscriptOracle.  It checks each answer's
JSON form, recorded or live, before serving or recording it; the LLM
backend shares the necessity and translation checks.  A cause subset is
one int bitmask (bit i is causes[i]) from the cause search to the backend.
The achievement judge keeps answers by that int, one-to-one with the string
key; ids are decoded only for a transcript key or a prompt, so a repeated
subset costs a dict lookup and the distinct backend queries stay the same.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

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
        subset: int,
        causes: Sequence[Cause],
        principles: Sequence[Principle],
    ) -> bool:
        """True iff the cause subset achieves the goal under the principles.
        `subset` is a bitmask over `causes`: bit i stands for causes[i], and
        no bit is set at or past len(causes)."""
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
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        # (goal, causes, family as masks), held so no identity check matches a reused id
        self._family: tuple[Goal | None, Sequence[Cause], tuple[int, ...]] = (None, (), ())

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
        subset: int,
        causes: Sequence[Cause],
        principles: Sequence[Principle],
    ) -> bool:
        held_goal, held_causes, family = self._family
        if held_goal is not goal or held_causes is not causes:
            bits = {cause.id: 1 << i for i, cause in enumerate(causes)}
            past = 1 << len(causes)  # for an id not among the causes: a bit no subset has
            family = tuple(sum({bits.get(i, past) for i in s}) for s in self._script(goal.id).sufficient_family)
            self._family = (goal, causes, family)
        for required in family:
            if required & subset == required:
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


# --- the achievement judge ---


class CachedAchievementJudge:
    """Binds an oracle to one goal and its causes and keeps its answers.

    The judge is a plain callable int -> bool over the cause search's own
    bitmasks: bit i stands for causes[i].  Answers are kept in one dict
    keyed by the mask, so a hit costs one lookup.  A miss checks the
    mask's width and asks the oracle's `judge_subset_achieves` about the
    same mask, over the same causes tuple on every query, so backends,
    recorders and transcripts see the same queries as with string keys.
    An answer that raised is not kept, so the number of kept answers is
    the number of distinct backend queries, the query budget.  A mask with
    a bit beyond the causes raises ValueError before any query.  Not
    synchronised: use one judge from one thread.

    `ask` is the call path itself, a closure over locals bound once
    (`_judge_path`): a hit or a miss looks up no attribute.  The searches
    are handed `ask`; calling the judge goes through it too.
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
        self.ask, self._answers, self._hits = _judge_path(
            oracle.judge_subset_achieves, goal, self.causes, self.principles
        )

    def __call__(self, mask: int) -> bool:
        return self.ask(mask)

    @property
    def hits(self) -> int:
        return self._hits()

    @property
    def query_count(self) -> int:
        return len(self._answers)

    misses = query_count

    @property
    def cache(self) -> "CachedAchievementJudge":
        # bench/tracing.py reads judge.cache.hits and judge.cache.misses;
        # this alias goes once it reads the judge's own counts
        return self


def _judge_path(
    achieves: Callable[..., bool], goal: Goal, causes: tuple[Cause, ...], principles: tuple[Principle, ...]
) -> tuple[Callable[[int], bool], dict[int, bool], Callable[[], int]]:
    """The judge's call path, its dict of answers and a reader of its hit
    count.  The path closes over locals only and never over the judge, so
    no reference cycle keeps a judge, and with it its 2^n answers, alive
    past its analysis: reference counting frees them."""
    answers: dict[int, bool] = {}
    lookup = answers.get
    width = len(causes)
    hits = 0

    def ask(mask: int) -> bool:
        nonlocal hits
        answer = lookup(mask)
        if answer is not None:
            hits += 1
            return answer
        if mask >> width:  # also true for a negative mask
            raise ValueError(f"mask {mask:#x} has a bit beyond the {width} causes of goal {goal.id!r}")
        answer = answers[mask] = bool(achieves(goal, mask, causes, principles))
        return answer

    return ask, answers, lambda: hits


# --- transcripts ---


class TranscriptOracle(Oracle):
    """Serves recorded answers keyed by canonical query key.  A missing key
    is asked of `live`, and the answer's JSON form is recorded only after it
    passes the check a recorded answer gets, so every transcript a run
    writes replays.  With no live oracle a missing key is an
    OracleUnavailable naming it, never a silent fallback to a backend."""

    def __init__(self, entries: Mapping[str, Any] | None = None, live: Oracle | None = None):
        self.entries = dict(entries or {})
        self.live = live

    @classmethod
    def from_file(cls, path: str | Path) -> "TranscriptOracle":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise MalformedResponse(f"{path}: transcript is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
            raise MalformedResponse(f"{path}: not a transcript file")
        return cls(doc["entries"])

    def save(self, path: str | Path) -> None:
        """Write the transcript in one step, so a failed save keeps the old one."""
        payload = {"version": 1, "entries": self.entries}
        replace_file(path, json_text(payload) + "\n")

    def _answer(self, key: str, ask: Callable[[Oracle], Any], parse: Callable[[Any], Any]) -> Any:
        # `ask` gives the live answer's JSON form: a verdict's dataclass fields, say
        if key in self.entries:
            return parse(self.entries[key])
        if self.live is None:
            raise OracleUnavailable(f"transcript missing query key: {key}")
        doc = ask(self.live)
        answer = parse(doc)
        self.entries[key] = doc
        return answer

    def generate_causes(self, goal, principles, count_hint):
        return self._answer(
            query_key("generate", goal.id, count_hint),
            lambda live: list(live.generate_causes(goal, principles, count_hint)),
            parse_causes,
        )

    def judge_equivalent(self, a, b):
        return self._answer(
            equivalence_key(a, b),
            lambda live: asdict(live.judge_equivalent(a, b)),
            parse_equivalence,
        )

    def judge_individual_necessity(self, cause, goal, principles):
        return self._answer(
            query_key("necessity", goal.id, cause.id),
            lambda live: asdict(live.judge_individual_necessity(cause, goal, principles)),
            lambda doc: parse_necessity(doc, principles),
        )

    def judge_subset_achieves(self, goal, subset, causes, principles):
        ids = frozenset(cause.id for i, cause in enumerate(causes) if subset >> i & 1)
        return self._answer(
            achieves_key(goal.id, ids),
            lambda live: bool(live.judge_subset_achieves(goal, subset, causes, principles)),
            parse_achieves,
        )

    def translate_to_fol(self, cause, onto, grammar_doc, feedback=None):
        def ask(live: Oracle) -> dict[str, Any]:
            translation = live.translate_to_fol(cause, onto, grammar_doc, feedback)
            return {"rule": translation.rule_text, "explanation": translation.explanation}

        return self._answer(
            query_key("translate", cause.goal_id, cause.text, feedback or ""), ask, parse_translation
        )


# checks of an answer's JSON form; the LLM backend shares the `parse_` ones


def _fields(doc: Any, kind: str, **types: type | tuple[type, ...]) -> list[Any]:
    """The values of an answer object's fields, each checked for its type."""
    if not (isinstance(doc, dict) and all(isinstance(doc.get(f, ...), t) for f, t in types.items())):
        raise MalformedResponse(f"{kind} answer is not an object whose {', '.join(types)} have the right types")
    return [doc[f] for f in types]


def parse_causes(doc: Any) -> list[str]:
    if not (doc and isinstance(doc, list) and all(isinstance(t, str) and t.strip() for t in doc)):
        raise MalformedResponse("generate answer is not a nonempty list of non-blank strings")
    return list(doc)


def parse_equivalence(doc: Any) -> EquivalenceVerdict:
    """An equivalent verdict needs a non-blank merged text; a non-equivalent
    one's merged text is dropped."""
    equivalent, merged = _fields(doc, "equivalence", equivalent=bool, merged_text=(str, type(None)))
    if equivalent and not (merged and merged.strip()):
        raise MalformedResponse("equivalence answer is not a verdict with a non-blank merged_text")
    return EquivalenceVerdict(equivalent, merged if equivalent else None)


def parse_achieves(doc: Any) -> bool:
    if not isinstance(doc, bool):
        raise MalformedResponse("achievement answer is not a boolean")
    return doc


def parse_necessity(doc: Any, principles: Sequence[Principle]) -> NecessityVerdict:
    verdict = NecessityVerdict(*_fields(doc, "necessity", necessary=bool, rationale=str))
    return check_necessity(verdict, principles)


def parse_translation(doc: Any) -> Translation:
    return Translation(*_fields(doc, "translation", rule=str, explanation=str))
