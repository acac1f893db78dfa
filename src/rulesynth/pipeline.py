"""End-to-end stage runners shared by the CLI: synthesize, analyze, verify.

A ScenarioConfig names the goal, the store and ontology files, exactly one
oracle mode, and the grounding parameters.  All stage runners are pure
with respect to the store value: they take a store and return the updated
store plus the stage artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import count
from pathlib import Path
from typing import Any, Mapping, Sequence

from .analysis import AnalysisReport, analyze
from .consolidate import consolidate
from .fol import (
    Ontology,
    Rule,
    RuleSyntaxError,
    SchemaError,
    grammar_reference,
    parse_rule,
    render_rule,
)
from .grounding import COMPARISON_MODES, GroundingConfig
from .llm import LlmOracle, LlmOracleConfig
from .oracle import (
    DeterministicOracle,
    DeterministicOracleSpec,
    Oracle,
    Translation,
    TranscriptOracle,
    UntranslatableCause,
)
from .store import Cause, Goal, TheoryStore, commit_verified_rule, json_text
from .verify import VerificationReport, verify

ORACLE_MODES = ("deterministic", "llm", "replay")


class ConfigError(ValueError):
    """Bad or incomplete scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    goal_text: str
    store_path: Path
    ontology_path: Path
    oracle_mode: str
    oracle_spec_path: Path | None = None
    llm: LlmOracleConfig | None = None
    transcript_path: Path | None = None
    domain_size: int = 3
    comparison_mode: str = "opaque"
    out_dir: Path = Path("out")
    count_hint: int = 8

    def __post_init__(self) -> None:
        if self.oracle_mode not in ORACLE_MODES:
            raise ConfigError(f"oracle mode must be one of {ORACLE_MODES}")
        if not isinstance(self.goal_text, str) or not self.goal_text.strip():
            raise ConfigError("goal text must be a nonempty string")
        for name, value in (
            ("count_hint", self.count_hint),
            ("grounding.domain_size", self.domain_size),
        ):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.comparison_mode not in COMPARISON_MODES:
            raise ConfigError(
                f"grounding.comparison_mode must be one of {COMPARISON_MODES},"
                f" got {self.comparison_mode!r}"
            )

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file does not exist: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_json(doc, base_dir=path.parent)

    @classmethod
    def from_json(cls, doc: Mapping[str, Any], base_dir: Path = Path(".")) -> "ScenarioConfig":
        def resolve(value: str | None) -> Path | None:
            return None if value is None else (base_dir / value)

        def section(key: str) -> Mapping[str, Any]:
            value = doc.get(key, {})
            if not isinstance(value, Mapping):
                raise ConfigError(f"{key} must be a JSON object")
            return value

        try:
            if not isinstance(doc, Mapping):
                raise ConfigError("scenario config must be a JSON object")
            oracle_doc = section("oracle")
            mode = oracle_doc.get("mode", "")
            grounding = section("grounding")
            llm_doc = oracle_doc.get("llm")
            return cls(
                goal_text=doc["goal"],
                store_path=base_dir / doc["store"],
                ontology_path=base_dir / doc["ontology"],
                oracle_mode=mode,
                oracle_spec_path=resolve(oracle_doc.get("spec")),
                llm=None if llm_doc is None else LlmOracleConfig.from_json(llm_doc),
                transcript_path=resolve(oracle_doc.get("transcript")),
                domain_size=grounding.get("domain_size", 3),
                comparison_mode=grounding.get("comparison_mode", "opaque"),
                out_dir=base_dir / doc.get("out", "out"),
                count_hint=doc.get("count_hint", 8),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad scenario config: {exc}") from exc

    def grounding_config(self, onto: Ontology) -> GroundingConfig:
        return GroundingConfig.default(onto, self.domain_size, self.comparison_mode)


def build_oracle(config: ScenarioConfig) -> Oracle:
    if config.oracle_mode == "deterministic":
        if config.oracle_spec_path is None:
            raise ConfigError("deterministic mode requires an oracle spec path")
        if not config.oracle_spec_path.exists():
            raise ConfigError(f"oracle spec does not exist: {config.oracle_spec_path}")
        return DeterministicOracle(DeterministicOracleSpec.from_file(config.oracle_spec_path))
    if config.oracle_mode == "replay":
        if config.transcript_path is None:
            raise ConfigError("replay mode requires a transcript path")
        if not config.transcript_path.exists():
            raise ConfigError(f"transcript does not exist: {config.transcript_path}")
        return TranscriptOracle.from_file(config.transcript_path)
    if config.llm is None:
        raise ConfigError("llm mode requires an llm configuration block")
    return LlmOracle(config.llm)


def resolve_goal(store: TheoryStore, goal_text: str) -> tuple[TheoryStore, Goal]:
    """Find the goal by exact text, creating a draft goal when absent.

    A new goal takes the first free id g<k> from k = len(goals) + 1 up, so
    a store whose ids are g1..gN gives it g<N+1>."""
    goal = store.goal_by_text(goal_text)
    if goal is not None:
        return store, goal
    taken = {g.id for g in store.goals}
    goal_id = next(f"g{k}" for k in count(len(store.goals) + 1) if f"g{k}" not in taken)
    goal = Goal(id=goal_id, text=goal_text, status="draft")
    return store.with_goal(goal), goal


def translate_cause(
    oracle: Oracle, cause: Cause, onto: Ontology, grammar_doc: str
) -> tuple[Rule, Translation]:
    """Ask for a translation, validate by parsing, re-ask once on failure."""
    translation = oracle.translate_to_fol(cause, onto, grammar_doc)
    try:
        rule = parse_rule(translation.rule_text, onto, origin=translation.explanation)
    except (RuleSyntaxError, SchemaError) as first_error:
        translation = oracle.translate_to_fol(
            cause, onto, grammar_doc, feedback=str(first_error)
        )
        try:
            rule = parse_rule(translation.rule_text, onto, origin=translation.explanation)
        except (RuleSyntaxError, SchemaError) as second_error:
            raise UntranslatableCause(
                cause.id, f"translation failed to parse after retry: {second_error}"
            ) from second_error
    return rule, translation


@dataclass(frozen=True)
class SynthesisResult:
    goal: Goal
    raw_causes: tuple[str, ...]
    causes: tuple[Cause, ...]
    merge_inconsistencies: tuple[str, ...] = ()

    def to_json_dict(self) -> dict[str, Any]:
        doc = {
            "goal_id": self.goal.id,
            "goal_text": self.goal.text,
            "raw_causes": list(self.raw_causes),
            "causes": [
                {
                    "id": c.id,
                    "text": c.text,
                    "merged_from": list(c.merged_from),
                    "rule_id": None if c.rule is None else c.rule.id,
                    "rule_text": None if c.rule is None else render_rule(c.rule),
                    "rule_explanation": c.rule_explanation,
                }
                for c in self.causes
            ],
        }
        if self.merge_inconsistencies:  # kept out otherwise, so consistent runs keep their bytes
            doc["merge_inconsistencies"] = list(self.merge_inconsistencies)
        return doc


def run_synthesize(
    store: TheoryStore, onto: Ontology, oracle: Oracle, config: ScenarioConfig
) -> tuple[TheoryStore, SynthesisResult]:
    """generate -> consolidate -> translate; returns the updated store."""
    store, goal = resolve_goal(store, config.goal_text)
    raw = oracle.generate_causes(goal, store.principles, config.count_hint)
    deduped = list(dict.fromkeys(raw))  # drop string duplicates, keep order
    partition = consolidate(deduped, oracle)
    grammar_doc = grammar_reference(onto)
    causes = []
    for k, merge_class in enumerate(partition.classes, start=1):
        cause = Cause(
            id=f"{goal.id}-c{k}",
            goal_id=goal.id,
            text=merge_class.representative,
            merged_from=merge_class.members,
        )
        rule, translation = translate_cause(oracle, cause, onto, grammar_doc)
        causes.append(replace(cause, rule=rule, rule_explanation=translation.explanation))
    store = store.with_causes(causes)
    return store, SynthesisResult(goal, tuple(raw), tuple(causes), partition.inconsistencies)


def run_analyze(
    store: TheoryStore, oracle: Oracle, config: ScenarioConfig, *, brute_force: bool = False
) -> tuple[TheoryStore, AnalysisReport]:
    """Cause-set analysis for the config goal; archives the report."""
    goal = store.goal_by_text(config.goal_text)
    if goal is None:
        raise ConfigError(f"goal not found in store: {config.goal_text!r}")
    if not store.causes_for_goal(goal.id):
        raise ConfigError(f"goal {goal.id} has no consolidated causes; run synthesize first")
    report = analyze(goal, store, oracle, brute_force=brute_force)
    store = store.with_report(report.to_json_dict())
    store = store.with_goal_status(goal.id, "analyzed")
    return store, report


def run_verify(
    store: TheoryStore,
    onto: Ontology,
    config: ScenarioConfig,
    rule_ids: Sequence[str] | None = None,
) -> tuple[TheoryStore, list[VerificationReport]]:
    """Verify cause rules in store order, committing each Accepted rule
    before the next candidate is judged (the theory grows as it goes).

    With rule_ids=None every not-yet-verified rule of the config goal is
    processed; otherwise exactly the named rules are, wherever they live.
    """
    goal = store.goal_by_text(config.goal_text)
    grounding = config.grounding_config(onto)
    targets: list[Cause] = []
    if rule_ids is None:
        if goal is None:
            raise ConfigError(f"goal not found in store: {config.goal_text!r}")
        verified = {v.rule for v in store.verified_rules}
        targets = [
            c for c in store.causes_for_goal(goal.id)
            if c.rule is not None and c.rule not in verified
        ]
    else:
        wanted = set(rule_ids)
        for cause in store.causes:
            if cause.rule is not None and cause.rule.id in wanted:
                targets.append(cause)
                wanted.discard(cause.rule.id)
        if wanted:
            raise ConfigError(f"rule ids not found in store: {sorted(wanted)}")
    reports = []
    for cause in targets:
        assert cause.rule is not None
        report = verify(cause.rule, store, grounding, onto)
        reports.append(report)
        store = store.with_report(report.to_json_dict())
        if report.verdict == "Accepted":
            store, _duplicate = commit_verified_rule(
                store, cause.rule, (cause.id, cause.goal_id), report.to_json_dict()
            )
    return store, reports


def write_json_artifact(path: Path, payload: Mapping[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(payload) + "\n", encoding="utf-8")
