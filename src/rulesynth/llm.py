"""LLM-backed oracle speaking the OpenAI-compatible chat-completions protocol.

Every query is sent at temperature 0 with a declared JSON response schema;
free-text answers are rejected.  A response that fails its schema gets one
bounded re-ask with the validation error appended, then hard-fails with
MalformedResponse.  Transport failures are retried up to the configured
bound and then surface as OracleUnavailable.

The default prompt templates live in PROMPTS and can be overridden per
query kind through LlmOracleConfig.prompts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import requests

from .fol import Ontology
from .oracle import (
    EquivalenceVerdict,
    MalformedResponse,
    NecessityVerdict,
    Oracle,
    OracleUnavailable,
    Translation,
    parse_achieves,
    parse_causes,
    parse_equivalence,
    parse_necessity,
    parse_translation,
)
from .store import Cause, Goal, Principle

Transport = Callable[[str, Mapping[str, Any], Mapping[str, str], float], Mapping[str, Any]]


@dataclass(frozen=True)
class LlmOracleConfig:
    endpoint: str
    model: str
    max_retries: int = 2
    timeout: float = 60.0
    api_key_env: str = "RULESYNTH_API_KEY"
    prompts: Mapping[str, str] | None = None  # overrides for the default template set

    def __post_init__(self) -> None:
        if not 0 <= self.max_retries <= 5:
            raise ValueError("max_retries must be between 0 and 5")
        if not 0 < self.timeout < float("inf"):  # also false for NaN
            raise ValueError(f"llm timeout must be a finite positive number of seconds, got {self.timeout!r}")
        for name in ("endpoint", "model", "api_key_env"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"llm {name} must be a string")
        if self.prompts is not None:
            if not isinstance(self.prompts, Mapping) or not all(
                isinstance(template, str) for template in self.prompts.values()
            ):
                raise ValueError("llm prompts must map query kinds to template strings")
            if not set(self.prompts) <= set(PROMPTS):
                unknown = sorted(set(self.prompts) - set(PROMPTS))
                raise ValueError(f"unknown prompt template keys: {unknown}")
            for kind, template in self.prompts.items():
                try:  # the fields each query fills in, with values of their types
                    template.format(**_PROMPT_FIELDS[kind])
                except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
                    raise ValueError(f"llm prompt {kind!r} does not format: {exc!r}") from None

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "LlmOracleConfig":
        if float(doc.get("temperature", 0.0)) != 0:  # every query is sent at temperature 0
            raise ValueError("pipeline determinism requires temperature 0")
        return cls(
            endpoint=doc["endpoint"],
            model=doc["model"],
            max_retries=int(doc.get("max_retries", 2)),
            timeout=float(doc.get("timeout", 60.0)),
            api_key_env=doc.get("api_key_env", "RULESYNTH_API_KEY"),
            prompts=doc.get("prompts"),
        )

    def template(self, kind: str) -> str:
        if self.prompts and kind in self.prompts:
            return self.prompts[kind]
        return PROMPTS[kind]


_SCHEMAS: dict[str, dict[str, Any]] = {
    "generate": {
        "type": "object",
        "properties": {
            "causes": {"type": "array", "items": {"type": "string"}, "minItems": 1},
        },
        "required": ["causes"],
        "additionalProperties": False,
    },
    "equivalent": {
        "type": "object",
        "properties": {
            "equivalent": {"type": "boolean"},
            "merged_text": {"type": ["string", "null"]},
        },
        "required": ["equivalent", "merged_text"],
        "additionalProperties": False,
    },
    "necessity": {
        "type": "object",
        "properties": {
            "necessary": {"type": "boolean"},
            "rationale": {"type": "string"},
        },
        "required": ["necessary", "rationale"],
        "additionalProperties": False,
    },
    "achieves": {
        "type": "object",
        "properties": {"achieves": {"type": "boolean"}},
        "required": ["achieves"],
        "additionalProperties": False,
    },
    "translate": {
        "type": "object",
        "properties": {
            "rule": {"type": "string"},
            "explanation": {"type": "string"},
        },
        "required": ["rule", "explanation"],
        "additionalProperties": False,
    },
}

_SYSTEM_PROMPT = (
    "You are a careful reasoning assistant for rule synthesis in a driving "
    "domain. Judge strictly against the numbered principles you are given; "
    "use no outside knowledge. Answer with JSON that matches the required "
    "schema exactly, and nothing else."
)

_PROMPT_FIELDS: dict[str, dict[str, Any]] = {
    "generate": {"goal": "", "principles": "", "count_hint": 1},
    "equivalent": {"a": "", "b": ""},
    "necessity": {"goal": "", "principles": "", "cause": ""},
    "achieves": {"goal": "", "principles": "", "subset": ""},
    "translate": {"grammar": "", "cause": ""},
}

PROMPTS: dict[str, str] = {
    "generate": (
        "Goal (the effect to achieve):\n{goal}\n\n"
        "Principles:\n{principles}\n\n"
        "List up to {count_hint} candidate causes: concrete conditions, "
        "behaviors, or system properties that together could realize this "
        "goal while staying compliant with every principle. Each cause must "
        "be a single declarative sentence."
    ),
    "equivalent": (
        "Cause A: {a}\nCause B: {b}\n\n"
        "Do these two causes describe the same underlying condition? If so, "
        "give one sentence that subsumes both as merged_text; otherwise set "
        "merged_text to null."
    ),
    "necessity": (
        "Goal: {goal}\n\nPrinciples:\n{principles}\n\n"
        "Cause under assessment: {cause}\n\n"
        "Is this cause essential for the goal on its own? If necessary, the "
        "rationale must cite the id of at least one principle that would be "
        "violated without it."
    ),
    "achieves": (
        "Goal: {goal}\n\nPrinciples:\n{principles}\n\n"
        "Assume exactly the following causes hold, and no others:\n{subset}\n\n"
        "Under the principles, does this set of causes achieve the goal?"
    ),
    "translate": (
        "Translate the cause below into a single rule of the formal rule "
        "language. Follow the grammar strictly and use only declared "
        "predicates, attributes, and constants.\n\n"
        "{grammar}\n\nCause: {cause}\n\n"
        "Return the rule text and a brief explanation of how the condition "
        "was interpreted and which predicates and operators were chosen."
    ),
}


def _requests_transport(
    endpoint: str, payload: Mapping[str, Any], headers: Mapping[str, str], timeout: float
) -> Mapping[str, Any]:
    response = requests.post(endpoint, json=payload, headers=dict(headers), timeout=timeout)
    if response.status_code in (429,) or response.status_code >= 500:
        raise OracleUnavailable(f"backend returned HTTP {response.status_code}")
    if response.status_code != 200:
        raise OracleUnavailable(
            f"backend rejected request: HTTP {response.status_code}: {response.text[:200]}"
        )
    return response.json()


def format_principles(principles: Sequence[Principle]) -> str:
    return "\n".join(f"[{p.id}] ({p.kind}) {p.text}" for p in principles)


class LlmOracle(Oracle):
    """Chat-completions oracle; the transport is injectable for testing."""

    def __init__(self, config: LlmOracleConfig, transport: Transport | None = None):
        self.config = config
        self.transport = transport or _requests_transport

    def _headers(self) -> dict[str, str]:
        key = os.environ.get(self.config.api_key_env)
        if not key:
            raise OracleUnavailable(
                f"API key environment variable {self.config.api_key_env} is not set"
            )
        return {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}

    def _payload(self, kind: str, user_prompt: str) -> dict[str, Any]:
        return {
            "model": self.config.model,
            "temperature": 0.0,
            "messages": [
                {"role": "system", "content": _SYSTEM_PROMPT},
                {"role": "user", "content": user_prompt},
            ],
            "response_format": {
                "type": "json_schema",
                "json_schema": {"name": kind, "strict": True, "schema": _SCHEMAS[kind]},
            },
        }

    def _post(self, payload: Mapping[str, Any]) -> Mapping[str, Any]:
        headers = self._headers()
        last_error: Exception | None = None
        for _ in range(self.config.max_retries + 1):
            try:
                return self.transport(self.config.endpoint, payload, headers, self.config.timeout)
            except (requests.RequestException, OracleUnavailable) as exc:
                last_error = exc
        raise OracleUnavailable(f"backend unavailable after retries: {last_error}")

    def _content(self, response: Mapping[str, Any]) -> Any:
        try:
            content = response["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedResponse(f"response lacks chat content: {exc}") from exc
        if not isinstance(content, str):  # null on a structured-output refusal
            raise MalformedResponse(f"response content is not a string: {content!r:.200}")
        try:
            return json.loads(content)
        except json.JSONDecodeError as exc:
            raise MalformedResponse(f"response content is not JSON: {exc}") from exc

    def _ask(self, kind: str, user_prompt: str, validate: Callable[[Any], Any]) -> Any:
        """One query with a single bounded re-ask on schema failure."""
        payload = self._payload(kind, user_prompt)
        try:
            return validate(self._content(self._post(payload)))
        except MalformedResponse as exc:
            retry_prompt = (
                f"{user_prompt}\n\nYour previous answer failed validation "
                f"({exc}). Respond again with JSON matching the schema exactly."
            )
            return validate(self._content(self._post(self._payload(kind, retry_prompt))))

    def generate_causes(
        self, goal: Goal, principles: Sequence[Principle], count_hint: int
    ) -> list[str]:
        if count_hint < 1:
            raise ValueError("count_hint must be positive")
        prompt = self.config.template("generate").format(
            goal=goal.text, principles=format_principles(principles), count_hint=count_hint
        )

        def validate(doc: Any) -> list[str]:
            causes = parse_causes(doc.get("causes") if isinstance(doc, dict) else None)
            return [c.strip() for c in causes[:count_hint]]

        return self._ask("generate", prompt, validate)

    def judge_equivalent(self, a: str, b: str) -> EquivalenceVerdict:
        if a == b:
            raise ValueError("judge_equivalent requires distinct texts")
        first, second = sorted((a, b))  # canonical pair order before dispatch
        prompt = self.config.template("equivalent").format(a=first, b=second)
        return self._ask("equivalent", prompt, parse_equivalence)

    def judge_individual_necessity(
        self, cause: Cause, goal: Goal, principles: Sequence[Principle]
    ) -> NecessityVerdict:
        prompt = self.config.template("necessity").format(
            goal=goal.text, principles=format_principles(principles), cause=cause.text
        )
        return self._ask("necessity", prompt, lambda doc: parse_necessity(doc, principles))

    def judge_subset_achieves(
        self,
        goal: Goal,
        subset: frozenset[str],
        causes: Sequence[Cause],
        principles: Sequence[Principle],
    ) -> bool:
        # judgments are made on the natural-language cause texts
        chosen = [c.text for c in causes if c.id in subset]
        listing = "\n".join(f"- {text}" for text in chosen) or "- (no causes hold)"
        prompt = self.config.template("achieves").format(
            goal=goal.text, principles=format_principles(principles), subset=listing
        )
        return self._ask(
            "achieves", prompt, lambda doc: parse_achieves(doc.get("achieves") if isinstance(doc, dict) else None)
        )

    def translate_to_fol(
        self,
        cause: Cause,
        onto: Ontology,
        grammar_doc: str,
        feedback: str | None = None,
    ) -> Translation:
        prompt = self.config.template("translate").format(grammar=grammar_doc, cause=cause.text)
        if feedback:
            prompt += f"\n\nA previous attempt failed to parse: {feedback}"

        def validate(doc: Any) -> Translation:
            translation = parse_translation(doc)
            return Translation(translation.rule_text.strip(), translation.explanation.strip())

        return self._ask("translate", prompt, validate)
