import json

import pytest
import requests

from rulesynth import cli, llm
from rulesynth.llm import PROMPTS, LlmOracle, LlmOracleConfig
from rulesynth.oracle import MalformedResponse, OracleUnavailable
from rulesynth.store import Cause, Goal, Principle

GOAL = Goal("g1", "Successfully merge into heavy traffic")
PRINCIPLES = (
    Principle("p-control", "legal", "stay in control"),
    Principle("s-friction", "safety", "keep friction"),
)


def make_config(**overrides):
    base = dict(endpoint="https://llm.test/v1/chat/completions", model="test-model")
    base.update(overrides)
    return LlmOracleConfig(**base)


class FakeTransport:
    def __init__(self, *contents):
        self.contents = list(contents)
        self.payloads = []

    def __call__(self, endpoint, payload, headers, timeout):
        self.payloads.append(payload)
        content = self.contents.pop(0)
        if isinstance(content, Exception):
            raise content
        return {"choices": [{"message": {"content": json.dumps(content)}}]}


@pytest.fixture(autouse=True)
def api_key(monkeypatch):
    monkeypatch.setenv("RULESYNTH_API_KEY", "test-key")


def test_temperature_zero_is_mandatory():
    with pytest.raises(ValueError, match="temperature 0"):
        LlmOracleConfig.from_json({"endpoint": "e", "model": "m", "temperature": 0.7})
    assert LlmOracleConfig.from_json({"endpoint": "e", "model": "m", "temperature": 0}) == make_config(
        endpoint="e", model="m"
    )
    with pytest.raises(ValueError):
        make_config(max_retries=99)


@pytest.mark.parametrize("timeout", [0, -1, float("nan"), float("inf"), float("-inf")])
def test_timeout_must_be_a_finite_positive_number(timeout):
    with pytest.raises(ValueError, match="timeout"):
        make_config(timeout=timeout)
    with pytest.raises(ValueError, match="timeout"):
        LlmOracleConfig.from_json({"endpoint": "e", "model": "m", "timeout": timeout})
    assert make_config(timeout=0.5).timeout == 0.5


def test_prompt_overrides_must_be_templates_of_their_query_fields():
    assert make_config(prompts=dict(PROMPTS)).prompts == PROMPTS  # the defaults pass
    for prompts in (
        ["generate"],
        {"generate": 5},
        {"generate": "{nope}"},
        {"equivalent": "{a} {b} {}"},
        {"achieves": "{goal:d}"},
        {"translate": "{cause"},
    ):
        with pytest.raises(ValueError):
            make_config(prompts=prompts)
    with pytest.raises(ValueError):
        make_config(model=7)


def test_every_call_carries_temperature_zero_and_schema():
    transport = FakeTransport({"causes": ["a cause"]})
    oracle = LlmOracle(make_config(), transport)
    oracle.generate_causes(GOAL, PRINCIPLES, 8)
    payload = transport.payloads[0]
    assert payload["temperature"] == 0.0
    assert payload["response_format"]["type"] == "json_schema"
    schema = payload["response_format"]["json_schema"]
    assert schema["name"] == "generate" and schema["strict"] is True
    assert "causes" in schema["schema"]["properties"]
    assert payload["model"] == "test-model"


def test_principles_are_listed_with_ids():
    transport = FakeTransport({"achieves": True})
    oracle = LlmOracle(make_config(), transport)
    cause = Cause("g1-c1", "g1", "driver in control", ("driver in control",))
    assert oracle.judge_subset_achieves(GOAL, 0b1, (cause,), PRINCIPLES)
    prompt = transport.payloads[0]["messages"][1]["content"]
    assert "[p-control] (legal)" in prompt
    assert "driver in control" in prompt  # subsets are judged on cause texts


def test_achievement_prompt_lists_the_mask_in_causes_order():
    # bits 0 and 1 stand for g1-c3 and g1-c1, out of id order: the listing
    # follows the causes, byte for byte as when subsets were sets of ids
    transport = FakeTransport({"achieves": True})
    oracle = LlmOracle(make_config(), transport)
    causes = tuple(
        Cause(cause_id, "g1", text, (text,))
        for cause_id, text in (("g1-c3", "gap ahead"), ("g1-c1", "driver in control"), ("g1-c2", "signal on"))
    )
    assert oracle.judge_subset_achieves(GOAL, 0b011, causes, PRINCIPLES)
    assert transport.payloads[0]["messages"][1]["content"] == (
        "Goal: Successfully merge into heavy traffic\n\nPrinciples:\n"
        "[p-control] (legal) stay in control\n[s-friction] (safety) keep friction\n\n"
        "Assume exactly the following causes hold, and no others:\n- gap ahead\n- driver in control\n\n"
        "Under the principles, does this set of causes achieve the goal?"
    )


def test_equivalence_prompt_uses_canonical_pair_order():
    transport = FakeTransport(
        {"equivalent": False, "merged_text": None},
        {"equivalent": False, "merged_text": None},
    )
    oracle = LlmOracle(make_config(), transport)
    oracle.judge_equivalent("zebra crossing ahead", "attentive driver")
    oracle.judge_equivalent("attentive driver", "zebra crossing ahead")
    first, second = (p["messages"][1]["content"] for p in transport.payloads)
    assert first == second
    assert first.index("attentive driver") < first.index("zebra crossing ahead")


def test_malformed_answer_retried_once_then_hard_error():
    transport = FakeTransport({"wrong": 1}, {"also": "wrong"})
    oracle = LlmOracle(make_config(), transport)
    with pytest.raises(MalformedResponse):
        oracle.generate_causes(GOAL, PRINCIPLES, 8)
    assert len(transport.payloads) == 2
    retry_prompt = transport.payloads[1]["messages"][1]["content"]
    assert "failed validation" in retry_prompt


@pytest.mark.parametrize("answer", [{"achieves": 1}, {"achieves": "true"}, {}, [True], True])
def test_achievement_answers_share_the_replay_check(answer):
    transport = FakeTransport(answer, answer)
    oracle = LlmOracle(make_config(), transport)
    cause = Cause("g1-c1", "g1", "driver in control", ("driver in control",))
    with pytest.raises(MalformedResponse, match="^achievement answer is not a boolean$"):
        oracle.judge_subset_achieves(GOAL, 0b1, (cause,), PRINCIPLES)
    assert len(transport.payloads) == 2


def test_malformed_then_valid_recovers():
    transport = FakeTransport("not even json-object", {"causes": ["one", "two"]})
    transport.contents[0] = {"bad": True}
    oracle = LlmOracle(make_config(), transport)
    assert oracle.generate_causes(GOAL, PRINCIPLES, 8) == ["one", "two"]


def test_transport_errors_exhaust_retries():
    error = requests.ConnectionError("refused")
    transport = FakeTransport(error, error, error)
    oracle = LlmOracle(make_config(max_retries=2), transport)
    with pytest.raises(OracleUnavailable):
        oracle.generate_causes(GOAL, PRINCIPLES, 8)
    assert len(transport.payloads) == 3


def test_missing_api_key_is_oracle_unavailable(monkeypatch):
    monkeypatch.delenv("RULESYNTH_API_KEY", raising=False)
    oracle = LlmOracle(make_config(), FakeTransport({"causes": ["x"]}))
    with pytest.raises(OracleUnavailable) as err:
        oracle.generate_causes(GOAL, PRINCIPLES, 8)
    assert "RULESYNTH_API_KEY" in str(err.value)


def test_necessity_rationale_must_cite_principles():
    transport = FakeTransport(
        {"necessary": True, "rationale": "it just is"},
        {"necessary": True, "rationale": "violates [p-control]"},
    )
    oracle = LlmOracle(make_config(), transport)
    cause = Cause("g1-c1", "g1", "driver in control", ("driver in control",))
    verdict = oracle.judge_individual_necessity(cause, GOAL, PRINCIPLES)
    assert verdict.necessary and "p-control" in verdict.rationale
    assert len(transport.payloads) == 2  # first answer failed the citation check


def test_generate_truncates_to_count_hint():
    transport = FakeTransport({"causes": [f"cause {i}" for i in range(10)]})
    oracle = LlmOracle(make_config(), transport)
    assert len(oracle.generate_causes(GOAL, PRINCIPLES, 4)) == 4


@pytest.mark.parametrize("content", [None, 7, ["causes"], {"causes": ["x"]}])
def test_non_string_content_is_malformed_and_reasked_once(content):
    def transport(endpoint, payload, headers, timeout):
        payloads.append(payload)
        return {"choices": [{"message": {"content": content, "refusal": "no"}}]}

    payloads = []
    oracle = LlmOracle(make_config(), transport)
    with pytest.raises(MalformedResponse, match="not a string"):
        oracle.generate_causes(GOAL, PRINCIPLES, 8)
    assert len(payloads) == 2  # the one bounded re-ask ran
    assert "failed validation" in payloads[1]["messages"][1]["content"]


def test_cli_exits_3_without_traceback_on_refusals(work_dir, capsys, monkeypatch):
    config = work_dir / "scenario1.config.json"
    doc = json.loads(config.read_text())
    doc["oracle"] = {"mode": "llm", "llm": {"endpoint": "https://llm.test/v1/chat/completions", "model": "m"}}
    config.write_text(json.dumps(doc))
    payloads = []

    def refusing(endpoint, payload, headers, timeout):
        payloads.append(payload)
        return {"choices": [{"message": {"content": None, "refusal": "no"}}]}

    monkeypatch.setattr(llm, "_requests_transport", refusing)
    assert cli.main(["run-all", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert "not a string" in err and "Traceback" not in err
    assert len(payloads) == 2
