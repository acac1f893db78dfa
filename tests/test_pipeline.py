import gc
import weakref
from dataclasses import replace

import pytest

from rulesynth.fol import load_ontology, render_rule
from rulesynth.oracle import (
    DeterministicOracle,
    DeterministicOracleSpec,
    Translation,
    UntranslatableCause,
)
from rulesynth.pipeline import (
    ConfigError,
    ScenarioConfig,
    resolve_goal,
    run_synthesize,
    run_verify,
    translate_cause,
)
from rulesynth.store import Cause, Goal, load_store

from conftest import COLLIDE_RULE, DENSE_RULE


def scenario1(work_dir):
    config = ScenarioConfig.from_file(work_dir / "scenario1.config.json")
    onto = load_ontology(config.ontology_path)
    store = load_store(config.store_path, onto)
    oracle = DeterministicOracle(DeterministicOracleSpec.from_file(config.oracle_spec_path))
    return config, onto, store, oracle


def test_sudden_obstacle_decomposition_example():
    spec = DeterministicOracleSpec.from_json(
        {
            "goals": {
                "g0": {
                    "raw_causes": [
                        "The driver applies emergency braking",
                        "The driver steers around the obstacle",
                    ],
                    "individual_necessity": {},
                    "sufficient_family": [],
                    "translations": {},
                }
            }
        }
    )
    oracle = DeterministicOracle(spec)
    goal = Goal("g0", "Respond correctly to a sudden obstacle on the road")
    raw = oracle.generate_causes(goal, (), 8)
    assert "The driver applies emergency braking" in raw


def test_short_cause_texts_translate_to_the_printed_rules(work_dir):
    config, onto, store, oracle = scenario1(work_dir)
    grammar = "grammar"
    control = Cause("g1-cx", "g1", "Driver maintains control of the vehicle", ("x",))
    rule, _ = translate_cause(oracle, control, onto, grammar)
    assert render_rule(rule) == COLLIDE_RULE
    distance = Cause(
        "g1-cy", "g1", "Sufficient distance from other vehicles to merge safely", ("y",)
    )
    rule, translation = translate_cause(oracle, distance, onto, grammar)
    assert render_rule(rule) == DENSE_RULE
    assert translation.explanation  # the translation carries its explanation
    assert rule.origin == translation.explanation


def test_translate_retry_recovers_with_feedback(work_dir):
    config, onto, store, oracle = scenario1(work_dir)

    class FlakyTranslator(DeterministicOracle):
        def translate_to_fol(self, cause, onto, grammar_doc, feedback=None):
            if feedback is None:
                return Translation("banana", "first attempt")
            assert "unexpected" in feedback or "position" in feedback
            return super().translate_to_fol(cause, onto, grammar_doc)

    flaky = FlakyTranslator(oracle.spec)
    cause = Cause(
        "g1-c1", "g1",
        "Driver maintains control of the vehicle and is aware of surrounding traffic",
        ("a", "b"),
    )
    rule, _ = translate_cause(flaky, cause, onto, "grammar")
    assert render_rule(rule) == COLLIDE_RULE


def test_translate_fails_hard_after_second_parse_failure(work_dir):
    config, onto, store, oracle = scenario1(work_dir)

    class Hopeless(DeterministicOracle):
        def translate_to_fol(self, cause, onto, grammar_doc, feedback=None):
            return Translation("banana", "nope")

    cause = Cause("g1-c1", "g1", "whatever", ("w",))
    with pytest.raises(UntranslatableCause) as err:
        translate_cause(Hopeless(oracle.spec), cause, onto, "grammar")
    assert err.value.cause_id == "g1-c1"


def test_resolve_goal_creates_draft_when_absent(seed_store):
    store, goal = resolve_goal(seed_store, "A brand new goal")
    assert goal.id == "g3" and goal.status == "draft"
    assert store.goal_by_id("g3").text == "A brand new goal"
    same_store, existing = resolve_goal(store, "A brand new goal")
    assert existing == goal and same_store is store


@pytest.mark.parametrize("kept, expected", [(("g2",), "g3"), (("g1", "g3"), "g4"), (("g2", "g1"), "g3")])
def test_a_new_goal_takes_the_first_free_id(seed_store, kept, expected):
    goals = {goal.id: goal for goal in seed_store.goals}
    goals["g3"] = Goal("g3", "A third goal")
    store = replace(seed_store, goals=tuple(goals[goal_id] for goal_id in kept))
    store, goal = resolve_goal(store, "A brand new goal")
    assert goal.id == expected and store.goals[-1] == goal


def test_resynthesis_replaces_causes_deterministically(work_dir):
    config, onto, store, oracle = scenario1(work_dir)
    store, first = run_synthesize(store, onto, oracle, config)
    store, second = run_synthesize(store, onto, oracle, config)
    assert first.causes == second.causes
    assert len(store.causes_for_goal("g1")) == 4


def test_verify_commits_grow_the_theory_in_order(work_dir):
    config, onto, store, oracle = scenario1(work_dir)
    store, _ = run_synthesize(store, onto, oracle, config)
    base_theory = len(store.theory_rules())
    store, reports = run_verify(store, onto, config)
    assert [r.verdict for r in reports] == ["Accepted"] * 4
    assert len(store.theory_rules()) == base_theory + 4
    # traces resolve: rule -> cause -> goal
    for entry in store.verified_rules:
        cause = store.cause_by_id(entry.cause_id)
        assert cause.goal_id == entry.goal_id == "g1"
        assert store.report_by_id(entry.report_id) is not None


def test_no_memo_keeps_a_verify_batch_alive(work_dir, monkeypatch):
    """Once dropped, the batch's grounding config, its bounds, the store
    and the candidate rules are freed; the ontology keeps the rules it
    judged only as long as it lives."""
    config, onto, store, oracle = scenario1(work_dir)
    store, _ = run_synthesize(store, onto, oracle, config)
    made = []
    grounding_config = ScenarioConfig.grounding_config
    monkeypatch.setattr(ScenarioConfig, "grounding_config",
                        lambda self, onto: made.append(grounding_config(self, onto)) or made[-1])
    store, reports = run_verify(store, onto, config)
    assert [r.verdict for r in reports] == ["Accepted"] * 4 and len(made) == 1 and made[0].bounds
    batch = [weakref.ref(x) for x in (made[0], *made[0].bounds.values(), store)]
    rules = [weakref.ref(cause.rule) for cause in store.causes_for_goal("g1")]
    made.clear()
    del store, reports, _
    gc.collect()
    assert [ref() for ref in batch] == [None] * len(batch)
    del onto
    gc.collect()
    assert [ref() for ref in rules] == [None] * len(rules)


CONFIG_DOC = {
    "goal": "Successfully merge into heavy traffic",
    "store": "merge.kb.json",
    "ontology": "traffic.onto.json",
    "oracle": {"mode": "deterministic", "spec": "scenario1.oracle.json"},
}


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"grounding": {"domain_size": 0}}, "domain_size must be a positive integer"),
        ({"grounding": {"domain_size": -4}}, "domain_size must be a positive integer"),
        ({"grounding": {"domain_size": 2.5}}, "domain_size must be a positive integer"),
        ({"grounding": {"domain_size": True}}, "domain_size must be a positive integer"),
        ({"count_hint": "8"}, "count_hint must be a positive integer"),
        ({"grounding": {"comparison_mode": "fuzzy"}}, "comparison_mode must be one of"),
        ({"grounding": [3]}, "grounding must be a JSON object"),
        ({"oracle": "deterministic"}, "oracle must be a JSON object"),
        ({"goal": 7}, "goal text must be a nonempty string"),
    ],
)
def test_config_rejects_bad_settings_at_load(edit, message):
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig.from_json({**CONFIG_DOC, **edit})


def test_config_rejects_a_document_that_is_not_an_object():
    with pytest.raises(ConfigError, match="JSON object"):
        ScenarioConfig.from_json(["goal", "store"])


def test_config_validates_replaced_grounding_settings():
    config = ScenarioConfig.from_json(CONFIG_DOC)
    assert (config.domain_size, config.comparison_mode) == (3, "opaque")
    with pytest.raises(ConfigError):
        replace(config, domain_size=0)
    with pytest.raises(ConfigError):
        replace(config, comparison_mode="exact")
