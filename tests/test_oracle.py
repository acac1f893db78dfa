import json
import random
import shutil

import pytest

from rulesynth.cli import main as cli_main
from rulesynth.llm import LlmOracle, LlmOracleConfig
from rulesynth.oracle import (
    CachedAchievementJudge,
    DeterministicOracle,
    DeterministicOracleSpec,
    EquivalenceVerdict,
    MalformedResponse,
    NecessityVerdict,
    OracleUnavailable,
    TranscriptOracle,
    Translation,
    achieves_key,
    check_necessity,
    equivalence_key,
    mask_items,
    query_key,
)
from rulesynth.store import Cause, Goal, Principle

from conftest import SCENARIOS

GOAL = Goal("g1", "Successfully merge into heavy traffic")
PRINCIPLES = (Principle("p-control", "legal", "stay in control"),)


def scenario1_oracle():
    return DeterministicOracle(
        DeterministicOracleSpec.from_file(SCENARIOS / "scenario1.oracle.json")
    )


def make_causes(goal_id, n):
    return tuple(
        Cause(f"{goal_id}-c{i}", goal_id, f"cause {i}", (f"cause {i}",))
        for i in range(1, n + 1)
    )


def test_deterministic_generate_counts():
    oracle = scenario1_oracle()
    raw = oracle.generate_causes(GOAL, PRINCIPLES, 8)
    assert len(raw) == 8
    assert raw[0] == "Driver maintains control of the vehicle"
    assert oracle.generate_causes(GOAL, PRINCIPLES, 3) == raw[:3]


def test_deterministic_generate_unknown_goal():
    oracle = scenario1_oracle()
    with pytest.raises(MalformedResponse):
        oracle.generate_causes(Goal("g9", "unknown"), PRINCIPLES, 8)


def test_equivalence_verdicts_and_merged_text():
    oracle = scenario1_oracle()
    verdict = oracle.judge_equivalent(
        "Driver maintains control of the vehicle",
        "Driver is aware of surrounding traffic",
    )
    assert verdict.equivalent
    assert verdict.merged_text == (
        "Driver maintains control of the vehicle and is aware of surrounding traffic"
    )
    distinct = oracle.judge_equivalent(
        "Sufficient friction between tires and road",
        "No obstacles on the highway segment",
    )
    assert not distinct.equivalent and distinct.merged_text is None


def test_equivalence_is_symmetric():
    oracle = scenario1_oracle()
    a = "Driver maintains control of the vehicle"
    b = "Driver is aware of surrounding traffic"
    assert oracle.judge_equivalent(a, b).equivalent == oracle.judge_equivalent(b, a).equivalent


def test_identical_pair_short_circuits():
    oracle = scenario1_oracle()
    with pytest.raises(ValueError):
        oracle.judge_equivalent("same", "same")


def two_goal_spec(second_raw, second_classes):
    return DeterministicOracleSpec.from_json({"goals": {
        "g1": {"raw_causes": ["x", "y"],
               "equivalence_classes": [{"representative": "X", "members": ["x", "y"]}]},
        "g2": {"raw_causes": second_raw, "equivalence_classes": second_classes},
    }})


def test_equivalence_is_symmetric_across_goals():
    # x is in a class of each goal; each pair is answered by the goal that lists it
    oracle = DeterministicOracle(
        two_goal_spec(["x", "z"], [{"representative": "Z", "members": ["x", "z"]}])
    )
    for a, b, verdict in [("x", "y", EquivalenceVerdict(True, "X")),
                          ("x", "z", EquivalenceVerdict(True, "Z")),
                          ("y", "z", EquivalenceVerdict(False, None))]:
        assert oracle.judge_equivalent(a, b) == oracle.judge_equivalent(b, a) == verdict


@pytest.mark.parametrize("classes", [
    [],  # g2 declares x and y distinct
    [{"representative": "Other", "members": ["y", "x"]}],  # another merged text
])
def test_goals_disagreeing_on_a_shared_pair_are_malformed(classes):
    with pytest.raises(MalformedResponse, match="'x' and 'y'"):
        two_goal_spec(["y", "w", "x"], classes)
    agreeing = two_goal_spec(["y", "x"], [{"representative": "X", "members": ["y", "x"]}])
    assert DeterministicOracle(agreeing).judge_equivalent("y", "x").merged_text == "X"


def test_necessity_requires_cited_principle():
    verdict = NecessityVerdict(True, "violates [p-control] directly")
    assert check_necessity(verdict, PRINCIPLES) is verdict
    with pytest.raises(MalformedResponse):
        check_necessity(NecessityVerdict(True, ""), PRINCIPLES)
    with pytest.raises(MalformedResponse):
        check_necessity(NecessityVerdict(True, "because it matters"), PRINCIPLES)


def family_spec(families, ids):
    """A spec whose goal g has sufficient_family families[g], every id declared."""
    return DeterministicOracleSpec.from_json({"goals": {
        goal_id: {
            "raw_causes": ["x"],
            "individual_necessity": {i: {"necessary": False} for i in ids},
            "sufficient_family": family,
        }
        for goal_id, family in families.items()
    }})


def decode(mask, causes):
    return frozenset(cause.id for i, cause in enumerate(causes) if mask >> i & 1)


def achieves_by_definition(family, mask, causes):
    """The sufficient family's definition: the subset contains some member."""
    return any(frozenset(required) <= decode(mask, causes) for required in family)


def test_deterministic_achievement_matches_family_exhaustively():
    # twelve causes, a three-member sufficient family: judge(mask) must equal
    # "the mask's ids contain some family member" on all 4096 masks
    ids = [f"t-c{i}" for i in range(1, 13)]
    family = [["t-c1", "t-c2"], ["t-c3"], ["t-c4", "t-c5", "t-c6"]]
    oracle = DeterministicOracle(family_spec({"t": family}, ids))
    goal = Goal("t", "test")
    causes = make_causes("t", 12)
    answers = [oracle.judge_subset_achieves(goal, mask, causes, PRINCIPLES) for mask in range(1 << 12)]
    assert answers == [achieves_by_definition(family, mask, causes) for mask in range(1 << 12)]
    assert sum(answers) and not all(answers)


def test_deterministic_achievement_follows_each_goal_and_causes_order():
    # one oracle asked in turn about two goals, and about two orders of the
    # same causes, keeps no family compiled for another goal or order
    causes = make_causes("t", 6)
    orders = (causes, causes[::-1], tuple(causes[i] for i in (2, 0, 5, 1, 4, 3)))
    families = {"t": [["t-c1", "t-c2"], ["t-c6"]], "u": [["t-c3", "t-c4", "t-c5"]]}
    oracle = DeterministicOracle(family_spec(families, [c.id for c in causes]))
    goals = (Goal("t", "first"), Goal("u", "second"))
    rng = random.Random(6)
    for _ in range(400):
        goal, order, mask = rng.choice(goals), rng.choice(orders), rng.randrange(1 << 6)
        expected = achieves_by_definition(families[goal.id], mask, order)
        assert oracle.judge_subset_achieves(goal, mask, order, PRINCIPLES) is expected
    # a new tuple equal to a compiled one answers the same
    assert oracle.judge_subset_achieves(goals[0], 0b100000, tuple(list(causes)), PRINCIPLES) is True


def test_deterministic_achievement_of_ids_outside_the_causes_and_of_the_empty_set():
    causes = make_causes("t", 3)
    ids = [c.id for c in causes] + ["t-c8", "t-c9"]
    outside = DeterministicOracle(family_spec({"t": [["t-c1", "t-c9"], ["t-c8", "t-c9"], ["t-c9"]]}, ids))
    empty = DeterministicOracle(family_spec({"t": [[], ["t-c9"]]}, ids))
    goal = Goal("t", "test")
    for mask in range(1 << 3):
        assert outside.judge_subset_achieves(goal, mask, causes, PRINCIPLES) is False
        assert empty.judge_subset_achieves(goal, mask, causes, PRINCIPLES) is True


def test_spec_rejects_undeclared_ids_in_family():
    with pytest.raises(MalformedResponse):
        DeterministicOracleSpec.from_json(
            {
                "goals": {
                    "t": {
                        "raw_causes": ["x"],
                        "individual_necessity": {},
                        "sufficient_family": [["ghost"]],
                    }
                }
            }
        )


@pytest.mark.parametrize(
    "goal",
    [
        {"raw_causes": "x"},
        {"raw_causes": ["x", 2]},
        {"raw_causes": ["x"], "equivalence_classes": [{"representative": 1, "members": ["x"]}]},
        {"raw_causes": ["x"], "individual_necessity": {"c": {"necessary": "yes"}}},
        {"raw_causes": ["x"], "individual_necessity": {"c": {"necessary": True, "rationale": []}}},
        {"raw_causes": ["x"], "individual_necessity": {}, "sufficient_family": [[{"c": 1}]]},
        {"raw_causes": ["x"], "translations": {"x": {"rule": None}}},
        {"raw_causes": ["x"], "translations": ["x"]},
    ],
)
def test_spec_rejects_wrong_value_types_at_load(goal):
    with pytest.raises(MalformedResponse):
        DeterministicOracleSpec.from_json({"goals": {"t": goal}})


CAUSE = Cause("g1-c1", "g1", "cause 1", ("cause 1",))
NECESSITY_KEY = query_key("necessity", "g1", "g1-c1")
TRANSLATE_KEY = query_key("translate", "g1", "cause 1", "")
GENERATE_KEY = query_key("generate", "g1", 8)
EQUIVALENCE_KEY = equivalence_key("a", "b")


def replay(key, answer):
    return TranscriptOracle({key: answer})


def llm_answering(key, answer):
    """An LLM backend whose transport gives `answer` to the query and to its re-ask."""

    def transport(endpoint, payload, headers, timeout):
        return {"choices": [{"message": {"content": json.dumps(answer)}}]}

    config = LlmOracleConfig(endpoint="https://llm.test/v1", model="m", api_key_env="RULESYNTH_TEST_KEY")
    return LlmOracle(config, transport)


def ask_necessity(oracle):
    return oracle.judge_individual_necessity(CAUSE, GOAL, PRINCIPLES)


def ask_translation(oracle):
    return oracle.translate_to_fol(CAUSE, None, "grammar")


def ask_causes(oracle):
    return oracle.generate_causes(GOAL, PRINCIPLES, 8)


def ask_equivalent(oracle):
    return oracle.judge_equivalent("a", "b")


@pytest.mark.parametrize(
    "key, answer, ask, backend",
    [
        (query_key("generate", "g1", 8), [], lambda r: r.generate_causes(GOAL, PRINCIPLES, 8), replay),
        (
            equivalence_key("a", "b"),
            {"equivalent": "no", "merged_text": None},
            lambda r: r.judge_equivalent("a", "b"),
            replay,
        ),
        (
            equivalence_key("a", "b"),
            {"equivalent": True, "merged_text": ["a"]},
            lambda r: r.judge_equivalent("a", "b"),
            replay,
        ),
        (NECESSITY_KEY, {"necessary": "false", "rationale": "p-control"}, ask_necessity, replay),
        (TRANSLATE_KEY, {"rule": 5, "explanation": ""}, ask_translation, replay),
        # the one check of each of these two forms also serves the LLM backend
        (NECESSITY_KEY, {"necessary": "false", "rationale": "p-control"}, ask_necessity, llm_answering),
        (NECESSITY_KEY, {"necessary": True}, ask_necessity, llm_answering),
        (TRANSLATE_KEY, {"rule": 5, "explanation": ""}, ask_translation, llm_answering),
        (TRANSLATE_KEY, {"rule": "r"}, ask_translation, llm_answering),
        (TRANSLATE_KEY, {"rule": "r"}, ask_translation, replay),
        # the one check of each of these two kinds serves both backends
        (GENERATE_KEY, ["cause 1", "  "], ask_causes, replay),
        (GENERATE_KEY, {"causes": ["cause 1", "  "]}, ask_causes, llm_answering),
        (EQUIVALENCE_KEY, {"equivalent": True, "merged_text": "  "}, ask_equivalent, replay),
        (EQUIVALENCE_KEY, {"equivalent": True, "merged_text": None}, ask_equivalent, replay),
        (EQUIVALENCE_KEY, {"equivalent": True, "merged_text": "  "}, ask_equivalent, llm_answering),
        (EQUIVALENCE_KEY, {"equivalent": True, "merged_text": None}, ask_equivalent, llm_answering),
    ],
    ids=[
        "empty-causes",
        "text-equivalent",
        "list-merged-text",
        "text-necessary",
        "number-rule",
        "llm-text-necessary",
        "llm-no-rationale",
        "llm-number-rule",
        "llm-no-explanation",
        "no-explanation",
        "blank-cause",
        "llm-blank-cause",
        "blank-merged-text",
        "null-merged-text",
        "llm-blank-merged-text",
        "llm-null-merged-text",
    ],
)
def test_replay_rejects_answers_of_the_wrong_type(monkeypatch, key, answer, ask, backend):
    monkeypatch.setenv("RULESYNTH_TEST_KEY", "test-key")
    with pytest.raises(MalformedResponse, match="answer is not"):
        ask(backend(key, answer))


def test_transcript_checks_live_answers_before_recording_them():
    class Broken(DeterministicOracle):
        def judge_individual_necessity(self, cause, goal, principles):
            return NecessityVerdict(True, "cites no principle")

        def translate_to_fol(self, cause, onto, grammar_doc, feedback=None):
            return Translation(5, "")

    recorder = TranscriptOracle(live=Broken(scenario1_oracle().spec))
    with pytest.raises(MalformedResponse, match="principle"):
        ask_necessity(recorder)
    with pytest.raises(MalformedResponse, match="translation answer is not"):
        ask_translation(recorder)
    assert recorder.entries == {}


def test_cached_judge_counts_backend_queries():
    oracle = scenario1_oracle()
    causes = make_causes("g1", 4)
    judge = CachedAchievementJudge(oracle, GOAL, causes, PRINCIPLES)
    full = 0b1111  # every cause
    assert judge(full) is True
    assert judge(full) is True
    assert judge(0b0001) is False  # g1-c1 alone
    assert judge.query_count == 2


class CountingOracle(DeterministicOracle):
    def __init__(self, spec):
        super().__init__(spec)
        self.asked = []

    def judge_subset_achieves(self, goal, subset, causes, principles):
        self.asked.append(subset)  # the mask, as the backend gets it
        return super().judge_subset_achieves(goal, subset, causes, principles)


class FlakyOracle(CountingOracle):
    """Raises OracleUnavailable on its first `failures` achievement queries."""

    def __init__(self, spec, failures):
        super().__init__(spec)
        self.failures = failures

    def judge_subset_achieves(self, goal, subset, causes, principles):
        if self.failures:
            self.failures -= 1
            raise OracleUnavailable("backend down")
        return super().judge_subset_achieves(goal, subset, causes, principles)


def test_cached_judge_counts_distinct_masks():
    counting = CountingOracle(scenario1_oracle().spec)
    judge = CachedAchievementJudge(counting, GOAL, make_causes("g1", 4), PRINCIPLES)
    masks = [0b1111, 0b0001, 0b1111, 0b0011, 0b0001, 0b1111]
    assert [judge(mask) for mask in masks] == [True, False, True, False, False, True]
    assert judge.query_count == judge.misses == len(set(masks)) == len(counting.asked)
    assert judge.hits == len(masks) - len(set(masks))
    assert judge.hits + judge.misses == len(masks)
    # what the benchmark's tracer reads
    assert (judge.cache.hits, judge.cache.misses) == (judge.hits, judge.misses) == (3, 3)


def test_cached_judge_does_not_memoize_errors():
    flaky = FlakyOracle(scenario1_oracle().spec, failures=1)
    judge = CachedAchievementJudge(flaky, GOAL, make_causes("g1", 4), PRINCIPLES)
    with pytest.raises(OracleUnavailable):
        judge(0b1111)
    assert judge.query_count == judge.hits == 0  # nothing kept for the raise
    assert judge(0b1111) is True and judge(0b1111) is True
    assert judge.query_count == judge.hits == 1
    assert len(flaky.asked) == 1
    assert (judge.cache.hits, judge.cache.misses) == (1, 1)


@pytest.mark.parametrize("seed", range(12))
def test_cached_judge_matches_uncached_oracle_and_asks_once_per_key(seed):
    rng = random.Random(seed)
    n = 16 if seed == 0 else rng.randint(1, 16)
    causes = make_causes("g1", n)
    ids = [c.id for c in causes]
    family = [sorted(rng.sample(ids, rng.randint(1, min(4, n)))) for _ in range(rng.randint(0, 4))]
    spec = family_spec({"g1": family}, ids)
    uncached = DeterministicOracle(spec)
    counting = CountingOracle(spec)
    recorder = TranscriptOracle(live=counting)
    judge = CachedAchievementJudge(recorder, GOAL, causes, PRINCIPLES)
    pool = [rng.randrange(1 << n) for _ in range(60)]
    queries = [rng.choice(pool) for _ in range(300)]  # repeats on purpose

    for mask in queries:
        expected = achieves_by_definition(family, mask, causes)
        assert judge(mask) is uncached.judge_subset_achieves(GOAL, mask, causes, PRINCIPLES) is expected
    keys = {achieves_key(GOAL.id, decode(mask, causes)) for mask in queries}
    assert judge.query_count == len(keys) == len(counting.asked)
    assert set(recorder.entries) == keys
    assert judge.cache.hits == len(queries) - len(keys)
    assert sorted(counting.asked) == sorted(set(queries))


def test_cached_judge_rejects_bits_beyond_its_causes():
    judge = CachedAchievementJudge(scenario1_oracle(), GOAL, make_causes("g1", 4), PRINCIPLES)
    for mask in (0b10001, 1 << 40, -1):
        with pytest.raises(ValueError, match="goal 'g1'"):
            judge(mask)
    assert judge.query_count == 0


def test_mask_items_lists_the_items_of_the_set_bits_in_order():
    rng = random.Random(8)
    for n in range(0, 21):
        items = [f"c{i}" for i in range(n)]
        full = (1 << n) - 1
        masks = [0, full] + [rng.randrange(1 << n) for _ in range(50)]
        for mask in masks:
            got = mask_items(items, mask)
            assert got == tuple(items[i] for i in range(n) if mask & (1 << i)), (n, mask)
            assert mask_items(items, ~mask) == tuple(c for c in items if c not in got)  # the complement
    assert mask_items(range(5), 0b10110) == (1, 2, 4)


def test_query_keys_are_canonical():
    assert achieves_key("g1", frozenset(["b", "a"])) == achieves_key("g1", frozenset(["a", "b"]))
    assert equivalence_key("x", "y") == equivalence_key("y", "x")
    assert query_key("generate", "g1", 8) == '["generate","g1",8]'


def test_transcript_record_and_replay_round_trip(tmp_path, onto):
    inner = scenario1_oracle()
    recorder = TranscriptOracle(live=inner)
    raw = recorder.generate_causes(GOAL, PRINCIPLES, 8)
    verdict = recorder.judge_equivalent(raw[0], raw[1])
    cause = Cause("g1-c1", "g1", verdict.merged_text, (raw[0], raw[1]))
    recorder.judge_individual_necessity(cause, GOAL, PRINCIPLES)
    recorder.judge_subset_achieves(GOAL, 0b1, (cause,), PRINCIPLES)
    recorder.translate_to_fol(cause, onto, "grammar")
    path = tmp_path / "transcript.json"
    recorder.save(path)

    replay = TranscriptOracle.from_file(path)
    assert replay.live is None
    assert replay.generate_causes(GOAL, PRINCIPLES, 8) == raw
    assert replay.judge_equivalent(raw[1], raw[0]) == verdict  # symmetric key
    assert replay.judge_subset_achieves(GOAL, 0b1, (cause,), PRINCIPLES) is False
    assert (
        replay.translate_to_fol(cause, onto, "grammar").rule_text
        == inner.translate_to_fol(cause, onto, "grammar").rule_text
    )


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_transcript_save_keeps_old_transcript_and_leaves_no_temp_file(
    tmp_path, monkeypatch, failing
):
    recorder = TranscriptOracle(live=scenario1_oracle())
    raw = recorder.generate_causes(GOAL, PRINCIPLES, 8)
    path = tmp_path / "run.transcript.json"
    recorder.save(path)
    before = path.read_bytes()
    recorder.judge_equivalent(raw[0], raw[1])

    def crash(*args):
        raise OSError("disk gone")

    monkeypatch.setattr(f"rulesynth.store.os.{failing}", crash)
    with pytest.raises(OSError, match="disk gone"):
        recorder.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.transcript.json"]
    monkeypatch.undo()
    recorder.save(path)
    assert TranscriptOracle.from_file(path).entries == recorder.entries


def test_transcript_missing_key_names_it(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"version": 1, "entries": {}}))
    replay = TranscriptOracle.from_file(path)
    with pytest.raises(OracleUnavailable) as err:
        replay.judge_subset_achieves(GOAL, 0b1, make_causes("g1", 1), PRINCIPLES)
    assert achieves_key("g1", frozenset(["g1-c1"])) in str(err.value)


def test_transcript_asks_live_once_per_key():
    counting = CountingOracle(scenario1_oracle().spec)
    recorder = TranscriptOracle(live=counting)
    causes = make_causes("g1", 4)
    subsets = [0b0001, 0b0011, 0b0001]  # {g1-c1}, {g1-c1, g1-c2}, {g1-c1}
    answers = [recorder.judge_subset_achieves(GOAL, s, causes, PRINCIPLES) for s in subsets]
    assert answers[0] is answers[2] is False
    assert counting.asked == subsets[:2]  # the repeat is served from the transcript
    assert set(recorder.entries) == {
        achieves_key("g1", frozenset(["g1-c1"])), achieves_key("g1", frozenset(["g1-c1", "g1-c2"]))
    }


def test_transcript_keys_are_the_decoded_ids_in_any_causes_order():
    # the same subsets over causes in a scrambled order: the keys name the
    # ids each mask's bits stand for, and replay answers them from the keys
    causes = make_causes("g1", 4)
    scrambled = tuple(causes[i] for i in (3, 1, 0, 2))
    recorder = TranscriptOracle(live=scenario1_oracle())
    answers = {}
    for order in (causes, scrambled):
        for mask in range(1 << 4):
            key = achieves_key("g1", decode(mask, order))
            answer = recorder.judge_subset_achieves(GOAL, mask, order, PRINCIPLES)
            assert recorder.entries[key] is answers.setdefault(key, answer) is answer
    assert set(recorder.entries) == set(answers) and len(answers) == 1 << 4
    replay = TranscriptOracle(recorder.entries)
    for mask in range(1 << 4):
        assert replay.judge_subset_achieves(GOAL, mask, scrambled, PRINCIPLES) is answers[
            achieves_key("g1", decode(mask, scrambled))]


def test_transcript_recorded_over_the_golden_replay_gives_back_its_entries(tmp_path):
    for path in SCENARIOS.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    doc = json.loads((tmp_path / "scenario1.config.json").read_text())
    doc["oracle"] = {"mode": "replay", "transcript": "golden-scenario1.transcript.json"}
    config = tmp_path / "replay.config.json"
    config.write_text(json.dumps(doc))
    recorded = tmp_path / "again.transcript.json"
    assert cli_main(["run-all", "--config", str(config), "--record", str(recorded)]) == 0
    golden = SCENARIOS / "golden-scenario1.transcript.json"
    assert json.loads(recorded.read_text()) == json.loads(golden.read_text())
    assert recorded.read_bytes() == golden.read_bytes()
