import json
import shutil

import pytest

from rulesynth import analysis, cli
from rulesynth.cli import main
from rulesynth.fol import parse_rule
from rulesynth.grounding import MAX_INSTANCES

from conftest import SCENARIOS, many_variable_rule


def run(args):
    return main(args)


def read(path):
    return json.loads(path.read_text())


def test_run_all_is_byte_deterministic_across_fresh_runs(tmp_path):
    stores, artifacts = [], []
    for name in ("one", "two"):
        work = tmp_path / name
        work.mkdir()
        for f in SCENARIOS.glob("*.json"):
            shutil.copy(f, work / f.name)
        assert run(["run-all", "--config", str(work / "scenario1.config.json")]) == 0
        stores.append((work / "merge.kb.json").read_bytes())
        artifacts.append(
            {
                p.name: p.read_bytes()
                for p in sorted((work / "out").glob("*.json"))
            }
        )
    assert stores[0] == stores[1]
    assert artifacts[0] == artifacts[1]
    assert set(artifacts[0]) == {
        "g1.synthesis.json", "g1.analysis.json", "g1.verification.json",
    }


def test_rerunning_analyze_leaves_store_stable(work_dir):
    config = str(work_dir / "scenario1.config.json")
    assert run(["run-all", "--config", config]) == 0
    first = (work_dir / "merge.kb.json").read_bytes()
    assert run(["analyze", "--config", config]) == 0
    second = (work_dir / "merge.kb.json").read_bytes()
    assert first == second  # identical report, archived idempotently


def test_missing_store_path_exits_2(work_dir, capsys):
    (work_dir / "merge.kb.json").unlink()
    code = run(["synthesize", "--config", str(work_dir / "scenario1.config.json")])
    assert code == 2
    assert "merge.kb.json" in capsys.readouterr().err


def test_analyze_before_synthesize_exits_2(work_dir, capsys):
    code = run(["analyze", "--config", str(work_dir / "scenario1.config.json")])
    assert code == 2
    assert "synthesize" in capsys.readouterr().err


def test_replay_with_incomplete_transcript_exits_3(work_dir, capsys):
    transcript = work_dir / "partial.transcript.json"
    full = read(work_dir / "golden-scenario1.transcript.json")
    entries = dict(full["entries"])
    removed = next(k for k in entries if k.startswith('["achieves"'))
    del entries[removed]
    transcript.write_text(json.dumps({"version": 1, "entries": entries}))

    config_doc = read(work_dir / "scenario1.config.json")
    config_doc["oracle"] = {"mode": "replay", "transcript": "partial.transcript.json"}
    config = work_dir / "replay.config.json"
    config.write_text(json.dumps(config_doc))

    code = run(["run-all", "--config", str(config)])
    assert code == 3
    err = capsys.readouterr().err
    assert "missing query key" in err and '"achieves"' in err


def test_record_then_replay_reproduces_artifacts(tmp_path):
    work_a, work_b = tmp_path / "record", tmp_path / "replay"
    for work in (work_a, work_b):
        work.mkdir()
        for f in SCENARIOS.glob("*.json"):
            shutil.copy(f, work / f.name)

    transcript = tmp_path / "recorded.transcript.json"
    assert run([
        "run-all", "--config", str(work_a / "scenario1.config.json"),
        "--record", str(transcript),
    ]) == 0

    config_doc = read(work_b / "scenario1.config.json")
    config_doc["oracle"] = {"mode": "replay", "transcript": str(transcript)}
    config = work_b / "replay.config.json"
    config.write_text(json.dumps(config_doc))
    assert run(["run-all", "--config", str(config)]) == 0

    assert (work_a / "merge.kb.json").read_bytes() == (work_b / "merge.kb.json").read_bytes()
    for name in ("g1.synthesis.json", "g1.analysis.json", "g1.verification.json"):
        assert (work_a / "out" / name).read_bytes() == (work_b / "out" / name).read_bytes()


def test_goals_disagreeing_on_equivalence_exit_3(work_dir, capsys):
    spec_path = work_dir / "scenario1.oracle.json"
    doc = read(spec_path)
    first, second = doc["goals"]["g1"]["equivalence_classes"][0]["members"][:2]
    doc["goals"]["g9"] = {"raw_causes": [first, second]}  # no class: not equivalent
    spec_path.write_text(json.dumps(doc))
    assert run(["run-all", "--config", str(work_dir / "scenario1.config.json")]) == 3
    err = capsys.readouterr().err
    assert "disagree" in err and repr(first) in err and repr(second) in err


def test_record_keeps_paid_answers_when_a_stage_fails(work_dir, capsys):
    spec_path = work_dir / "scenario1.oracle.json"
    doc = read(spec_path)
    del doc["goals"]["g1"]["translations"][
        "Driver maintains control of the vehicle and is aware of surrounding traffic"
    ]
    spec_path.write_text(json.dumps(doc))
    store_before = (work_dir / "merge.kb.json").read_bytes()

    transcript = work_dir / "partial.transcript.json"
    code = run([
        "run-all", "--config", str(work_dir / "scenario1.config.json"),
        "--record", str(transcript),
    ])
    assert code == 3
    assert "no translation" in capsys.readouterr().err
    kinds = {json.loads(key)[0] for key in read(transcript)["entries"]}
    assert {"generate", "equivalent"} <= kinds
    # the store is still saved only when every stage completed
    assert (work_dir / "merge.kb.json").read_bytes() == store_before


def test_verify_exit_6_on_injected_contradiction(work_dir, capsys, onto):
    config = str(work_dir / "scenario1.config.json")
    assert run(["synthesize", "--config", config]) == 0

    # attach a rule that contradicts the speed-cap principle to a cause
    store_path = work_dir / "merge.kb.json"
    doc = read(store_path)
    bad_rule = parse_rule("forall X . speed(X) > 130 <- true", onto)
    for cause in doc["causes"]:
        if cause["id"] == "g1-c2":
            cause["rule"] = {
                "id": bad_rule.id, "origin": "", "text": "forall X . speed(X) > 130 <- true",
            }
    store_path.write_text(json.dumps(doc))

    code = run(["verify", "--config", config, "--rules", bad_rule.id])
    assert code == 6
    out = capsys.readouterr().out
    assert "Inconsistent" in out and "conflict core" in out


def test_verify_rerun_reports_redundant(work_dir, onto):
    config = str(work_dir / "scenario1.config.json")
    assert run(["run-all", "--config", config]) == 0
    collide_id = parse_rule(
        "forall X . not collide(X) <- sd_front(X) and sd_rear(X) and not lane_change(X)",
        onto,
    ).id
    before = (work_dir / "merge.kb.json").read_bytes()
    assert run(["verify", "--config", config, "--rules", collide_id]) == 0
    report = read(work_dir / "out" / "g1.verification.json")["reports"][0]
    assert report["verdict"] == "Redundant"
    # verified rules unchanged; only the redundancy report was archived
    after = json.loads((work_dir / "merge.kb.json").read_text())
    assert after["verified_rules"] == json.loads(before)["verified_rules"]


def test_unknown_rule_id_exits_2(work_dir, capsys):
    config = str(work_dir / "scenario1.config.json")
    assert run(["synthesize", "--config", config]) == 0
    assert run(["verify", "--config", config, "--rules", "r-unknown"]) == 2
    assert "r-unknown" in capsys.readouterr().err


def test_brute_force_flag_matches_pruned_families(work_dir):
    config = str(work_dir / "scenario2.config.json")
    assert run(["synthesize", "--config", config]) == 0
    assert run(["analyze", "--config", config]) == 0
    pruned = read(work_dir / "out" / "g2.analysis.json")
    assert run(["analyze", "--config", config, "--brute-force"]) == 0
    brute = read(work_dir / "out" / "g2.analysis.json")
    assert brute["minimal_sufficient"] == pruned["minimal_sufficient"]
    assert brute["minimal_necessary"] == pruned["minimal_necessary"]
    assert brute["query_count"] >= pruned["query_count"]


def test_strict_monotone_passes_on_clean_scenario(work_dir):
    config = str(work_dir / "scenario1.config.json")
    assert run(["synthesize", "--config", config]) == 0
    assert run(["analyze", "--config", config, "--strict-monotone"]) == 0


def test_untranslatable_cause_exits_4(work_dir, capsys):
    spec_path = work_dir / "scenario1.oracle.json"
    doc = read(spec_path)
    translations = doc["goals"]["g1"]["translations"]
    first_key = (
        "Driver maintains control of the vehicle and is aware of surrounding traffic"
    )
    translations[first_key]["rule"] = "banana"
    spec_path.write_text(json.dumps(doc))
    code = run(["synthesize", "--config", str(work_dir / "scenario1.config.json")])
    assert code == 4
    err = capsys.readouterr().err
    assert "g1-c1" in err
    # the failed run must not leave a partially synthesized store behind
    assert read(work_dir / "merge.kb.json")["causes"] == []


def test_strict_monotone_duality_mismatch_exits_5(work_dir, capsys):
    from rulesynth.fol import load_ontology
    from rulesynth.oracle import (
        DeterministicOracle,
        DeterministicOracleSpec,
        TranscriptOracle,
    )
    from rulesynth.pipeline import ScenarioConfig, run_analyze, run_synthesize
    from rulesynth.store import load_store, save_store

    class NonMonotone(DeterministicOracle):
        # achieves exactly the full set or the first cause alone; adding
        # causes to {g1-c1} destroys achievement, breaking duality
        def judge_subset_achieves(self, goal, subset, causes, principles):
            return len(subset) == len(causes) or subset == frozenset(["g1-c1"])

    config = ScenarioConfig.from_file(work_dir / "scenario1.config.json")
    onto = load_ontology(config.ontology_path)
    store = load_store(config.store_path, onto)
    oracle = NonMonotone(DeterministicOracleSpec.from_file(config.oracle_spec_path))
    recorder = TranscriptOracle(live=oracle)
    store, _ = run_synthesize(store, onto, recorder, config)
    save_store(store, config.store_path)
    _, report = run_analyze(store, recorder, config)
    assert report.monotonicity_violations and not report.duality_ok
    transcript = work_dir / "nonmonotone.transcript.json"
    recorder.save(transcript)

    config_doc = read(work_dir / "scenario1.config.json")
    config_doc["oracle"] = {"mode": "replay", "transcript": "nonmonotone.transcript.json"}
    replay_config = work_dir / "replay.config.json"
    replay_config.write_text(json.dumps(config_doc))
    code = run(["analyze", "--config", str(replay_config), "--strict-monotone"])
    assert code == 5
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "monotonicity violation" in out


def test_domain_size_and_out_flags(work_dir, tmp_path):
    config = str(work_dir / "scenario1.config.json")
    out = tmp_path / "elsewhere"
    assert run([
        "run-all", "--config", config, "--domain-size", "1", "--out", str(out),
    ]) == 0
    reports = read(out / "g1.verification.json")["reports"]
    assert reports[0]["grounding"]["domain_constants"] == {"vehicle": ["vehicle1"]}
    assert not (work_dir / "out").exists()


def test_run_all_gives_a_rule_with_thousands_of_variables_a_verdict(work_dir, capsys):
    # 1,200 variables over one constant: verification walks them without
    # recursing once per variable
    spec_path = work_dir / "scenario1.oracle.json"
    doc = read(spec_path)
    names = [f"X{i}" for i in range(1200)]
    deep = f"forall {', '.join(names)} . not collide(X0) <- " + " and ".join(f"sd_front({n})" for n in names)
    key = "Driver maintains control of the vehicle and is aware of surrounding traffic"
    doc["goals"]["g1"]["translations"][key]["rule"] = deep
    spec_path.write_text(json.dumps(doc))
    assert run(["run-all", "--config", str(work_dir / "scenario1.config.json"), "--domain-size", "1"]) == 0
    assert capsys.readouterr().err == ""
    verdicts = {r["rule_id"]: r["verdict"] for r in read(work_dir / "out" / "g1.verification.json")["reports"]}
    assert len(verdicts) == 4 and set(verdicts.values()) == {"Accepted"}


@pytest.mark.parametrize("command", [["verify", "--all-unverified"], ["run-all"]])
def test_sorts_whose_fresh_constants_collide_exit_2_before_any_oracle_call(work_dir, capsys, monkeypatch, command):
    # sort `v`'s eleventh fresh constant is `v11`, sort `v1`'s first
    _refuse_oracle(monkeypatch)
    onto = read(work_dir / "traffic.onto.json")
    onto["predicates"]["p"] = {"arity": 1, "sorts": ["v"]}
    onto["predicates"]["q"] = {"arity": 1, "sorts": ["v1"]}
    (work_dir / "traffic.onto.json").write_text(json.dumps(onto))
    store_before = (work_dir / "merge.kb.json").read_bytes()
    config = str(work_dir / "scenario1.config.json")
    assert run([command[0], "--config", config, *command[1:], "--domain-size", "11"]) == 2
    assert capsys.readouterr().err == "config error: constants pooled more than once: 'v11'\n"
    assert (work_dir / "merge.kb.json").read_bytes() == store_before
    assert not (work_dir / "out").exists()


def test_a_domain_size_above_the_instance_bound_exits_2_before_any_oracle_call(work_dir, capsys, monkeypatch):
    _refuse_oracle(monkeypatch)
    store_before = (work_dir / "merge.kb.json").read_bytes()
    size = MAX_INSTANCES + 1
    assert run(["run-all", "--config", str(work_dir / "scenario1.config.json"), "--domain-size", str(size)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: domain size {size} exceeds {MAX_INSTANCES}")
    assert (work_dir / "merge.kb.json").read_bytes() == store_before
    assert not (work_dir / "out").exists()


def test_a_rule_with_more_instances_than_the_bound_exits_2(work_dir, capsys):
    config = str(work_dir / "scenario1.config.json")
    assert run(["synthesize", "--config", config]) == 0
    store = read(work_dir / "merge.kb.json")
    wide = parse_rule(many_variable_rule(21))  # 2^21 instances at domain 2
    store["causes"][0]["rule"] = {"id": wide.id, "origin": "", "text": many_variable_rule(21)}
    (work_dir / "merge.kb.json").write_text(json.dumps(store))
    store_before = (work_dir / "merge.kb.json").read_bytes()
    capsys.readouterr()
    assert run(["verify", "--config", config, "--all-unverified", "--domain-size", "2"]) == 2
    message = f"config error: rule {wide.id} has {2**21} ground instances, more than {MAX_INSTANCES}\n"
    assert capsys.readouterr().err == message
    assert (work_dir / "merge.kb.json").read_bytes() == store_before


def _refuse_oracle(monkeypatch):
    def build_oracle(config):
        raise AssertionError("an oracle was built for an invalid configuration")

    monkeypatch.setattr(cli, "build_oracle", build_oracle)


def _write_config(work_dir, edit):
    doc = read(work_dir / "scenario1.config.json")
    edit(doc)
    path = work_dir / "edited.config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_that_is_not_an_object_exits_2(work_dir, capsys, monkeypatch):
    _refuse_oracle(monkeypatch)
    config = work_dir / "list.config.json"
    config.write_text("[]")
    assert run(["run-all", "--config", str(config)]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grounding, message",
    [
        ({"domain_size": 0}, "domain_size"),
        ({"domain_size": -2}, "domain_size"),
        ({"comparison_mode": "fuzzy"}, "comparison_mode"),
        ("flat", "grounding"),
    ],
)
def test_bad_grounding_settings_exit_2_before_any_oracle_call(
    work_dir, capsys, monkeypatch, grounding, message
):
    _refuse_oracle(monkeypatch)
    store_before = (work_dir / "merge.kb.json").read_bytes()

    def edit(doc):
        if isinstance(grounding, dict):
            doc["grounding"].update(grounding)
        else:
            doc["grounding"] = grounding

    assert run(["run-all", "--config", _write_config(work_dir, edit)]) == 2
    assert message in capsys.readouterr().err
    assert (work_dir / "merge.kb.json").read_bytes() == store_before
    assert not (work_dir / "out").exists()


@pytest.mark.parametrize(
    "record, message",
    [(".", "is a directory"), ("missing/dir/t.json", "directory does not exist")],
)
def test_unwritable_record_path_exits_2_before_any_oracle_call(
    work_dir, capsys, monkeypatch, record, message
):
    _refuse_oracle(monkeypatch)
    store_before = (work_dir / "merge.kb.json").read_bytes()
    config = str(work_dir / "scenario1.config.json")
    assert run(["run-all", "--config", config, "--record", str(work_dir / record)]) == 2
    assert message in capsys.readouterr().err
    assert (work_dir / "merge.kb.json").read_bytes() == store_before
    assert not (work_dir / "out").exists()
    assert not (work_dir / "missing").exists()


@pytest.mark.parametrize("command", [["verify", "--all-unverified"], ["run-all"]])
def test_ontology_without_sorts_exits_2_before_any_oracle_call(work_dir, capsys, monkeypatch, command):
    _refuse_oracle(monkeypatch)
    onto = read(work_dir / "traffic.onto.json")
    (work_dir / "traffic.onto.json").write_text(json.dumps({"numeric_attributes": onto["numeric_attributes"]}))
    sections = ("principles", "goals", "causes", "verified_rules", "invariants", "reports")
    (work_dir / "merge.kb.json").write_text(json.dumps({section: [] for section in sections}))
    store_before = (work_dir / "merge.kb.json").read_bytes()
    config = str(work_dir / "scenario1.config.json")
    assert run([command[0], "--config", config, *command[1:]]) == 2
    assert capsys.readouterr().err == "config error: ontology declares no sorts to ground over\n"
    assert (work_dir / "merge.kb.json").read_bytes() == store_before
    assert not (work_dir / "out").exists()


@pytest.mark.parametrize("command", [["verify", "--all-unverified"], ["run-all"]])
def test_constant_named_like_a_fresh_constant_exits_2_before_any_oracle_call(
    work_dir, capsys, monkeypatch, command
):
    # `vehicle1` would share the ground atoms of grounding's first fresh vehicle
    _refuse_oracle(monkeypatch)
    onto = read(work_dir / "traffic.onto.json")
    onto["constants"]["vehicle1"] = "vehicle"
    (work_dir / "traffic.onto.json").write_text(json.dumps(onto))
    store_before = (work_dir / "merge.kb.json").read_bytes()
    config = str(work_dir / "scenario1.config.json")
    assert run([command[0], "--config", config, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "'vehicle1'" in err and "Traceback" not in err
    assert (work_dir / "merge.kb.json").read_bytes() == store_before
    assert not (work_dir / "out").exists()


@pytest.mark.parametrize("value", ["0", "-1", "three"])
def test_domain_size_flag_must_be_a_positive_integer(work_dir, capsys, monkeypatch, value):
    _refuse_oracle(monkeypatch)
    config = str(work_dir / "scenario1.config.json")
    assert run(["run-all", "--config", config, "--domain-size", value]) == 2
    assert "--domain-size" in capsys.readouterr().err


def test_brute_force_past_the_limit_exits_2(work_dir, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "BRUTE_FORCE_LIMIT", 3)  # scenario 1 has 4 causes
    store_before = (work_dir / "merge.kb.json").read_bytes()
    config = str(work_dir / "scenario1.config.json")
    assert run(["run-all", "--config", config, "--brute-force"]) == 2
    err = capsys.readouterr().err
    assert "--brute-force" in err and "exceeds 3" in err
    assert (work_dir / "merge.kb.json").read_bytes() == store_before


def test_brute_force_past_the_limit_exits_2_before_any_analysis_query(work_dir, capsys, monkeypatch):
    config = str(work_dir / "scenario1.config.json")
    assert run(["synthesize", "--config", config]) == 0
    monkeypatch.setattr(analysis, "BRUTE_FORCE_LIMIT", 3)  # scenario 1 has 4 causes
    store_before = (work_dir / "merge.kb.json").read_bytes()
    transcript = work_dir / "t.json"
    capsys.readouterr()
    assert run(["analyze", "--config", config, "--brute-force", "--record", str(transcript)]) == 2
    assert "exceeds 3" in capsys.readouterr().err
    kinds = {json.loads(key)[0] for key in read(transcript)["entries"]}
    assert not kinds & {"necessity", "achieves"}
    assert (work_dir / "merge.kb.json").read_bytes() == store_before


def test_pruned_search_past_the_limit_exits_2_before_any_analysis_query(work_dir, capsys, monkeypatch):
    config = str(work_dir / "scenario1.config.json")
    assert run(["synthesize", "--config", config]) == 0
    monkeypatch.setattr(analysis, "BRUTE_FORCE_LIMIT", 3)  # scenario 1 has 4 causes
    store_before = (work_dir / "merge.kb.json").read_bytes()
    transcript = work_dir / "t.json"
    capsys.readouterr()
    assert run(["analyze", "--config", config, "--record", str(transcript)]) == 2
    err = capsys.readouterr().err
    assert "cause search refused" in err and "exceeds 3" in err and "--brute-force" not in err
    kinds = {json.loads(key)[0] for key in read(transcript)["entries"]}
    assert not kinds & {"necessity", "achieves"}
    assert (work_dir / "merge.kb.json").read_bytes() == store_before


def test_one_parser_serves_every_call_like_a_fresh_one(tmp_path, capsys):
    """A bad argument, help and a valid run-all, in one process: each exit
    code and output equals that of a call with a parser built afresh."""
    results = {}
    for mode in ("warm", "cold"):
        work = tmp_path / mode
        work.mkdir()
        for path in SCENARIOS.glob("*.json"):
            shutil.copy(path, work / path.name)
        config = str(work / "scenario1.config.json")
        cli._parser.cache_clear()
        outputs = []
        for argv in (
            ["run-all", "--config", config, "--domain-size", "0"],
            ["verify", "--config", config],
            ["--help"],
            ["run-all", "--help"],
            ["run-all", "--config", config],
            ["bogus"],
        ):
            if mode == "cold":
                cli._parser.cache_clear()
            code = main(argv)
            out, err = capsys.readouterr()
            outputs.append((code, out.replace(str(work), "WORK"), err.replace(str(work), "WORK")))
        results[mode] = outputs
        assert cli._parser.cache_info().misses == 1
    assert results["warm"] == results["cold"]
    assert [code for code, _, _ in results["warm"]] == [2, 2, 0, 0, 0, 2]
    assert "usage: rulesynth run-all" in results["warm"][3][1]
    assert "verdict" in results["warm"][4][1]


@pytest.mark.parametrize(
    "timeout, message",
    [(0, "timeout"), (-1, "timeout"), (float("nan"), "timeout"), (float("inf"), "timeout"), (10**400, "float")],
    ids=["zero", "negative", "nan", "inf", "huge-int"],
)
def test_bad_llm_timeout_exits_2_before_any_oracle_call(work_dir, capsys, monkeypatch, timeout, message):
    _refuse_oracle(monkeypatch)
    monkeypatch.setenv("RULESYNTH_API_KEY", "test-key")

    def edit(doc):
        llm = {"endpoint": "https://llm.test/v1", "model": "m", "timeout": timeout}
        doc["oracle"] = {"mode": "llm", "llm": llm}

    assert run(["run-all", "--config", _write_config(work_dir, edit)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (work_dir / "out").exists()


def test_nonzero_llm_temperature_exits_2_before_any_oracle_call(work_dir, capsys, monkeypatch):
    _refuse_oracle(monkeypatch)

    def edit(doc):
        doc["oracle"] = {"mode": "llm", "llm": {"endpoint": "https://llm.test/v1", "model": "m", "temperature": 0.7}}

    assert run(["run-all", "--config", _write_config(work_dir, edit)]) == 2
    assert capsys.readouterr().err == "config error: bad scenario config: pipeline determinism requires temperature 0\n"
    assert not (work_dir / "out").exists()


def test_merge_inconsistencies_are_printed_and_recorded(work_dir, capsys, monkeypatch):
    from rulesynth.oracle import DeterministicOracle, DeterministicOracleSpec, EquivalenceVerdict

    merged = "Driver maintains control of the vehicle and is aware of surrounding traffic"

    class Intransitive(DeterministicOracle):
        """Judges a~b and b~c, but not a~c."""

        def generate_causes(self, goal, principles, count_hint):
            return ["a", "b", "c"]

        def judge_equivalent(self, x, y):
            equivalent = {x, y} != {"a", "c"}
            return EquivalenceVerdict(equivalent, merged if equivalent else None)

    spec = DeterministicOracleSpec.from_file(work_dir / "scenario1.oracle.json")
    monkeypatch.setattr(cli, "build_oracle", lambda config: Intransitive(spec))
    assert run(["synthesize", "--config", str(work_dir / "scenario1.config.json")]) == 0
    out = capsys.readouterr().out
    contradiction = "transitive merge of 'a' and 'c' contradicts an earlier non-equivalent verdict"
    assert [line.strip() for line in out.splitlines() if "inconsistency" in line] == [
        f"merge inconsistency: {contradiction}"
    ]
    artifact = read(work_dir / "out" / "g1.synthesis.json")
    assert artifact["merge_inconsistencies"] == [contradiction]
    assert [c["merged_from"] for c in artifact["causes"]] == [["a", "b", "c"]]

