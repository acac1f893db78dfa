import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rulesynth.fol import parse_rule
from rulesynth.store import (
    RuleRejectedError,
    StoreFormatError,
    StoreIntegrityError,
    commit_verified_rule,
    json_text,
    load_store,
    save_store,
    store_to_json,
)

from conftest import COLLIDE_RULE, SCENARIOS


def accepted_report(report_id="vrep-test"):
    return {"id": report_id, "kind": "verification", "verdict": "Accepted"}


def test_fixture_store_shape(seed_store):
    assert len(seed_store.goals) == 2
    assert len(seed_store.principles) >= 10
    assert {p.kind for p in seed_store.principles} == {"legal", "safety"}
    assert len(seed_store.invariants) == 2
    # three principles carry formal rules, and they are part of the theory
    assert len(seed_store.theory_rules()) == 3


def test_empty_document_is_format_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    with pytest.raises(StoreFormatError) as err:
        load_store(path)
    assert "missing required sections" in str(err.value)


def test_dangling_trace_is_integrity_error(tmp_path, seed_store, onto):
    doc = store_to_json(seed_store)
    doc["verified_rules"].append(
        {
            "rule": {"id": "rx", "origin": "", "text": COLLIDE_RULE},
            "cause_id": "missing-cause",
            "goal_id": "g1",
            "report_id": "vrep-x",
        }
    )
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StoreIntegrityError) as err:
        load_store(path, onto)
    assert "missing-cause" in str(err.value)


def test_malformed_entry_reports_json_path(tmp_path, seed_store):
    doc = store_to_json(seed_store)
    doc["goals"][0]["text"] = ""
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StoreFormatError) as err:
        load_store(path)
    assert "$.goals[0].text" in str(err.value)


def test_save_load_round_trip(tmp_path, seed_store, onto):
    path = tmp_path / "store.json"
    save_store(seed_store, path)
    assert load_store(path, onto) == seed_store


def test_save_is_byte_deterministic(tmp_path, seed_store):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_store(seed_store, a)
    save_store(seed_store, b)
    assert a.read_bytes() == b.read_bytes()
    # the shipped fixture is already in canonical form
    assert a.read_bytes() == (SCENARIOS / "merge.kb.json").read_bytes()


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_failed_save_keeps_old_store_and_leaves_no_temp_file(
    tmp_path, seed_store, onto, monkeypatch, failing
):
    path = tmp_path / "store.json"
    save_store(seed_store, path)
    before = path.read_bytes()
    changed, _duplicate = _commit_collide(seed_store, onto)

    def crash(*args):
        raise OSError("disk gone")

    monkeypatch.setattr(f"rulesynth.store.os.{failing}", crash)
    with pytest.raises(OSError, match="disk gone"):
        save_store(changed, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["store.json"]
    monkeypatch.undo()
    save_store(changed, path)
    assert load_store(path, onto) == changed


_TEXT = st.text(st.one_of(
    st.characters(max_codepoint=0x7F),  # control characters, quotes and backslashes included
    st.sampled_from("\u00e9\u2028\u2029\ufeff\u4e2d\U0001f600"),
), max_size=8)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=12,
)


@given(_JSON)
def test_json_text_writes_what_json_dumps_writes(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


def test_json_text_of_shipped_documents(seed_store):
    for value in (store_to_json(seed_store), {}, [], {"a": {}, "b": [[], {}]}, float("nan"), -0.0, 10**30):
        assert json_text(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


def test_save_through_symlink_keeps_link_and_mode(tmp_path, seed_store):
    target = tmp_path / "kb" / "store.json"
    target.parent.mkdir()
    save_store(seed_store, target)
    target.chmod(0o600)
    link = tmp_path / "store.json"
    link.symlink_to(target)
    target.write_text("stale")
    save_store(seed_store, link)
    assert link.is_symlink()
    assert target.read_bytes() == (SCENARIOS / "merge.kb.json").read_bytes()
    assert target.stat().st_mode & 0o777 == 0o600


def _commit_collide(store, onto, report=None):
    rule = parse_rule(COLLIDE_RULE, onto)
    from rulesynth.store import Cause

    cause = Cause("g1-c1", "g1", "Driver maintains control of the vehicle",
                  ("Driver maintains control of the vehicle",), rule=rule)
    store = store.with_causes([cause])
    return commit_verified_rule(store, rule, ("g1-c1", "g1"), report or accepted_report())


def test_commit_appends_with_trace(seed_store, onto):
    store, duplicate = _commit_collide(seed_store, onto)
    assert not duplicate
    assert len(store.verified_rules) == 1
    entry = store.verified_rules[0]
    assert (entry.cause_id, entry.goal_id) == ("g1-c1", "g1")
    assert store.report_by_id("vrep-test") is not None


def test_commit_is_idempotent_for_structural_duplicates(seed_store, onto):
    store, _ = _commit_collide(seed_store, onto)
    rule_again = parse_rule(COLLIDE_RULE, onto)
    store2, duplicate = commit_verified_rule(
        store, rule_again, ("g1-c1", "g1"), accepted_report()
    )
    assert duplicate
    assert store2.verified_rules == store.verified_rules


def test_commit_rejects_non_accepted_report(seed_store, onto):
    with pytest.raises(RuleRejectedError):
        _commit_collide(seed_store, onto, report={"id": "r1", "verdict": "Inconsistent"})


def test_commit_rejects_dangling_trace(seed_store, onto):
    rule = parse_rule(COLLIDE_RULE, onto)
    with pytest.raises(StoreIntegrityError):
        commit_verified_rule(seed_store, rule, ("nope", "g1"), accepted_report())


def test_mutation_touches_only_expected_sections(seed_store, onto):
    before = store_to_json(seed_store)
    store, _ = _commit_collide(seed_store, onto)
    after = store_to_json(store)
    changed = {k for k in before if before[k] != after[k]}
    # the commit test helper also registers the cause it traces to
    assert changed == {"causes", "verified_rules", "reports"}

    # a pure commit on an existing cause touches only verified_rules and reports
    base = store_to_json(store)
    rule2 = parse_rule("forall X . sd_front(X) and sd_rear(X) <- not dense(X)", onto)
    store2, _ = commit_verified_rule(store, rule2, ("g1-c1", "g1"), accepted_report("vrep-2"))
    after2 = store_to_json(store2)
    assert {k for k in base if base[k] != after2[k]} == {"verified_rules", "reports"}


def test_report_archive_is_idempotent_by_id(seed_store):
    report = {"id": "arep-1", "kind": "analysis"}
    store = seed_store.with_report(report)
    assert store.with_report(report) is store


def test_replacing_causes_cannot_orphan_verified_rules(seed_store, onto):
    from rulesynth.store import Cause

    store, _ = _commit_collide(seed_store, onto)
    replacement = Cause("g1-other", "g1", "different cause", ("different cause",))
    with pytest.raises(StoreIntegrityError) as err:
        store.with_causes([replacement])
    assert "orphan" in str(err.value)


def test_duplicate_verified_rules_rejected_on_load(tmp_path, seed_store, onto):
    store, _ = _commit_collide(seed_store, onto)
    doc = store_to_json(store)
    doc["verified_rules"].append(doc["verified_rules"][0])
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StoreIntegrityError) as err:
        load_store(path, onto)
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize(
    "section, field", [
        ("principles", "formal"),
        ("causes", "rule"),
        ("verified_rules", "rule"),
        ("invariants", "rule"),
    ],
)
def test_rule_id_and_origin_must_be_strings(tmp_path, seed_store, onto, section, field):
    store, _ = _commit_collide(seed_store, onto)
    doc = store_to_json(store)
    path = tmp_path / "store.json"
    path.write_text(json.dumps(doc))
    assert load_store(path, onto) == store
    i, entry = next((i, e) for i, e in enumerate(doc[section]) if e.get(field))
    for key in ("id", "origin"):
        for value in (7, [1], {"x": 1}, None):
            rule = {**entry[field], key: value}
            doc[section][i] = {**entry, field: rule}
            path.write_text(json.dumps(doc))
            with pytest.raises(StoreFormatError) as err:
                load_store(path, onto)
            assert f"$.{section}[{i}].{field}.{key}" in str(err.value)
