import types

import pytest

import rulesynth
from rulesynth.fol import parse_rule
from rulesynth.grounding import GroundingConfig, ground
from rulesynth.store import Invariant
from rulesynth.verify import (
    check_consistency,
    check_entailment,
    check_invariants,
    theory_soundness,
    verify,
)

from conftest import COLLIDE_RULE, DENSE_RULE


@pytest.fixture
def config(onto):
    return GroundingConfig({"vehicle": ("a",)})


def rules(onto, *texts):
    return [parse_rule(t, onto) for t in texts]


def test_collide_and_dense_rules_are_mutually_consistent(onto, config):
    theory = rules(onto, DENSE_RULE)
    candidate = parse_rule(COLLIDE_RULE, onto)
    assert check_consistency(theory, candidate, config, onto).consistent


def test_direct_contradiction_with_minimal_core(onto, config):
    theory = rules(onto, "forall X . not collide(X) <- true")
    candidate = parse_rule("forall X . collide(X) <- true", onto)
    result = check_consistency(theory, candidate, config, onto)
    assert not result.consistent
    assert result.core == (theory[0].id,)


def test_empty_theory_satisfiable_candidate(onto, config):
    candidate = parse_rule(COLLIDE_RULE, onto)
    assert check_consistency([], candidate, config, onto).consistent


def test_self_contradictory_candidate_has_empty_core(onto, config):
    candidate = parse_rule("forall X . collide(X) and not collide(X) <- true", onto)
    result = check_consistency([], candidate, config, onto)
    assert not result.consistent and result.core == ()


def test_conflict_core_is_minimal(onto, config):
    theory = rules(
        onto,
        "forall X . not overtake_right(X) <- true",  # unrelated
        "forall X . sd_front(X) <- merge_ok(X)",
        "forall X . not sd_front(X) <- merge_ok(X)",
    )
    candidate = parse_rule("forall X . merge_ok(X) <- true", onto)
    result = check_consistency(theory, candidate, config, onto)
    assert not result.consistent
    assert result.core == (theory[1].id, theory[2].id)
    # removing any single core rule restores satisfiability
    for dropped in (1, 2):
        remaining = [r for i, r in enumerate(theory) if i != dropped]
        assert check_consistency(remaining, candidate, config, onto).consistent


def test_interval_axioms_expose_cross_threshold_contradictions(onto):
    # opaque mode treats speed(X) > 140 and the 130 km/h cap as unrelated
    # atoms; interval axioms over the declared speed domain connect them
    theory = rules(onto, "forall X . not speed(X) > 130 <- true")
    candidate = parse_rule("forall X . speed(X) > 140 <- true", onto)
    opaque = GroundingConfig({"vehicle": ("a",)})
    aware = GroundingConfig({"vehicle": ("a",)}, comparison_mode="interval-axioms")
    assert check_consistency(theory, candidate, opaque, onto).consistent
    result = check_consistency(theory, candidate, aware, onto)
    assert not result.consistent
    assert result.core == (theory[0].id,)


def entailed(theory, candidate, config, onto):
    return check_entailment(ground(theory, config, onto), candidate, config, onto)


def test_identical_rule_is_entailed(onto, config):
    theory = rules(onto, COLLIDE_RULE)
    candidate = parse_rule(COLLIDE_RULE, onto)
    assert entailed(theory, candidate, config, onto)


def test_weaker_rule_is_entailed(onto, config):
    theory = rules(onto, "forall X . sd_front(X) <- true")
    candidate = parse_rule("forall X . sd_front(X) <- dense(X)", onto)
    assert entailed(theory, candidate, config, onto)


def test_collide_rule_is_novel_against_dense_rule(onto, config):
    theory = rules(onto, DENSE_RULE)
    candidate = parse_rule(COLLIDE_RULE, onto)
    assert not entailed(theory, candidate, config, onto)


def test_invariant_self_entailment_preserved(onto, config):
    theory = rules(onto, COLLIDE_RULE)
    invariant = Invariant("inv-collision-free", parse_rule(COLLIDE_RULE, onto))
    result = check_invariants(ground(theory, config, onto), [invariant], config, onto)
    assert result.preserved


def test_invariant_violation_yields_countermodel(onto, config):
    # the theory asserts the invariant's body outright but nothing forces
    # its head, so a model with a collision survives
    invariant = Invariant("inv-collision-free", parse_rule(COLLIDE_RULE, onto))
    candidate = parse_rule(
        "forall X . sd_front(X) and sd_rear(X) and not lane_change(X) <- true", onto
    )
    result = check_invariants(ground([candidate], config, onto), [invariant], config, onto)
    assert not result.preserved
    assert result.violated_id == "inv-collision-free"
    assert "collide(a)" in result.countermodel
    assert "sd_front(a)" in result.countermodel
    assert "not lane_change(a)" in result.countermodel


def test_no_invariants_is_vacuously_preserved(onto, config):
    db = ground([parse_rule(COLLIDE_RULE, onto)], config, onto)
    result = check_invariants(db, [], config, onto)
    assert result.preserved


def test_verify_fail_fast_on_malformed(onto, config, seed_store):
    candidate = parse_rule("forall X . teleport(X) <- true")
    report = verify(candidate, seed_store, config, onto)
    assert report.verdict == "Malformed"
    assert report.stages_executed == ("schema",)
    assert report.schema_violations
    assert report.consistency is None


def test_verify_records_all_stages_when_accepted(onto, config, seed_store):
    candidate = parse_rule(COLLIDE_RULE, onto)
    report = verify(candidate, seed_store, config, onto)
    assert report.verdict == "Accepted"
    assert report.stages_executed == ("schema", "consistency", "redundancy", "invariants")
    assert report.grounding == config.to_json()
    assert report.redundancy == "novel"


def test_a_rule_with_thousands_of_variables_gets_a_verdict(onto, config, seed_store):
    """1,200 variables over one constant ground like the rule's
    one-variable collapse, and the canonical walk reaches its one choice
    without recursing once per variable."""
    names = [f"X{i}" for i in range(1200)]
    body = " and ".join(f"sd_front({name})" for name in names)
    deep = parse_rule(f"forall {', '.join(names)} . not collide(X0) <- {body}", onto)
    collapsed = parse_rule("forall X . not collide(X) <- sd_front(X)", onto)
    report = verify(deep, seed_store, config, onto)
    assert report.verdict == verify(collapsed, seed_store, GroundingConfig({"vehicle": ("a",)}), onto).verdict
    assert report.stages_executed == ("schema", "consistency", "redundancy", "invariants")


def test_verify_inconsistent_against_fixture_theory(onto, config, seed_store):
    candidate = parse_rule("forall X . speed(X) > 130 <- true", onto)
    report = verify(candidate, seed_store, config, onto)
    assert report.verdict == "Inconsistent"
    speed_cap = next(p for p in seed_store.principles if p.id == "p-speed-cap")
    assert report.consistency.core == (speed_cap.formal.id,)


def test_theory_soundness_on_seed_store_fails_until_collide_rule_committed(
    onto, config, seed_store
):
    # the seed store declares the collision-freedom invariant but its base
    # theory does not yet entail it
    ok, reason = theory_soundness(seed_store, config, onto)
    assert not ok and "inv-collision-free" in reason


def test_theory_soundness_builds_no_countermodel(onto, seed_store, monkeypatch):
    """On the unsound seed store, at a domain where the bound shrinks, the
    soundness check asks `sat.satisfiable` only: no `sat.solve` call of
    its own and no rendered model."""
    asking, direct, rendered = [], [], []
    solve, satisfiable = rulesynth.sat.solve, rulesynth.sat.satisfiable

    def recording_solve(*args, **kwargs):
        direct.append(not asking)
        return solve(*args, **kwargs)

    def recording_satisfiable(*args, **kwargs):
        asking.append(True)
        try:
            return satisfiable(*args, **kwargs)
        finally:
            asking.pop()

    monkeypatch.setattr(rulesynth.sat, "solve", recording_solve)
    monkeypatch.setattr(rulesynth.sat, "satisfiable", recording_satisfiable)
    monkeypatch.setattr(rulesynth.verify, "render_model", lambda *args: rendered.append(args))
    ok, reason = theory_soundness(seed_store, GroundingConfig.default(onto, 6), onto)
    assert not ok and "inv-collision-free" in reason
    assert not any(direct) and not rendered


def test_report_ids_are_content_derived(onto, config, seed_store):
    candidate = parse_rule(COLLIDE_RULE, onto)
    first = verify(candidate, seed_store, config, onto)
    second = verify(candidate, seed_store, config, onto)
    assert first.id == second.id
    assert first.to_json_dict() == second.to_json_dict()


def test_package_attribute_verify_is_the_module():
    # the package re-exports the check_* functions, not the function verify,
    # which would shadow the module
    assert isinstance(rulesynth.verify, types.ModuleType)
    assert callable(rulesynth.verify.verify)
    assert rulesynth.check_consistency is check_consistency
