"""Unsafe verdicts' countermodels, checked over the full grounding config
without a solver (`countermodel_check`).

`verify` solves a countermodel over the small-model bound only and copies
it out to every constant (`grounding.lift`).  The curated suite's two
Unsafe countermodels must be valid over N at domains 1, 2, 3 and 40 in
both comparison modes, and a lift that gives every copied atom the value
True must make the check fail.
"""

import json

import pytest

from rulesynth import grounding, verify as verify_module
from rulesynth.grounding import GroundingConfig
from rulesynth.oracle import DeterministicOracle, DeterministicOracleSpec
from rulesynth.pipeline import ScenarioConfig, run_synthesize
from rulesynth.fol import load_ontology
from rulesynth.store import commit_verified_rule, load_store
from rulesynth.verify import verify

from conftest import SCENARIOS
from countermodel_check import countermodel_problem
from test_golden import SUITE, suite_candidate


def suite_countermodel_problems(domain_size, mode):
    """What is wrong with each Unsafe report's countermodel of the suite,
    verified in order after scenario 1's synthesis, over its config."""
    config = ScenarioConfig.from_file(SCENARIOS / "scenario1.config.json")
    onto = load_ontology(config.ontology_path)
    oracle = DeterministicOracle(DeterministicOracleSpec.from_file(config.oracle_spec_path))
    store, synthesis = run_synthesize(load_store(config.store_path, onto), onto, oracle, config)
    pools = GroundingConfig.default(onto, domain_size, mode)
    problems = []
    for entry in json.loads(SUITE.read_text(encoding="utf-8"))["candidates"]:
        candidate = suite_candidate(entry, onto)
        theory = store.theory_rules()
        report = verify(candidate, store, pools, onto)
        assert report.verdict == entry["expected"]
        if report.verdict == "Unsafe":
            violated = next(i.rule for i in store.invariants if i.id == report.invariants.violated_id)
            problems.append(countermodel_problem(
                report.invariants.countermodel, [*theory, candidate], violated, pools, onto))
        report_doc = report.to_json_dict()
        store = store.with_report(report_doc)
        if report.verdict == "Accepted":
            store, _ = commit_verified_rule(store, candidate, (entry["trace_cause"], synthesis.goal.id), report_doc)
    return problems


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
@pytest.mark.parametrize("domain_size", [1, 2, 3, 40])
def test_suite_countermodels_are_valid_over_n(domain_size, mode):
    assert suite_countermodel_problems(domain_size, mode) == [None, None]


@pytest.mark.parametrize("mode", ["opaque", "interval-axioms"])
def test_the_check_fails_a_lift_that_makes_every_copied_atom_true(monkeypatch, mode):
    def all_true(atoms, rules, config, bound, onto):
        """The lift with every atom outside `atoms` numbered 0, which no
        model assigns and `render_model` renders true."""
        return {name: atoms.get(name, 0) for name in grounding.lift(atoms, rules, config, bound, onto)}

    monkeypatch.setattr(verify_module, "lift", all_true)
    problems = suite_countermodel_problems(40, mode)
    assert len(problems) == 2 and None not in problems, problems
