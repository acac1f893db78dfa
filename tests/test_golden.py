"""Golden digests of `run-all` on the shipped scenarios and of the
curated verification suite's reports.

Scenario 1 then scenario 2 run in one fresh copy of the fixtures, as a
user would run them, at the configured domain size 3 and at 20.  The
sha256 of the store and of each goal's three artifacts is pinned, so any
change to artifact bytes (a verdict, a core, a countermodel, key order)
fails here.  The suite (`bench/data/verify_suite.json`) holds the only
Unsafe verdicts, and so the only countermodels: its 13 reports, verified
in order after scenario 1's synthesis as the benchmark's suite workload
verifies them, are pinned as one sha256 per domain size and comparison
mode.  CI runs this test again under fixed PYTHONHASHSEED values.
"""

import hashlib
import json
import shutil

import pytest

from rulesynth.cli import main
from rulesynth.fol import Atom, Literal, Rule, load_ontology, parse_rule, var
from rulesynth.grounding import GroundingConfig
from rulesynth.oracle import DeterministicOracle, DeterministicOracleSpec
from rulesynth.pipeline import ScenarioConfig, run_synthesize
from rulesynth.store import commit_verified_rule, json_text, load_store
from rulesynth.verify import verify

from conftest import SCENARIOS

SUITE = SCENARIOS.parent / "bench" / "data" / "verify_suite.json"

GOLDEN = {
    "3": {
        "merge.kb.json": "98c8b3653172ccf474c2ca1492c9351452f3f53bfa7813028d5bd87a41e6e79d",
        "out/g1.synthesis.json": "f72a30e42a8a49baee08872d5264e8aed45109b19d95d2e5ae9a076d15fc182a",
        "out/g1.analysis.json": "bcfbd2572cacdfc9542f314930395b83d1759bc1ff056ab5c9201b3d0064302f",
        "out/g1.verification.json": "4e06dd1cad53c4419923515811b9714ec5812cfed0aad5439caf8d46cfc76a14",
        "out/g2.synthesis.json": "041d80e57dcfd78f26630a94f96a4f65cd71c49ad67b8117bec166e7b6f4ea34",
        "out/g2.analysis.json": "ccd70a31d9de26bf19d057ac56e3225b880b9d4f287416783a58fe6dc5fbb6dc",
        "out/g2.verification.json": "aca0fbc433162750dc847236f5e373fb961e6a3089892dfe707ba9c226b873a2",
    },
    "20": {
        "merge.kb.json": "a8ec4220c1e72c982b7b5511386b6251f2525d6f988bc24709c78c3ffa79b0c3",
        "out/g1.synthesis.json": "f72a30e42a8a49baee08872d5264e8aed45109b19d95d2e5ae9a076d15fc182a",
        "out/g1.analysis.json": "bcfbd2572cacdfc9542f314930395b83d1759bc1ff056ab5c9201b3d0064302f",
        "out/g1.verification.json": "4f9e30b8da682041aa24bb0fdb984d44b1f812e0372a38482b5aad0a389b2bca",
        "out/g2.synthesis.json": "041d80e57dcfd78f26630a94f96a4f65cd71c49ad67b8117bec166e7b6f4ea34",
        "out/g2.analysis.json": "ccd70a31d9de26bf19d057ac56e3225b880b9d4f287416783a58fe6dc5fbb6dc",
        "out/g2.verification.json": "8f49368dd1e080f3d405da797a500a2956a05345e1076a1d8de7c6ce3dbb84a5",
    },
}


@pytest.mark.parametrize("domain_size", sorted(GOLDEN))
def test_run_all_artifacts_match_golden_digests(tmp_path, domain_size):
    for path in SCENARIOS.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    for config in ("scenario1.config.json", "scenario2.config.json"):
        argv = ["run-all", "--config", str(tmp_path / config), "--domain-size", domain_size]
        assert main(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN[domain_size]
    }
    assert digests == GOLDEN[domain_size]


SUITE_GOLDEN = {
    ("opaque", 1): "b539336c6e68cd96dfe2646d19093ecd50ae9e0afd7bdafe052346c365d3e1fb",
    ("opaque", 3): "89950d7cfdd3235d3e601e3f9d38ffae43dca9360489fc7e81a15cef9723a3c2",
    ("opaque", 40): "bae2430c4716850a72b4ea111fd24ec88f9de63794c9a91e78df4017e774bcc7",
    ("interval-axioms", 1): "af07357c4ecb30438338ed344bcc948f6b9b06c4cc6a647265a207129f69ad3e",
    ("interval-axioms", 3): "ee1230a56574a955b851a2cbc283cd1c0da138beab9582af9de86f263f7cfa05",
    ("interval-axioms", 40): "441357d0faa485beeb54bcf80447c3712af0dc7e2903095ad658385450e72136",
}


def suite_candidate(entry, onto):
    if "construct" in entry:  # not expressible in the surface syntax
        shape = entry["construct"]

        def literals(atoms):
            return tuple(Literal(False, Atom(pred, tuple(map(var, args)))) for pred, args in atoms)

        return Rule(tuple(map(var, shape["quantified"])), literals(shape["head"]), literals(shape["body"]))
    return parse_rule(entry["rule"], None if entry.get("schema_free") else onto)


def suite_digest(domain_size, mode):
    """sha256 of the suite's reports as artifact text, one per line, in order."""
    config = ScenarioConfig.from_file(SCENARIOS / "scenario1.config.json")
    onto = load_ontology(config.ontology_path)
    oracle = DeterministicOracle(DeterministicOracleSpec.from_file(config.oracle_spec_path))
    store, synthesis = run_synthesize(load_store(config.store_path, onto), onto, oracle, config)
    grounding = GroundingConfig.default(onto, domain_size, mode)
    digest = hashlib.sha256()
    entries = json.loads(SUITE.read_text(encoding="utf-8"))["candidates"]
    for entry in entries:
        candidate = suite_candidate(entry, onto)
        report = verify(candidate, store, grounding, onto).to_json_dict()
        assert report["verdict"] == entry["expected"]
        digest.update((json_text(report) + "\n").encode("utf-8"))
        store = store.with_report(report)
        if report["verdict"] == "Accepted":
            store, _ = commit_verified_rule(store, candidate, (entry["trace_cause"], synthesis.goal.id), report)
    assert len(entries) == 13
    return digest.hexdigest()


@pytest.mark.parametrize("mode, domain_size", sorted(SUITE_GOLDEN))
def test_suite_reports_match_golden_digests(mode, domain_size):
    assert suite_digest(domain_size, mode) == SUITE_GOLDEN[mode, domain_size]
