"""Golden digests of `run-all` on the shipped scenarios.

Scenario 1 then scenario 2 run in one fresh copy of the fixtures, as a
user would run them, at the configured domain size 3 and at 20.  The
sha256 of the store and of each goal's three artifacts is pinned, so any
change to artifact bytes (a verdict, a core, a countermodel, key order)
fails here.  CI runs this test again under fixed PYTHONHASHSEED values.
"""

import hashlib
import shutil

import pytest

from rulesynth.cli import main

from conftest import SCENARIOS

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
