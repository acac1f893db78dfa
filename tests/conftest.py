import os
import shutil
from pathlib import Path

import pytest
from hypothesis import settings

from rulesynth.fol import load_ontology
from rulesynth.store import load_store

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# The "ci" profile, loaded unless HYPOTHESIS_PROFILE names another: a fixed
# example sequence per test and no example database, so every run checks the
# same inputs.  HYPOTHESIS_PROFILE=default explores random examples instead.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

COLLIDE_RULE = "forall X . not collide(X) <- sd_front(X) and sd_rear(X) and not lane_change(X)"
DENSE_RULE = "forall X . sd_front(X) and sd_rear(X) <- not dense(X)"


def grounding_parts(db):
    """Everything a grounding determines, orders and duplicates included."""
    return (
        list(db.atoms.items()),
        db.rule_clauses,
        list(db.comparisons.items()),
        db.axioms,
        db.index.clauses,
    )


@pytest.fixture
def work_dir(tmp_path):
    """Fresh working copy of the shipped scenario fixtures."""
    for path in SCENARIOS.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    return tmp_path


@pytest.fixture(scope="session")
def onto():
    return load_ontology(SCENARIOS / "traffic.onto.json")


@pytest.fixture
def seed_store(onto):
    return load_store(SCENARIOS / "merge.kb.json", onto)
