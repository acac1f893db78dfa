import random
import shutil

import numpy as np

from rulesynth import sat
from rulesynth.cli import main
from rulesynth.sat import Index, solve

import reference_dpll
from conftest import SCENARIOS


def truth_table_satisfiable(clauses, num_vars):
    """Independent reference: vectorized enumeration of all assignments."""
    rows = 1 << num_vars
    assignments = ((np.arange(rows)[:, None] >> np.arange(num_vars)) & 1).astype(bool)
    ok = np.ones(rows, dtype=bool)
    for clause in clauses:
        satisfied = np.zeros(rows, dtype=bool)
        for literal in clause:
            column = assignments[:, abs(literal) - 1]
            satisfied |= column if literal > 0 else ~column
        ok &= satisfied
    return bool(ok.any())


def random_cnf(rng, max_vars=16, max_clauses=60):
    num_vars = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(4, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in variables))
    return clauses, num_vars


def pigeonhole(pigeons, holes):
    """Every pigeon in a hole, no hole shared; UNSAT when pigeons > holes."""
    def var(i, j):
        return i * holes + j + 1

    clauses = [frozenset(var(i, j) for j in range(holes)) for i in range(pigeons)]
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                clauses.append(frozenset({-var(i, j), -var(k, j)}))
    return clauses, pigeons * holes


def test_empty_formula_is_sat_with_empty_model():
    assert solve([]) == {}


def test_simple_unsat():
    assert solve([frozenset({1, 2}), frozenset({-1}), frozenset({-2})]) is None


def test_empty_clause_is_unsat():
    assert solve([frozenset()]) is None


def test_model_is_total_and_satisfying():
    clauses = [frozenset({1, -2}), frozenset({2, 3}), frozenset({-3, -1})]
    model = solve(clauses, num_vars=5)
    assert model is not None
    assert set(model) == {1, 2, 3, 4, 5}
    for clause in clauses:
        assert any(model[abs(l)] == (l > 0) for l in clause)


def test_deterministic_model():
    clauses = [frozenset({1, 2, 3}), frozenset({-2, 4})]
    assert solve(clauses) == solve(clauses)


def test_agrees_with_truth_table_on_random_cnfs():
    rng = random.Random(1234)
    for _ in range(80):
        clauses, num_vars = random_cnf(rng, max_vars=10, max_clauses=30)
        model = solve(clauses, num_vars)
        expected = truth_table_satisfiable(clauses, num_vars)
        assert (model is not None) == expected
        if model is not None:
            for clause in clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)


def test_pigeonhole_4_into_3_is_unsat():
    clauses, num_vars = pigeonhole(4, 3)
    assert solve(clauses, num_vars) is None


def test_pigeonhole_3_into_3_is_sat():
    clauses, num_vars = pigeonhole(3, 3)
    assert solve(clauses, num_vars) is not None


def test_deep_decision_chain_does_not_hit_recursion_limit():
    # 1200 independent pairs (x or y) and (not x or not y): no unit or pure
    # literal ever appears, so the search takes 1200 nested decisions
    clauses = []
    for i in range(1200):
        x, y = 2 * i + 1, 2 * i + 2
        clauses += [frozenset({x, y}), frozenset({-x, -y})]
    model = solve(clauses)
    # lowest variable first, True first: every x true, every y false
    assert model == {v: v % 2 == 1 for v in range(1, 2401)}


# --- exact models against the reference DPLL ---

def messy_cnf(rng):
    """Random CNF with tautologies, unit clauses, duplicate clauses and
    variables that occur in no clause."""
    num_vars = rng.randint(1, 12)
    clauses = []
    for _ in range(rng.randint(0, 40)):
        width = rng.randint(1, min(4, num_vars))
        clause = {v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, num_vars + 1), width)}
        if rng.random() < 0.05:
            v = rng.randint(1, num_vars)
            clause |= {v, -v}
        clauses.append(frozenset(clause))
    if clauses and rng.random() < 0.3:
        clauses += rng.sample(clauses, min(3, len(clauses)))
    return clauses, num_vars + rng.randint(0, 2)


def reference_call(index, num_vars=None, off=(), extra=()):
    """The same call answered by the reference on the explicit clause list."""
    kept = [clause for clause in index.clauses if clause not in set(off)]
    extra = [frozenset(clause) for clause in extra]
    return reference_dpll.solve(kept + extra, max(num_vars or 0, index.num_vars))


def test_models_equal_reference_on_random_cnfs():
    rng = random.Random("reference-plain")
    for _ in range(1500):
        clauses, num_vars = messy_cnf(rng)
        assert solve(clauses, num_vars) == reference_dpll.solve(clauses, num_vars)


def test_models_equal_reference_with_switched_off_and_extra_clauses():
    rng = random.Random("reference-switches")
    outcomes = set()
    for _ in range(1500):
        clauses, num_vars = messy_cnf(rng)
        index = Index(clauses)
        off = {clause for clause in index.clauses if rng.random() < 0.3}
        extra = []
        for _ in range(rng.randint(0, 3)):
            # up to 3 variables above the index's range
            literal = rng.randint(1, index.num_vars + 3) * rng.choice((1, -1))
            extra.append([literal])
            if rng.random() < 0.2:
                extra.append([-literal])  # contradictory assumptions
        if rng.random() < 0.3:  # a wider clause, as interval axioms over new atoms are
            variables = rng.sample(range(1, index.num_vars + 4), 2)
            extra.append([v * rng.choice((1, -1)) for v in variables])
        model = solve(index, num_vars, off=off, extra=extra)
        assert model == reference_call(index, num_vars, off, extra)
        outcomes.add(model is None)
    assert outcomes == {True, False}


def test_models_equal_reference_on_run_all_solver_calls(tmp_path, monkeypatch):
    calls = []
    engine = sat.solve

    def recording(*args, **kwargs):
        model = engine(*args, **kwargs)
        calls.append((args, kwargs, model))
        return model

    monkeypatch.setattr(sat, "solve", recording)
    for path in SCENARIOS.glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    for config in ("scenario1.config.json", "scenario2.config.json"):
        assert main(["run-all", "--config", str(tmp_path / config)]) == 0
    assert len(calls) > 50
    assert any(kwargs.get("off") for _, kwargs, _ in calls)
    assert any(kwargs.get("extra") for _, kwargs, _ in calls)
    for (index, num_vars), kwargs, model in calls:
        assert model == reference_call(index, num_vars, **kwargs)
