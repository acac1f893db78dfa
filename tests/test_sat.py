import random

import numpy as np

from rulesynth.sat import solve


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
