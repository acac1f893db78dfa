"""Reference DPLL solver for tests: the iterative, list-copying solver that
`rulesynth.sat` replaced, kept verbatim, so that the engine's models can be
compared with it for exact equality.

Clauses are frozensets of nonzero ints: +v asserts variable v, -v its
negation (DIMACS convention, variables numbered from 1).  The solver is
deterministic: unit propagation to fixpoint, then pure-literal
elimination, then branching on the lowest unassigned variable index with
True tried first.  A SAT answer comes with a total assignment.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Clause = frozenset[int]


def solve(
    clauses: Sequence[Iterable[int]], num_vars: int | None = None
) -> dict[int, bool] | None:
    """Return a total satisfying assignment, or None when unsatisfiable."""
    normalized = [frozenset(c) for c in clauses]
    seen = max((abs(l) for c in normalized for l in c), default=0)
    total = max(num_vars or 0, seen)
    if any(not clause for clause in normalized):
        return None
    result = _dpll(normalized)
    if result is None:
        return None
    for variable in range(1, total + 1):
        result.setdefault(variable, True)
    return result


def _assign(clauses: list[Clause], literal: int) -> list[Clause] | None:
    """Simplify under literal := true; None signals an empty clause."""
    out: list[Clause] = []
    for clause in clauses:
        if literal in clause:
            continue
        if -literal in clause:
            clause = clause - {-literal}
            if not clause:
                return None
        out.append(clause)
    return out


def _propagate(clauses: list[Clause], assignment: dict[int, bool]) -> list[Clause] | None:
    """Unit propagation to fixpoint, then pure-literal elimination; records
    the assigned literals in `assignment`.  None signals a conflict."""
    while True:
        unit = None
        for clause in clauses:
            if len(clause) == 1:
                unit = next(iter(clause))
                break
        if unit is None:
            break
        assignment[abs(unit)] = unit > 0
        simplified = _assign(clauses, unit)
        if simplified is None:
            return None
        clauses = simplified

    # pure-literal elimination (ascending variable order)
    while True:
        positive: set[int] = set()
        negative: set[int] = set()
        for clause in clauses:
            for literal in clause:
                (positive if literal > 0 else negative).add(abs(literal))
        pure = sorted((positive - negative) | (negative - positive))
        if not pure:
            return clauses
        for variable in pure:
            literal = variable if variable in positive else -variable
            assignment[abs(literal)] = literal > 0
            simplified = _assign(clauses, literal)
            if simplified is None:  # unreachable for a pure literal
                return None
            clauses = simplified


def _dpll(clauses: list[Clause]) -> dict[int, bool] | None:
    """Depth-first search over decisions, with an explicit stack of the
    decisions whose False branch is still untried, so the search depth is
    not bounded by Python's recursion limit."""
    assignment: dict[int, bool] = {}
    untried: list[tuple[list[Clause], dict[int, bool], int]] = []
    while True:
        remaining = _propagate(clauses, assignment)
        if remaining is not None:
            if not remaining:
                return assignment
            variable = min(abs(l) for clause in remaining for l in clause)
            untried.append((remaining, assignment, variable))
            simplified = _assign(remaining, variable)
            if simplified is not None:
                clauses, assignment = simplified, {**assignment, variable: True}
                continue
        # backtrack: the False branch of the latest decision that has one
        while True:
            if not untried:
                return None
            remaining, parent, variable = untried.pop()
            simplified = _assign(remaining, -variable)
            if simplified is not None:
                clauses, assignment = simplified, {**parent, variable: False}
                break
