"""Complete DPLL satisfiability solver over integer-encoded CNF.

Clauses are frozensets of nonzero ints: +v asserts variable v, -v its
negation (DIMACS convention, variables numbered from 1).  A SAT answer
comes with a total assignment.

An `Index` is built once per clause set and solved many times.  It holds
the distinct clauses, for each literal the clauses it occurs in, and each
literal's occurrence count.  A call copies the counts and assigns literals
on a trail: per clause it counts true and non-false literals, per literal
its occurrences in unsatisfied clauses, and it undoes the trail on
backtrack, so no clause list is copied.  Each call may switch clauses off
and add extra clauses (such as unit assumptions) for that call only.

The model depends only on the clause set, because:

1. unit propagation to fixpoint assigns the same literals, or meets a
   conflict, in any order;
2. pure literals are assigned in rounds: all pure variables of the
   unsatisfied clauses are taken at once and assigned in ascending order,
   then the next round starts;
3. the decision variable is the lowest unassigned one in an unsatisfied
   clause, and True is tried first;
4. every variable left unassigned is True;
5. a switched-off clause counts as satisfied, the same as leaving it out;
6. a call whose unit propagation conflicts returns None before its set-up.

For point 6 each index keeps the assignment that propagating its own unit
clauses forces (`root`).  A call that switches no clause off propagates its
extra clauses from there, visiting only the clauses of the literals it
falsifies; a conflict is a refutation, so it returns the None that DPLL
would, without copying anything of the index's size.
"""

from __future__ import annotations

from typing import Collection, Iterable, Sequence

Clause = frozenset[int]


class Index:
    """The distinct clauses of a CNF, numbered in first-occurrence order
    (`ids` maps each clause to its number).

    Per-literal lists have 2 * num_vars + 1 entries, so that literal -v
    indexes from the end: `occurs[lit]` holds the numbers of the clauses
    containing lit, `counts[lit]` their count.  `root` holds the literals
    that unit propagation of the index's own clauses sets, or is None when
    it conflicts.
    """

    def __init__(self, clauses: Iterable[Iterable[int]]) -> None:
        self.ids: dict[Clause, int] = {}
        for clause in clauses:
            self.ids.setdefault(frozenset(clause), len(self.ids))
        self.clauses = list(self.ids)
        self.num_vars = max((abs(l) for c in self.clauses for l in c), default=0)
        self.occurs: list[Sequence[int]] = [[] for _ in range(2 * self.num_vars + 1)]
        for number, clause in enumerate(self.clauses):
            for literal in clause:
                self.occurs[literal].append(number)
        self.counts = [len(numbers) for numbers in self.occurs]
        self.sizes = [len(clause) for clause in self.clauses]
        self.empty = [number for number, size in enumerate(self.sizes) if not size]
        self.units = [number for number, size in enumerate(self.sizes) if size == 1]
        self.pure = [  # variables with one polarity only
            v for v in range(1, self.num_vars + 1) if bool(self.counts[v]) != bool(self.counts[-v])
        ]
        self.root = _propagate(self, set(), [self.clauses[n] for n in self.empty + self.units])

    def __len__(self) -> int:
        return len(self.clauses)


def _propagate(index: Index, root: set[int], clauses: list[Clause]) -> set[int] | None:
    """Unit propagation from the true literals in `root` through the index's
    clauses and `clauses`: the literals it sets beyond root, or None on a
    conflict.  It checks `clauses`, then the clauses of each literal it
    falsifies; a unit clause holds once its first check has passed."""
    by_literal: dict[int, list[Clause]] = {}
    for clause in clauses:
        if len(clause) > 1:
            for literal in clause:
                by_literal.setdefault(literal, []).append(clause)
    true: set[int] = set()
    queue: list[int] = []
    pending = clauses
    while True:
        for clause in pending:
            left = [l for l in clause if -l not in true and -l not in root]  # not false
            if not left:
                return None
            if len(left) == 1 and left[0] not in true and left[0] not in root:
                true.add(left[0])
                queue.append(left[0])
        if not queue:
            return true
        false = -queue.pop()
        # the index has no literal slot above its range
        pending = [index.clauses[n] for n in index.occurs[false]] if abs(false) <= index.num_vars else []
        pending += by_literal.get(false, ())


def solve(
    clauses: Index | Sequence[Iterable[int]],
    num_vars: int | None = None,
    *,
    off: Collection[Clause] = (),
    extra: Iterable[Iterable[int]] = (),
) -> dict[int, bool] | None:
    """Return a total satisfying assignment, or None when unsatisfiable.

    `clauses` is an Index or a clause list to index.  The clauses in `off`
    are switched off and those in `extra` added, for this call only.  The
    model covers variables 1 to the largest of num_vars and the variables
    of the index and of `extra`."""
    index = clauses if isinstance(clauses, Index) else Index(clauses)
    extra = [frozenset(c) for c in extra]
    if any(not c for c in extra):
        return None
    if not off and (index.root is None or _propagate(index, index.root, extra) is None):
        return None
    top = index.num_vars
    n = max(num_vars or 0, top, max((abs(l) for c in extra for l in c), default=0))
    occurs, remaining = index.occurs, index.counts.copy()
    if n > top:  # literal slots for the variables above the index's
        gap = 2 * (n - top)
        occurs = occurs[: top + 1] + [()] * gap + occurs[top + 1 :]
        remaining = remaining[: top + 1] + [0] * gap + remaining[top + 1 :]
    elif extra:
        occurs = occurs.copy()
    all_clauses = index.clauses + extra
    satisfied = [0] * len(all_clauses)  # true literals, 1 more when off
    free = index.sizes + [len(c) for c in extra]  # literals not yet false
    # pure-literal candidates: literals whose count fell to 0 and variables
    # pure in the index or occurring in `extra`
    zeroed = [*index.pure]
    for number in {index.ids[c] for c in off if c in index.ids}:
        satisfied[number] = 1
        for literal in all_clauses[number]:
            remaining[literal] -= 1
            if not remaining[literal]:
                zeroed.append(literal)
    if any(not satisfied[number] for number in index.empty):
        return None
    units = [number for number in index.units if not satisfied[number]]
    for number, clause in enumerate(extra, len(index.clauses)):
        for literal in clause:
            remaining[literal] += 1
            occurs[literal] = [*occurs[literal], number]
            zeroed.append(literal)
        if len(clause) == 1:
            units.append(number)

    truth = [0] * (2 * n + 1)  # 1 true, -1 false, 0 unassigned
    trail: list[int] = []

    def assign(literal: int) -> bool:
        """Set literal true; False on an unsatisfied clause with no
        non-false literal left."""
        truth[literal], truth[-literal] = 1, -1
        trail.append(literal)
        for number in occurs[literal]:
            satisfied[number] += 1
            if satisfied[number] == 1:
                for other in all_clauses[number]:
                    remaining[other] -= 1
                    if not remaining[other]:
                        zeroed.append(other)
        consistent = True
        for number in occurs[-literal]:
            free[number] -= 1
            if not satisfied[number] and free[number] < 2:
                if free[number]:
                    units.append(number)
                else:
                    consistent = False
        return consistent

    def undo(mark: int) -> None:
        while len(trail) > mark:
            literal = trail.pop()
            truth[literal] = truth[-literal] = 0
            for number in occurs[literal]:
                satisfied[number] -= 1
                if not satisfied[number]:
                    for other in all_clauses[number]:
                        remaining[other] += 1
            for number in occurs[-literal]:
                free[number] += 1

    decisions: list[tuple[int, int]] = []  # (variable, trail mark), False untried
    lowest = 1  # no variable below it is unassigned in an unsatisfied clause
    consistent = True
    while True:
        while consistent and units:
            number = units.pop()
            if not satisfied[number]:
                consistent = assign(next(l for l in all_clauses[number] if not truth[l]))
        if consistent:
            while True:
                pure = []
                for variable in sorted({abs(l) for l in zeroed}):
                    if not truth[variable]:
                        positive, negative = remaining[variable], remaining[-variable]
                        if positive and not negative:
                            pure.append(variable)
                        elif negative and not positive:
                            pure.append(-variable)
                zeroed.clear()
                if not pure:
                    break
                for literal in pure:
                    assign(literal)  # never falsifies an unsatisfied clause
            variable = lowest
            while variable <= n and (
                truth[variable] or not (remaining[variable] or remaining[-variable])
            ):
                variable += 1
            if variable > n:
                return {v: truth[v] >= 0 for v in range(1, n + 1)}
            decisions.append((variable, len(trail)))
            lowest = variable
            consistent = assign(variable)
            continue
        # backtrack: the False branch of the latest decision that has one
        while not consistent:
            if not decisions:
                return None
            lowest, mark = decisions.pop()
            undo(mark)
            units.clear()
            zeroed.clear()
            consistent = assign(-lowest)
