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
`Index.extended` adds clauses as a new index that shares the old one's
per-literal lists except those of the literals the new clauses contain,
so a clause set that grows by a few clauses is not indexed again.  It is
also how a call's extra clauses reach DPLL: `Index._add`, behind `Index()`
and `extended`, is the only code that numbers and indexes clauses.

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
would, without copying anything of the index's size.  An extended index
propagates its new clauses from the old index's root, not from scratch:
the old root is a fixpoint of the old clauses, so only a new clause, or
an old one that a newly set literal falsifies in part, can set more.

`satisfiable` answers yes or no without a model, for callers that read
none.  After the same refutation by propagation, it tries the index's
kept witnesses: the models of its earlier DPLL calls, as sets of true
literals, newest first.  Each is overridden by the literals that `root`
and the extra clauses force and then checked against every clause that
is on, the newest clauses first; one that satisfies them all answers
yes.  Only when none does is DPLL run, and its model is kept.  A witness
is checked clause by clause, so it can only ever answer yes for a clause
set that has a model: a wrong or stale witness costs a miss, never a
wrong answer, and the answer is always `solve(...) is not None`.  This
is the counterexample cache of KLEE (Cadar, Dunbar and Engler, OSDI
2008), close to phase saving (Pipatsrisawat and Darwiche, SAT 2007).
"""

from __future__ import annotations

from copy import copy
from itertools import filterfalse, islice
from typing import Collection, Iterable, Sequence

Clause = frozenset[int]

WITNESSES = 4  # models kept per index lineage for `satisfiable`


class Index:
    """The distinct clauses of a CNF, numbered in first-occurrence order
    (`ids` maps each clause to its number).

    Per-literal lists have 2 * num_vars + 1 entries, so that literal -v
    indexes from the end: `occurs[lit]` holds the numbers of the clauses
    containing lit, `counts[lit]` their count.  `root` holds the literals
    that unit propagation of the index's own clauses sets, or is None when
    it conflicts.  An index is not changed once built: `extended` and
    `solve` rebind or copy what they change.  The one exception is
    `witnesses`, the models `satisfiable` keeps (each the set of its
    true literals, newest first, at most WITNESSES): one list, shared by
    the index and every index `extended` builds from it.
    """

    def __init__(self, clauses: Iterable[Iterable[int]]) -> None:
        self.ids: dict[Clause, int] = {}
        self.clauses: list[Clause] = []
        self.num_vars = 0
        self.occurs: list[Sequence[int]] = [()]
        self.counts = [0]
        self.sizes: list[int] = []
        self.empty: list[int] = []
        self.units: list[int] = []
        self.pure: list[int] = []
        self.root: set[int] | None = set()
        self.witnesses: list[frozenset[int]] = []
        self._add(clauses)

    def extended(self, clauses: Iterable[Iterable[int]]) -> "Index":
        """The index of this one's clauses followed by `clauses`, equal to
        building it afresh from both; this index is left unchanged.

        The per-literal occurrence lists are shared, except those of the
        literals the new clauses contain, and `root` is propagated from this
        index's root through the new clauses only.  The witness pool is
        shared, not copied."""
        index = copy(self)
        index.ids = self.ids.copy()
        index.clauses = self.clauses.copy()
        index.sizes = self.sizes.copy()
        index.empty = self.empty.copy()
        index.units = self.units.copy()
        index._add(clauses)
        return index

    def _add(self, clauses: Iterable[Iterable[int]]) -> None:
        """Number the clauses the index lacks next and index them; rebinds
        the per-literal lists, `pure` and `root` rather than changing them."""
        ids, start = self.ids, len(self.clauses)
        for clause in clauses:
            ids.setdefault(frozenset(clause), len(ids))
        new = list(islice(ids, start, None))
        self.clauses += new
        added: dict[int, list[int]] = {}
        for number, clause in enumerate(new, start):
            for literal in clause:
                added.setdefault(literal, []).append(number)
            size = len(clause)
            self.sizes.append(size)
            if size < 2:
                (self.units if size else self.empty).append(number)
        top = self.num_vars
        n = max(top, max(map(abs, added), default=0))
        gap = 2 * (n - top)  # literal slots for the variables above the old range
        occurs = self.occurs[: top + 1] + [()] * gap + self.occurs[top + 1 :]
        counts = self.counts[: top + 1] + [0] * gap + self.counts[top + 1 :]
        for literal, numbers in added.items():
            occurs[literal] = [*occurs[literal], *numbers]
            counts[literal] += len(numbers)
        self.num_vars, self.occurs, self.counts = n, occurs, counts
        touched = {abs(literal) for literal in added}
        self.pure = sorted(  # variables with one polarity only
            [v for v in self.pure if v not in touched]
            + [v for v in touched if bool(counts[v]) != bool(counts[-v])]
        )
        if self.root is not None:
            # under an empty root only the unit and empty clauses can propagate
            check = new if self.root else [clause for clause in new if len(clause) < 2]
            true = _propagate(self, check)
            self.root = None if true is None else self.root | true

    def __len__(self) -> int:
        return len(self.clauses)


def _propagate(index: Index, clauses: list[Clause]) -> set[int] | None:
    """Unit propagation from the true literals in the index's `root` through
    its clauses and `clauses`: the literals it sets beyond root, or None on a
    conflict.  It checks `clauses`, then the clauses of each literal it
    falsifies, those the index lacks through a map of their own; a unit
    clause holds once its first check has passed."""
    root = index.root
    by_literal: dict[int, list[Clause]] = {}
    for clause in clauses:
        if len(clause) > 1 and clause not in index.ids:
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
    *,
    off: Collection[Clause] = (),
    extra: Iterable[Iterable[int]] = (),
) -> dict[int, bool] | None:
    """Return a total satisfying assignment, or None when unsatisfiable.

    `clauses` is an Index or a clause list to index.  The clauses in `off`
    are switched off and those in `extra` added, for this call only; an
    extra clause equal to a switched-off one stays on.  A call that unit
    propagation does not refute lays its extra clauses over the index with
    `Index.extended`, and DPLL runs over that one index.  The model covers
    variables 1 to the largest variable of the index and of `extra`."""
    index = clauses if isinstance(clauses, Index) else Index(clauses)
    extra = [frozenset(c) for c in extra]
    if not off and (index.root is None or _propagate(index, extra) is None):
        return None
    if extra:
        off = [c for c in off if c not in extra]  # an extra clause stays on
        index = index.extended(extra)
    n, occurs, all_clauses = index.num_vars, index.occurs, index.clauses
    remaining = index.counts.copy()
    satisfied = [0] * len(all_clauses)  # true literals, 1 more when off
    free = index.sizes.copy()  # literals not yet false
    # pure-literal candidates: the index's pure variables and literals whose
    # count fell to 0
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


def satisfiable(
    index: Index, *, off: Collection[Clause] = (), extra: Iterable[Iterable[int]] = ()
) -> bool:
    """Whether the index's clauses, less `off` and plus `extra`, have a
    model: `solve(index, off=off, extra=extra) is not None`, answered by
    propagation or a kept witness where they can."""
    extra = [frozenset(c) for c in extra]
    forced = index.root or set()  # under `off`, only a guess for the override
    if not off:
        implied = None if index.root is None else _propagate(index, extra)
        if implied is None:
            return False
        forced = forced | implied
    if index.witnesses:
        falsified = {-literal for literal in forced}
        for witness in index.witnesses:
            truth = set(witness)
            truth -= falsified
            truth |= forced
            # the newest clauses first; a clause switched off may be unsatisfied
            violated = filterfalse(off.__contains__, filter(truth.isdisjoint, reversed(index.clauses)))
            if not any(map(truth.isdisjoint, extra)) and next(violated, None) is None:
                return True
    model = solve(index, off=off, extra=extra)
    if model is None:
        return False
    index.witnesses.insert(0, frozenset(v if value else -v for v, value in model.items()))
    del index.witnesses[WITNESSES:]
    return True
