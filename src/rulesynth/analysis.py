"""Minimal necessary and minimal sufficient cause-set search.

Cause sets are int bitmasks from the kernel through the answer cache to
the oracle backend (bit i is universe[i]); the judge is a callable int ->
bool.  Ids are decoded from a mask only for monotonicity witnesses, the
output families, and a backend's transcript key or prompt.

One kernel, `minimal_sets`, serves the two searches.  It walks masks
bottom-up: ascending cardinality, lexicographic by cause index within a
cardinality.  It keeps the minimal masks on which a predicate holds: the
judge achieves on them (sufficient), or the judge fails on the universe
minus them (necessary).  A candidate that contains an already found set is
skipped, which is sound exactly when the achievement oracle is monotone
(adding causes never destroys achievement).  The walk goes one cardinality
level at a time (as in levelwise search: H. Mannila and H. Toivonen,
Data Min. Knowl. Disc. 1997): each level's masks come from an order kept
per universe size, and which of them contain a found set is read from an
up-closure bitmap settled before the level starts.  A set found at
level k contains no other set of level k, so the bitmap cannot change
within a level, and the walk judges and keeps exactly what testing each
candidate against every found set would.  Monotonicity is checked
rather than assumed: any answer contradicting it is recorded and disables
pruning for the remainder of the run, after which such a candidate is
still judged but never kept.  The monitor is shown each answer a search
keeps, and every answer once a violation is recorded; an answer dropped
before then could only contradict that search's own found sets, and the
kernel judges no superset of those while pruning (see MonotoneMonitor).

A removal set N is necessary when judging universe minus N fails; for a
monotone oracle the minimal necessary sets are precisely the minimal
transversals (hitting sets) of the minimal sufficient family, which
analyze() cross-checks with Berge's algorithm (C. Berge, Hypergraphs,
1989) rather than the kernel.  brute_force_families is the reference: it
judges every subset and shares no code with the kernel either.
"""

from __future__ import annotations

import functools
import hashlib
import json
from array import array
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Callable, Iterable, Sequence, Sized

from .oracle import CachedAchievementJudge, Oracle
from .store import Cause, Goal, TheoryStore

Judge = Callable[[int], bool]

BRUTE_FORCE_LIMIT = 20  # causes; both searches refuse more (2^n masks, answers and flags)


class UniverseTooLarge(ValueError):
    """A cause search refused over more than BRUTE_FORCE_LIMIT causes."""


def _check_universe_size(universe: Sized) -> None:
    if len(universe) > BRUTE_FORCE_LIMIT:
        raise UniverseTooLarge(f"|universe| = {len(universe)} exceeds {BRUTE_FORCE_LIMIT}")


def mask_ids(universe: Sequence[str]) -> Callable[[int], frozenset[str]]:
    """Decoder from a bitmask (bit i is universe[i], no bit at or past
    len(universe)) to the frozenset of its ids.

    One table of frozensets per 8 causes holds at entry b the causes of b's
    bits.  Up to 8 causes a mask decodes with one lookup and no allocation,
    up to 16 with one union of two lookups, and wider universes fold one
    more union per further 8 bits.  Equal id sets built by different
    unions may iterate in different orders, so every consumer sorts the
    ids or tests membership."""
    tables = []
    for lo in range(0, max(len(universe), 1), 8):
        table: list[frozenset[str]] = [frozenset()]
        for cause in universe[lo : lo + 8]:
            table += [t | {cause} for t in table]
        tables.append(table)
    if len(tables) == 1:
        return tables[0].__getitem__
    low, high, *wider = tables
    if not wider:
        return lambda mask: low[mask & 255] | high[mask >> 8]

    def ids(mask: int) -> frozenset[str]:
        out = low[mask & 255]
        for table in tables[1:]:
            mask >>= 8
            out |= table[mask & 255]
        return out

    return ids


@dataclass(frozen=True)
class CauseSetFamily:
    """A family of subsets over an ordered universe of cause ids.

    Sets are stored as sorted index tuples in canonical order (by
    cardinality, then lexicographically), duplicate-free.  Families
    produced by the minimal-set searches are antichains.
    """

    universe: tuple[str, ...]
    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def build(
        cls, universe: Sequence[str], sets: Iterable[Iterable[int]]
    ) -> "CauseSetFamily":
        canonical = sorted({tuple(sorted(set(s))) for s in sets}, key=lambda t: (len(t), t))
        return cls(tuple(universe), tuple(canonical))

    @classmethod
    def from_id_sets(
        cls, universe: Sequence[str], sets: Iterable[Iterable[str]]
    ) -> "CauseSetFamily":
        index = {cause_id: i for i, cause_id in enumerate(universe)}
        return cls.build(universe, ([index[c] for c in s] for s in sets))

    def id_sets(self) -> tuple[frozenset[str], ...]:
        return tuple(frozenset(self.universe[i] for i in s) for s in self.sets)

    def is_antichain(self) -> bool:
        as_sets = [set(s) for s in self.sets]
        return not any(
            a < b or b < a for i, a in enumerate(as_sets) for b in as_sets[i + 1 :]
        )

    def to_json(self) -> list[list[str]]:
        return [[self.universe[i] for i in s] for s in self.sets]


@dataclass(frozen=True)
class MonotonicityViolation:
    kind: str
    witness_small: tuple[str, ...]
    witness_large: tuple[str, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "witness_small": list(self.witness_small),
            "witness_large": list(self.witness_large),
        }


class MonotoneMonitor:
    """Cross-checks observed answers against sets found so far.

    Sets are bitmasks (bit i is cause i).  A failing answer on a superset
    of a known sufficient set, or an achieving answer on a set disjoint
    from a known necessary removal set, contradicts monotonicity.  Either
    observation disables superset pruning for the rest of the run.

    A search observes each answer it keeps (achieving in the sufficient
    search, failing in the necessary one), which is checked against the
    other search's sets, and every answer once `violations` is non-empty.
    An answer it drops before then is checked against its own search's
    sets, the `found` list of the kernel, and contradicts one only on a
    candidate containing a found set; the kernel judges none of those
    while `violations` is empty.  So the violations, witnesses and order
    are those of observing every answer, with no check repeated.
    """

    def __init__(self, universe: Sequence[str]):
        self.universe = frozenset(universe)
        self.ids = mask_ids(universe)
        self.sufficient: list[int] = []
        self.necessary: list[int] = []
        self.violations: list[MonotonicityViolation] = []

    def observe(self, subset: int, achieves: bool) -> None:
        if achieves:
            for removal in self.necessary:
                if not (subset & removal):  # subset survives the breaking removal
                    self.violations.append(
                        MonotonicityViolation(
                            "achieving-subset-of-failing-set",
                            tuple(sorted(self.ids(subset))),
                            tuple(sorted(self.universe - self.ids(removal))),
                        )
                    )
        else:
            for sufficient in self.sufficient:
                if sufficient & subset == sufficient:
                    self.violations.append(
                        MonotonicityViolation(
                            "failing-superset-of-sufficient-set",
                            tuple(sorted(self.ids(sufficient))),
                            tuple(sorted(self.ids(subset))),
                        )
                    )


@functools.cache
def _levels(n: int) -> tuple[array, ...]:
    """The masks over n bits, one array per cardinality, each in
    lexicographic order by bit index.  Built on first use of n and kept
    (2^n ints in all), since every goal of the same width walks them."""
    bits = [1 << i for i in range(n)]
    return tuple(array("I", map(sum, combinations(bits, size))) for size in range(n + 1))


def _supersets(mask: int, n: int) -> int:
    """The up-closure of one mask as an int with one byte per mask over n
    bits: byte m is 1 when m contains `mask`, else 0.  Built bit by bit as
    the product of a [0, 1] factor per bit of `mask` and [1, 1] per other
    bit, so it costs a few shifts of at most 2^n bytes."""
    up = 1
    for i in range(n):
        shifted = up << (8 << i)
        up = shifted if mask >> i & 1 else up | shifted
    return up


def minimal_sets(
    n: int, holds: Callable[[int], bool], found: list[int], violations: Sized = ()
) -> list[int]:
    """The minimal masks over n bits on which `holds` is true.

    Candidates are walked bottom-up, one cardinality level at a time, and
    lexicographic by bit index within a level.  A candidate containing a
    mask already in `found` is skipped while `violations` is empty; once it
    is not, such a candidate is still judged but never kept.  Minimal
    masks are appended to `found` (which may start non-empty, with masks
    over the same n bits), and it is returned.

    Which candidates of a level contain a found mask is decided once, when
    the level starts, from a bitmap with one byte per mask: the union of
    the supersets of every mask in `found`, grown at the end of each level
    by the masks that level found.  That is exact because a mask found at
    level k has k bits and so contains no other mask of level k: the
    flags of a level do not change while it is walked, and the judged
    order, the kept masks and their order are those of testing each
    candidate against every found mask.
    """
    up = 0  # byte m is 1: mask m contains a found mask
    for f in found:
        up |= _supersets(f, n)
    flags = up.to_bytes(1 << n, "little")
    for level in _levels(n):
        start = len(found)
        for mask, covered in zip(level, map(flags.__getitem__, level)):
            if covered:
                if violations:
                    holds(mask)
            elif holds(mask):
                found.append(mask)
        if len(found) > start:  # the next level's flags, from the masks this one found
            for f in found[start:]:
                up |= _supersets(f, n)
            flags = up.to_bytes(1 << n, "little")
    return found


def _monitored_search(
    universe: Sequence[str], judge: Judge, monitor: MonotoneMonitor | None, removal: bool
) -> CauseSetFamily:
    if not universe:
        raise ValueError("universe must be nonempty")
    _check_universe_size(universe)
    monitor = monitor if monitor is not None else MonotoneMonitor(universe)
    flip = (1 << len(universe)) - 1 if removal else 0
    found = monitor.necessary if removal else monitor.sufficient
    observe, violations = monitor.observe, monitor.violations

    def holds(mask: int) -> bool:
        subset = mask ^ flip
        result = judge(subset) != removal
        if result or violations:  # while pruning, a dropped answer contradicts nothing (MonotoneMonitor)
            observe(subset, result != removal)
        return result

    minimal_sets(len(universe), holds, found, violations)
    return CauseSetFamily.from_id_sets(universe, map(monitor.ids, found))


def minimal_sufficient_search(
    universe: Sequence[str], judge: Judge, monitor: MonotoneMonitor | None = None
) -> CauseSetFamily:
    """All minimal sufficient cause sets, smallest first.

    The empty set is tested first; if it achieves, the family is {{}} and
    every other candidate is pruned as its superset.
    """
    return _monitored_search(universe, judge, monitor, removal=False)


def minimal_necessary_search(
    universe: Sequence[str], judge: Judge, monitor: MonotoneMonitor | None = None
) -> CauseSetFamily:
    """All minimal necessary removal sets, smallest first.

    N is necessary when judging universe minus N fails.  The empty removal
    is tested first: when the full set already fails the effect is
    unachievable and the family collapses to {{}}.
    """
    return _monitored_search(universe, judge, monitor, removal=True)


def brute_force_families(
    universe: Sequence[str], judge: Judge
) -> tuple[CauseSetFamily, CauseSetFamily]:
    """Reference search: evaluate every subset once, derive both antichains
    by definition, no pruning.  Returns (minimal_sufficient, minimal_necessary)."""
    universe = tuple(universe)
    if not universe:
        raise ValueError("universe must be nonempty")
    _check_universe_size(universe)
    n = len(universe)
    order = [sum(1 << i for i in combo) for size in range(n + 1) for combo in combinations(range(n), size)]
    answers = {mask: judge(mask) for mask in order}  # judged in ascending order
    full = (1 << n) - 1
    sufficient: list[int] = []
    necessary: list[int] = []
    for mask in order:
        if answers[mask] and not any(f & mask == f for f in sufficient):
            sufficient.append(mask)
        if not answers[full ^ mask] and not any(f & mask == f for f in necessary):
            necessary.append(mask)
    ids = mask_ids(universe)
    return (
        CauseSetFamily.from_id_sets(universe, map(ids, sufficient)),
        CauseSetFamily.from_id_sets(universe, map(ids, necessary)),
    )


def minimal_transversals(family: CauseSetFamily) -> CauseSetFamily:
    """All inclusion-minimal subsets of the universe hitting every member.

    Berge's algorithm over masks, member by member: a transversal that
    hits the member stays, one that misses it is extended by each of the
    member's elements, and an extension containing a staying transversal
    is dropped (extensions cannot contain one another), so the list stays
    minimal.  For the empty family the empty set hits every member vacuously, so the
    result is {{}}; for a family containing the empty set no transversal
    exists and the result is empty.
    """
    transversals = [0]
    for member in family.sets:
        target = sum(1 << i for i in member)
        hit = [t for t in transversals if t & target]
        grown = {t | 1 << i for t in transversals if not t & target for i in member}
        transversals = hit + [g for g in grown if all(h & g != h for h in hit)]
    return CauseSetFamily.from_id_sets(family.universe, map(mask_ids(family.universe), transversals))


@dataclass(frozen=True)
class CauseNecessity:
    cause_id: str
    necessary: bool
    rationale: str

    def to_json(self) -> dict[str, Any]:
        return {
            "cause_id": self.cause_id,
            "necessary": self.necessary,
            "rationale": self.rationale,
        }


def evaluate_individual_necessity(
    causes: Sequence[Cause],
    goal: Goal,
    principles: Sequence[Any],
    oracle: Oracle,
) -> tuple[CauseNecessity, ...]:
    """One necessity judgment per consolidated cause, in universe order."""
    results = []
    for cause in causes:
        verdict = oracle.judge_individual_necessity(cause, goal, principles)
        results.append(CauseNecessity(cause.id, verdict.necessary, verdict.rationale))
    return tuple(results)


@dataclass(frozen=True)
class AnalysisReport:
    goal_id: str
    cause_ids: tuple[str, ...]
    individual_necessity: tuple[CauseNecessity, ...]
    minimal_necessary: CauseSetFamily
    minimal_sufficient: CauseSetFamily
    necessary_and_sufficient: tuple[tuple[str, ...], ...]
    structurally_necessary: tuple[str, ...]
    query_count: int
    monotonicity_violations: tuple[MonotonicityViolation, ...]
    duality_ok: bool
    effect_unachievable: bool
    search_method: str
    id: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            digest = hashlib.sha256(
                json.dumps(self._payload(), sort_keys=True).encode("utf-8")
            ).hexdigest()
            object.__setattr__(self, "id", "arep" + digest[:12])

    def _payload(self) -> dict[str, Any]:
        return {
            "kind": "analysis",
            "goal_id": self.goal_id,
            "cause_ids": list(self.cause_ids),
            "individual_necessity": [v.to_json() for v in self.individual_necessity],
            "minimal_necessary": self.minimal_necessary.to_json(),
            "minimal_sufficient": self.minimal_sufficient.to_json(),
            "necessary_and_sufficient": [list(s) for s in self.necessary_and_sufficient],
            "structurally_necessary": list(self.structurally_necessary),
            "query_count": self.query_count,
            "monotonicity_violations": [v.to_json() for v in self.monotonicity_violations],
            "duality_ok": self.duality_ok,
            "effect_unachievable": self.effect_unachievable,
            "search_method": self.search_method,
        }

    def to_json_dict(self) -> dict[str, Any]:
        return {"id": self.id, **self._payload()}


def analyze(
    goal: Goal,
    store: TheoryStore,
    oracle: Oracle,
    *,
    brute_force: bool = False,
) -> AnalysisReport:
    """Full cause-set analysis for one synthesized goal.

    Runs individual necessity, the minimal necessary and minimal
    sufficient searches over a shared cache, the transversal duality
    cross-check, and assembles the necessary-and-sufficient disjunction.
    Either search over more than BRUTE_FORCE_LIMIT causes raises
    UniverseTooLarge before any query.
    """
    causes = store.causes_for_goal(goal.id)
    if not causes:
        raise ValueError(f"goal {goal.id!r} has no consolidated causes; synthesize first")
    universe = tuple(c.id for c in causes)
    _check_universe_size(universe)
    judge = CachedAchievementJudge(oracle, goal, causes, store.principles)

    individual = evaluate_individual_necessity(causes, goal, store.principles, oracle)
    monitor = MonotoneMonitor(universe)
    if brute_force:
        sufficient_family, necessary_family = brute_force_families(universe, judge.ask)
        violations: tuple[MonotonicityViolation, ...] = ()
    else:
        necessary_family = minimal_necessary_search(universe, judge.ask, monitor)
        sufficient_family = minimal_sufficient_search(universe, judge.ask, monitor)
        violations = tuple(monitor.violations)

    duality_ok = minimal_transversals(sufficient_family) == necessary_family
    effect_unachievable = not sufficient_family.sets
    reported_necessary = (
        CauseSetFamily.build(universe, []) if effect_unachievable else necessary_family
    )
    sufficient_ids = sufficient_family.id_sets()
    structurally_necessary: tuple[str, ...] = ()
    if sufficient_ids:
        common = frozenset.intersection(*sufficient_ids)
        structurally_necessary = tuple(c for c in universe if c in common)

    return AnalysisReport(
        goal_id=goal.id,
        cause_ids=universe,
        individual_necessity=individual,
        minimal_necessary=reported_necessary,
        minimal_sufficient=sufficient_family,
        necessary_and_sufficient=tuple(
            tuple(family_set) for family_set in sufficient_family.to_json()
        ),
        structurally_necessary=structurally_necessary,
        query_count=judge.query_count,
        monotonicity_violations=violations,
        duality_ok=duality_ok,
        effect_unachievable=effect_unachievable,
        search_method="brute-force" if brute_force else "pruned",
    )
