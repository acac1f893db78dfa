import gc
import itertools
import random
import weakref

import pytest

from rulesynth import analysis
from rulesynth.analysis import (
    CauseSetFamily,
    MonotoneMonitor,
    UniverseTooLarge,
    analyze,
    brute_force_families,
    minimal_necessary_search,
    minimal_sets,
    minimal_sufficient_search,
    minimal_transversals,
)
from rulesynth.oracle import CachedAchievementJudge, DeterministicOracle, DeterministicOracleSpec
from rulesynth.pipeline import ScenarioConfig, run_synthesize


def monotone_judge(family):
    members = [frozenset(f) for f in family]
    return lambda subset: any(m <= subset for m in members)


def on_masks(universe, predicate):
    """The mask judge the searches take, from a predicate on frozensets of
    cause ids: bit i of the mask stands for universe[i]."""
    return lambda mask: predicate(
        frozenset(cause for i, cause in enumerate(universe) if mask >> i & 1)
    )


class CountingJudge:
    def __init__(self, judge):
        self.judge = judge
        self.count = 0

    def __call__(self, subset):
        self.count += 1
        return self.judge(subset)


def ids(n):
    return tuple(f"c{i}" for i in range(1, n + 1))


def random_antichain(rng, universe):
    """A random antichain over the universe; occasionally degenerate."""
    roll = rng.random()
    if roll < 0.05:
        return []  # unachievable effect
    if roll < 0.10:
        return [frozenset()]  # achieves unconditionally
    picked = [
        frozenset(rng.sample(universe, rng.randint(1, len(universe))))
        for _ in range(rng.randint(1, 5))
    ]
    antichain = []
    for candidate in sorted(picked, key=len):
        if not any(kept <= candidate for kept in antichain):
            antichain.append(candidate)
    return antichain


def test_every_singleton_minimal_when_any_nonempty_achieves():
    universe = ids(3)
    family = minimal_sufficient_search(universe, on_masks(universe, lambda s: bool(s)))
    assert family.id_sets() == (frozenset(["c1"]), frozenset(["c2"]), frozenset(["c3"]))


def test_unbreakable_effect_has_no_necessary_sets():
    universe = ids(3)
    family = minimal_necessary_search(universe, on_masks(universe, lambda s: True))
    assert family.sets == ()


def test_unachievable_effect_collapses_to_empty_removal():
    universe = ids(3)
    never = on_masks(universe, lambda s: False)
    family = minimal_necessary_search(universe, never)
    assert family.sets == ((),)
    sufficient = minimal_sufficient_search(universe, never)
    assert sufficient.sets == ()
    # duality holds on the raw search outputs
    assert minimal_transversals(sufficient) == family


def test_empty_set_tested_first():
    universe = ids(4)
    family = minimal_sufficient_search(universe, on_masks(universe, lambda s: True))
    assert family.sets == ((),)


def test_transversal_examples():
    fam = CauseSetFamily.build(("a", "b", "c"), [(0, 1), (1, 2)])
    result = minimal_transversals(fam)
    assert result.id_sets() == (frozenset(["b"]), frozenset(["a", "c"]))
    single = CauseSetFamily.from_masks(("a",), [0b1])
    assert minimal_transversals(single).id_sets() == (frozenset(["a"]),)


def _kernel_transversals(family):
    # the duality check as first written: the search kernel walks all 2^n masks
    n = len(family.universe)
    members = [sum(1 << i for i in s) for s in family.sets]
    found = minimal_sets(n, lambda mask: all(mask & m for m in members), [])
    return CauseSetFamily.build(family.universe, ([i for i in range(n) if m >> i & 1] for m in found))


def test_berge_transversals_match_kernel_walk_on_random_families():
    rng = random.Random(1989)
    non_antichains = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        sets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 6))]
        if sets and rng.random() < 0.3:  # a member and one of its supersets
            sets.append(sets[0] + rng.sample(range(n), rng.randint(0, n)))
        if rng.random() < 0.05:
            sets.append([])
        family = CauseSetFamily.build(ids(n), sets)
        non_antichains += not family.is_antichain()
        assert minimal_transversals(family) == _kernel_transversals(family), family
    assert non_antichains > 20


def test_transversal_edge_cases():
    universe = ids(3)
    assert minimal_transversals(CauseSetFamily.build(universe, [])).sets == ((),)
    assert minimal_transversals(CauseSetFamily.build(universe, [(), (0, 1)])).sets == ()
    assert minimal_transversals(CauseSetFamily.build(universe, [()])).sets == ()


def test_transversals_over_a_universe_no_mask_walk_could_cover():
    # 42 causes: 2^42 masks for the kernel, 4 * 4 * 4 extensions for Berge
    blocks = [range(0, 4), range(20, 24), range(38, 42)]
    result = minimal_transversals(CauseSetFamily.build(ids(42), blocks))
    assert len(result.sets) == 64
    assert result.sets == tuple(itertools.product(*blocks))


def test_scenario2_transversals_match_necessary_sets():
    universe = ids(6)
    family = CauseSetFamily.build(universe, [(0, 1, 2, 3), (0, 1, 2, 4)])
    expected = CauseSetFamily.from_masks(universe, [0b1, 0b10, 0b100, 0b11000])
    assert minimal_transversals(family) == expected
    judge = on_masks(universe, monotone_judge(family.id_sets()))
    assert minimal_necessary_search(universe, judge) == expected


def test_brute_force_trivial_cases():
    judge = on_masks(("c1",), lambda s: s == frozenset(["c1"]))
    sufficient, necessary = brute_force_families(("c1",), judge)
    assert sufficient.id_sets() == (frozenset(["c1"]),)
    assert necessary.id_sets() == (frozenset(["c1"]),)
    with pytest.raises(UniverseTooLarge):
        brute_force_families(ids(21), on_masks(ids(21), lambda s: True))


def test_pruned_equals_brute_force_on_random_monotone_oracles():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(1, 8)
        universe = ids(n)
        judge = on_masks(universe, monotone_judge(random_antichain(rng, list(universe))))
        sufficient = minimal_sufficient_search(universe, judge)
        necessary = minimal_necessary_search(universe, judge)
        brute_sufficient, brute_necessary = brute_force_families(universe, judge)
        assert sufficient == brute_sufficient
        assert necessary == brute_necessary
        assert sufficient.is_antichain() and necessary.is_antichain()
        assert minimal_transversals(sufficient) == necessary


def test_searches_match_brute_force_past_eight_causes():
    # cause ids are decoded from masks eight bits at a time
    universe = ids(11)
    judge = on_masks(universe, monotone_judge([frozenset(["c9", "c10"]), frozenset(["c2", "c11"])]))
    brute_sufficient, brute_necessary = brute_force_families(universe, judge)
    assert minimal_sufficient_search(universe, judge) == brute_sufficient
    assert minimal_necessary_search(universe, judge) == brute_necessary
    assert brute_sufficient.to_json() == [["c2", "c11"], ["c9", "c10"]]


def test_returned_sufficient_sets_are_sound_and_minimal():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 8)
        universe = ids(n)
        judge = monotone_judge(random_antichain(rng, list(universe)))
        for subset in minimal_sufficient_search(universe, on_masks(universe, judge)).id_sets():
            assert judge(subset)
            for cause in subset:
                assert not judge(subset - {cause})


def test_membership_characterization():
    # a cause sits in every minimal sufficient set iff its singleton is a
    # minimal necessary set (monotone oracles)
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 7)
        universe = ids(n)
        judge = on_masks(universe, monotone_judge(random_antichain(rng, list(universe))))
        sufficient = minimal_sufficient_search(universe, judge)
        necessary = minimal_necessary_search(universe, judge)
        singletons = {next(iter(s)) for s in necessary.id_sets() if len(s) == 1}
        if sufficient.sets:
            in_all = set(universe)
            for s in sufficient.id_sets():
                in_all &= s
            assert in_all == singletons


def test_pruning_saves_queries_and_is_deterministic():
    universe = ids(6)
    family = [frozenset(["c1", "c2"])]
    counts = []
    for _ in range(2):
        judge = CountingJudge(on_masks(universe, monotone_judge(family)))
        minimal_sufficient_search(universe, judge)
        counts.append(judge.count)
    assert counts[0] == counts[1]
    assert counts[0] < 2 ** len(universe)


def test_search_order_is_pinned():
    # ascending cardinality, then lexicographic by cause index; supersets
    # of found sets are never shown to the judge
    universe = ids(4)
    family = [frozenset(["c1", "c2"]), frozenset(["c3"])]
    for search, expected in (
        (minimal_sufficient_search, ["", "1", "2", "3", "4", "12", "14", "24"]),
        (
            minimal_necessary_search,
            ["1234", "234", "134", "124", "123", "34", "24", "23", "14", "13", "12", "3"],
        ),
    ):
        seen = []
        judge = monotone_judge(family)
        search(
            universe,
            on_masks(universe, lambda s: seen.append("".join(sorted(c[1:] for c in s))) or judge(s)),
        )
        assert seen == expected, search.__name__


def test_kernel_judges_covered_candidates_without_keeping_them_when_not_pruning():
    for violations, judged in (([], [0]), (["seen"], [0, 1, 2, 4, 3, 5, 6, 7])):
        seen = []
        found = minimal_sets(3, lambda mask: seen.append(mask) or True, [], violations)
        assert seen == judged
        assert found == [0]


def _reference_minimal_sets(n, holds, found, violations):
    # the kernel as first written: any() over all found masks
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            mask = sum(1 << i for i in combo)
            covered = any(f & mask == f for f in found)
            if covered and not violations:
                continue
            if holds(mask) and not covered:
                found.append(mask)
    return found


def test_kernel_walk_matches_reference_on_random_predicates():
    # non-monotone answers, pruning that switches off at any candidate and
    # `found` lists that start non-empty; widths up to 12 in a shuffled
    # order, so the kept per-width level order is built by one walk and
    # reused by later ones
    rng = random.Random(5)
    widths = [rng.randint(0, 12) for _ in range(100)]
    assert len(set(widths)) > 6
    for n in widths:
        answers = [rng.random() < rng.choice([0.05, 0.3]) for _ in range(1 << n)]
        prefill = [rng.randrange(1 << n) for _ in range(rng.choice([0, 0, 1, 3]))]
        cutoff = rng.choice([None, None, 0, rng.randint(1, 1 << n)])
        walks = []
        for kernel in (minimal_sets, _reference_minimal_sets):
            seen = []
            violations = ["from the start"] if cutoff == 0 else []

            def holds(mask):
                seen.append(mask)
                if len(seen) == cutoff:  # pruning is off from the next candidate on
                    violations.append(mask)
                return answers[mask]

            found = kernel(n, holds, list(prefill), violations)
            walks.append((seen, found))
        assert walks[0] == walks[1], (n, prefill, cutoff)


def _reference_monitored_search(universe, judge, monitor, removal):
    # the search as first written: the monitor observes every answer
    flip = (1 << len(universe)) - 1 if removal else 0

    def holds(mask):
        subset = mask ^ flip
        achieves = judge(subset)
        monitor.observe(subset, achieves)
        return achieves != removal

    found = monitor.necessary if removal else monitor.sufficient
    minimal_sets(len(universe), holds, found, monitor.violations)
    return CauseSetFamily.from_masks(universe, found)


def _pruned_search(universe, judge, monitor, removal):
    search = minimal_necessary_search if removal else minimal_sufficient_search
    return search(universe, judge, monitor)


def _random_answers(rng, universe):
    """Answers per mask: monotone, monotone with a few flipped, or coin flips."""
    n = len(universe)
    roll = rng.random()
    if roll < 0.6:
        judge = on_masks(universe, monotone_judge(random_antichain(rng, list(universe))))
        answers = [judge(mask) for mask in range(1 << n)]
        if roll < 0.4:
            for mask in rng.sample(range(1 << n), rng.randint(1, min(3, 1 << n))):
                answers[mask] = not answers[mask]
        return answers
    p = rng.random()
    return [rng.random() < p for _ in range(1 << n)]


def test_monitor_seeing_kept_answers_only_equals_seeing_every_answer():
    # the searches show the monitor only the answers they keep until a
    # violation is recorded; the reference shows it every answer
    rng = random.Random(18)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 8)
        universe = ids(n)
        answers = _random_answers(rng, universe)
        removal_first = rng.random() < 0.5
        prefill = rng.random() < 0.3
        pre_sufficient = [rng.randrange(1 << n) for _ in range(rng.randint(0, 2))] if prefill else []
        pre_necessary = [rng.randrange(1 << n) for _ in range(rng.randint(0, 2))] if prefill else []
        runs = []
        for search in (_pruned_search, _reference_monitored_search):
            monitor = MonotoneMonitor(universe)
            monitor.sufficient.extend(pre_sufficient)
            monitor.necessary.extend(pre_necessary)
            seen = []
            judge = lambda mask: seen.append(mask) or answers[mask]
            families = [search(universe, judge, monitor, removal) for removal in (removal_first, not removal_first)]
            runs.append((seen, families, monitor.violations))
        assert runs[0] == runs[1], (universe, answers, removal_first, pre_sufficient, pre_necessary)
        outcomes.add((prefill, bool(runs[0][2])))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_non_monotone_oracle_detected_and_pruning_disabled():
    universe = ids(3)
    calls = []
    judge = on_masks(universe, lambda s: calls.append(s) or len(s) == 1)  # achieves only on singletons
    monitor = MonotoneMonitor(universe)
    necessary = minimal_necessary_search(universe, judge, monitor)
    sufficient = minimal_sufficient_search(universe, judge, monitor)
    assert necessary.sets == ((),)  # the full set fails
    assert sufficient.id_sets() == (
        frozenset(["c1"]),
        frozenset(["c2"]),
        frozenset(["c3"]),
    )
    # one necessary query (every other removal contains the empty one), then
    # the whole lattice once the first singleton disables pruning
    assert len(calls) == 9
    achieving, failing = "achieving-subset-of-failing-set", "failing-superset-of-sufficient-set"
    assert [(v.kind, v.witness_small, v.witness_large) for v in monitor.violations] == [
        (achieving, ("c1",), ("c1", "c2", "c3")),
        (achieving, ("c2",), ("c1", "c2", "c3")),
        (achieving, ("c3",), ("c1", "c2", "c3")),
        (failing, ("c1",), ("c1", "c2")),
        (failing, ("c2",), ("c1", "c2")),
        (failing, ("c1",), ("c1", "c3")),
        (failing, ("c3",), ("c1", "c3")),
        (failing, ("c2",), ("c2", "c3")),
        (failing, ("c3",), ("c2", "c3")),
        (failing, ("c1",), ("c1", "c2", "c3")),
        (failing, ("c2",), ("c1", "c2", "c3")),
        (failing, ("c3",), ("c1", "c2", "c3")),
    ]
    assert monitor.violations


def test_family_canonical_order_and_dedup():
    family = CauseSetFamily.build(ids(3), [(2, 1), (0,), (1, 2), (0,)])
    assert family.sets == ((0,), (1, 2))
    assert CauseSetFamily.from_masks(ids(3), [0b110, 0b1, 0b110, 0b1]) == family


def _scenario_store(work_dir, n):
    config = ScenarioConfig.from_file(work_dir / f"scenario{n}.config.json")
    from rulesynth.fol import load_ontology
    from rulesynth.store import load_store

    onto = load_ontology(config.ontology_path)
    store = load_store(config.store_path, onto)
    oracle = DeterministicOracle(DeterministicOracleSpec.from_file(config.oracle_spec_path))
    store, _ = run_synthesize(store, onto, oracle, config)
    return store, oracle


def test_analyze_scenario1_report(work_dir):
    store, oracle = _scenario_store(work_dir, 1)
    report = analyze(store.goal_by_id("g1"), store, oracle)
    assert report.cause_ids == ("g1-c1", "g1-c2", "g1-c3", "g1-c4")
    assert [v.cause_id for v in report.individual_necessity if v.necessary] == ["g1-c1", "g1-c2"]
    # the oracle's individual verdicts and the structural intersection of the
    # sufficient family legitimately diverge; both are in the report
    assert report.structurally_necessary == ("g1-c1", "g1-c2", "g1-c3", "g1-c4")
    assert report.minimal_sufficient.to_json() == [["g1-c1", "g1-c2", "g1-c3", "g1-c4"]]
    assert report.duality_ok and not report.effect_unachievable
    assert report.necessary_and_sufficient == (("g1-c1", "g1-c2", "g1-c3", "g1-c4"),)
    assert report.query_count == 16
    # identical run yields identical report ids (content-derived)
    again = analyze(store.goal_by_id("g1"), store, oracle)
    assert again.id == report.id


def test_cached_judge_is_freed_by_reference_counting(work_dir, monkeypatch):
    # a judge holds 2^n answers; a reference cycle through its call path
    # would keep them until the cycle collector ran
    store, oracle = _scenario_store(work_dir, 2)
    goal = store.goal_by_id("g2")
    causes = store.causes_for_goal(goal.id)
    universe = tuple(c.id for c in causes)
    made = []

    def judge_factory(*args):
        judge = CachedAchievementJudge(*args)
        made.append(weakref.ref(judge))
        return judge

    monkeypatch.setattr(analysis, "CachedAchievementJudge", judge_factory)
    gc.disable()
    try:
        judge = CachedAchievementJudge(oracle, goal, causes, store.principles)
        monitor = MonotoneMonitor(universe)
        minimal_necessary_search(universe, judge.ask, monitor)
        minimal_sufficient_search(universe, judge, monitor)
        assert judge.query_count > 0
        freed = weakref.ref(judge)
        del judge
        assert freed() is None
        report = analyze(goal, store, oracle)
        assert report.query_count > 0 and len(made) == 1
        assert made[0]() is None  # gone with analyze's frame
    finally:
        gc.enable()


def test_analyze_brute_force_flag_equivalence(work_dir):
    store, oracle = _scenario_store(work_dir, 2)
    pruned = analyze(store.goal_by_id("g2"), store, oracle)
    brute = analyze(store.goal_by_id("g2"), store, oracle, brute_force=True)
    assert pruned.minimal_sufficient == brute.minimal_sufficient
    assert pruned.minimal_necessary == brute.minimal_necessary
    # both searches share one cache, and together they cover the whole
    # subset lattice, so the brute-force count cannot be lower
    assert brute.query_count == 2 ** 6 >= pruned.query_count


def test_analyze_unachievable_effect(work_dir):
    store, oracle = _scenario_store(work_dir, 1)

    class Never(DeterministicOracle):
        def judge_subset_achieves(self, goal, subset, causes, principles):
            return False

    report = analyze(store.goal_by_id("g1"), store, Never(oracle.spec))
    assert report.effect_unachievable
    assert report.minimal_sufficient.sets == ()
    assert report.minimal_necessary.sets == ()  # reported empty by convention
    assert report.duality_ok
