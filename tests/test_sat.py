import random
import shutil
from collections import Counter

import numpy as np
import pytest

from rulesynth import sat
from rulesynth.cli import main
from rulesynth.fol import load_ontology, parse_rule
from rulesynth.grounding import GroundingConfig
from rulesynth.sat import Index, satisfiable, solve
from rulesynth.store import load_store
from rulesynth.verify import verify

import reference_dpll
from conftest import COLLIDE_RULE, SCENARIOS


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
    clauses = [frozenset({1, -2}), frozenset({2, 3}), frozenset({-3, -1}), frozenset({5, -5})]
    model = solve(clauses)
    assert model is not None
    assert set(model) == {1, 2, 3, 4, 5}  # 4 occurs in no clause
    for clause in clauses:
        assert any(model[abs(l)] == (l > 0) for l in clause)


def test_deterministic_model():
    clauses = [frozenset({1, 2, 3}), frozenset({-2, 4})]
    assert solve(clauses) == solve(clauses)


def test_agrees_with_truth_table_on_random_cnfs():
    rng = random.Random(1234)
    for _ in range(80):
        clauses, num_vars = random_cnf(rng, max_vars=10, max_clauses=30)
        model = solve(clauses)
        expected = truth_table_satisfiable(clauses, num_vars)
        assert (model is not None) == expected
        if model is not None:
            for clause in clauses:
                assert any(model[abs(l)] == (l > 0) for l in clause)


def test_pigeonhole_4_into_3_is_unsat():
    clauses, _ = pigeonhole(4, 3)
    assert solve(clauses) is None


def test_pigeonhole_3_into_3_is_sat():
    clauses, _ = pigeonhole(3, 3)
    assert solve(clauses) is not None


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
    variables below the largest that occur in no clause."""
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
    return clauses


def reference_call(index, off=(), extra=()):
    """The same call answered by the reference on the explicit clause list,
    over the variables of the index and of `extra`."""
    kept = [clause for clause in index.clauses if clause not in set(off)]
    extra = [frozenset(clause) for clause in extra]
    return reference_dpll.solve(kept + extra, index.num_vars)


def test_models_equal_reference_on_random_cnfs():
    rng = random.Random("reference-plain")
    for _ in range(1500):
        clauses = messy_cnf(rng)
        assert solve(clauses) == reference_dpll.solve(clauses)


def switches(rng, index):
    """Clauses of the index to switch off, and extra clauses: unit
    assumptions, at times contradictory, over up to 3 variables above the
    index's range, and at times a wider clause."""
    off = {clause for clause in index.clauses if rng.random() < 0.3}
    extra = []
    for _ in range(rng.randint(0, 3)):
        literal = rng.randint(1, index.num_vars + 3) * rng.choice((1, -1))
        extra.append([literal])
        if rng.random() < 0.2:
            extra.append([-literal])
    if rng.random() < 0.3:  # as interval axioms over new atoms are
        variables = rng.sample(range(1, index.num_vars + 4), 2)
        extra.append([v * rng.choice((1, -1)) for v in variables])
    return off, extra


def test_models_equal_reference_with_switched_off_and_extra_clauses():
    rng = random.Random("reference-switches")
    outcomes = set()
    for _ in range(1500):
        index = Index(messy_cnf(rng))
        off, extra = switches(rng, index)
        model = solve(index, off=off, extra=extra)
        assert model == reference_call(index, off, extra)
        outcomes.add(model is None)
    assert outcomes == {True, False}


UNSAFE = (  # the criterion-6 candidates that break inv-collision-free
    "forall X . sd_front(X) and sd_rear(X) and not lane_change(X) <- true",
    "forall X . attentive(X) <- true",
)


def test_models_equal_reference_on_run_all_solver_calls(tmp_path, monkeypatch):
    calls, answers = [], []  # solve calls with their models, satisfiable calls with their answers
    engine, yes_no = sat.solve, sat.satisfiable

    def recording(*args, **kwargs):
        model = engine(*args, **kwargs)
        calls.append((args, kwargs, model))
        return model

    def recording_yes_no(*args, **kwargs):
        searched = len(calls)
        answer = yes_no(*args, **kwargs)
        # True with no solve call of its own: a kept witness answered
        answers.append((args, kwargs, answer, answer and len(calls) == searched))
        return answer

    monkeypatch.setattr(sat, "solve", recording)
    monkeypatch.setattr(sat, "satisfiable", recording_yes_no)
    # at domain 6 more invariant attempts are refuted by propagation alone;
    # domain 20 is the benchmark's
    for domain in ("3", "6", "20"):
        work = tmp_path / domain
        work.mkdir()
        for path in SCENARIOS.glob("*.json"):
            shutil.copy(path, work / path.name)
        for config in ("scenario1.config.json", "scenario2.config.json"):
            assert main(["run-all", "--config", str(work / config), "--domain-size", domain]) == 0
    # no shipped candidate is Inconsistent, so core-shrink trials (the calls
    # with `off`) come from the Inconsistent candidates of criterion 6
    onto = load_ontology(tmp_path / "3" / "traffic.onto.json")
    store = load_store(tmp_path / "3" / "merge.kb.json", onto)
    grounding = GroundingConfig.default(onto, 3)
    for text in ("forall X . speed(X) > 130 <- true", "forall X . overtake_right(X) <- true"):
        assert verify(parse_rule(text, onto), store, grounding, onto).verdict == "Inconsistent"
    # refuted invariant attempts never reach `solve`, so its calls with
    # `extra` come from countermodels: those of the criterion-6 Unsafe
    # candidates, against the shipped store that does not yet entail
    # collision-freedom
    shipped = load_store(SCENARIOS / "merge.kb.json", onto)
    for text in UNSAFE:
        assert verify(parse_rule(text, onto), shipped, grounding, onto).verdict == "Unsafe"
    assert len(calls) > 30 and len(answers) > 50
    assert any(kwargs.get("off") for _, kwargs, _, _ in answers)
    assert any(kwargs.get("extra") for _, kwargs, _, _ in answers)
    assert any(kwargs.get("extra") for _, kwargs, _ in calls)
    assert sum(witnessed for *_, witnessed in answers) > 20
    for (index,), kwargs, model in calls:
        assert model == reference_call(index, **kwargs)
    for (index,), kwargs, answer, _ in answers:
        assert answer == (reference_call(index, **kwargs) is not None)


# --- yes/no answers from kept witnesses ---

class CountingSolve:
    """Stands in for `sat.solve`, which `satisfiable` runs when no kept
    witness answers, and counts those calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return solve(*args, **kwargs)


@pytest.fixture
def counting(monkeypatch):
    engine = CountingSolve()
    monkeypatch.setattr(sat, "solve", engine)
    return engine


def assumptions(rng, index):
    """No clause switched off, and one or two unit assumptions over up to
    2 variables above the index's range."""
    top = index.num_vars + 2
    return (), [[rng.randint(1, top) * rng.choice((1, -1))] for _ in range(rng.randint(1, 2))]


@pytest.mark.parametrize("draw", [assumptions, switches])
def test_satisfiable_equals_reference_on_repeated_calls(counting, draw):
    rng = random.Random(f"witness-{draw.__name__}")
    seen = Counter()
    for _ in range(500):
        index = Index(messy_cnf(rng))
        for call in range(5):
            off, extra = ((), ()) if call == 0 else draw(rng, index)
            searched = counting.calls
            answer = satisfiable(index, off=off, extra=extra)
            assert answer == (reference_call(index, off, extra) is not None)
            seen["unsat" if not answer else "witness" if counting.calls == searched else "dpll"] += 1
        assert len(index.witnesses) <= sat.WITNESSES
    assert min(seen.values()) > 100, seen


def assignment(rng, top):
    """A random assignment of variables 1..top, as its true literals."""
    return frozenset(v if rng.random() < 0.5 else -v for v in range(1, top + 1))


def test_a_wrong_witness_never_answers_an_unsatisfiable_call(counting):
    rng = random.Random("witness-wrong")
    checked = 0
    for _ in range(1500):
        index = Index(messy_cnf(rng))
        off, extra = switches(rng, index)
        if reference_call(index, off, extra) is not None:
            continue
        top = index.num_vars + 3
        wrong = [assignment(rng, top), assignment(rng, top), frozenset(range(1, top + 1))]
        # a model of every clause but one, as near as a wrong witness gets
        clauses = [c for c in index.clauses if c not in off] + [frozenset(c) for c in extra]
        for dropped in range(len(clauses)):
            model = reference_dpll.solve(clauses[:dropped] + clauses[dropped + 1:], top)
            if model is not None:
                wrong.append(frozenset(v if value else -v for v, value in model.items()))
                break
        index.witnesses[:] = wrong
        searched = counting.calls
        assert not satisfiable(index, off=off, extra=extra)
        checked += counting.calls > searched  # propagation did not refute it first
    assert checked > 100


def test_a_witness_of_another_index_only_costs_a_miss(counting):
    first, second = Index([[1], [2]]), Index([[-1], [-2, 3]])
    assert satisfiable(first) and first.witnesses == [frozenset({1, 2})]
    second.witnesses[:] = first.witnesses
    assert satisfiable(second) and counting.calls == 2
    assert second.witnesses == [frozenset({-1, -2, 3}), frozenset({1, 2})]
    rng = random.Random("witness-foreign")
    misses = 0
    for _ in range(800):
        first, second = Index(messy_cnf(rng)), Index(messy_cnf(rng))
        satisfiable(first)
        second.witnesses[:] = first.witnesses
        off, extra = switches(rng, second)
        searched = counting.calls
        answer = satisfiable(second, off=off, extra=extra)
        assert answer == (reference_call(second, off, extra) is not None)
        misses += answer and counting.calls > searched
    assert misses > 100


def test_an_extended_index_shares_its_base_witness_pool(counting):
    base = Index([[1, 2], [-1, 3]])
    extended = base.extended([[-3]])
    assert extended.witnesses is base.witnesses
    assert satisfiable(extended) and counting.calls == 1
    assert satisfiable(base) and counting.calls == 1  # the extended index's model
    grown = extended.extended([[4, -2, 5]])
    assert grown.witnesses is base.witnesses
    assert satisfiable(grown) and counting.calls == 2  # the kept model lacks 4 and 5
    assert base.witnesses == [frozenset({-1, 2, -3, 4, 5}), frozenset({-1, 2, -3})]
    # overridden by what 1 forces, the newest witness satisfies the base
    assert satisfiable(base, extra=[[1]]) and counting.calls == 2
    assert not satisfiable(grown, extra=[[1]]) and counting.calls == 2  # refuted by propagation


def test_a_witness_is_checked_against_the_clauses_switched_on_only(counting):
    base = Index([[1], [-1, 2]])
    assert satisfiable(base) and base.witnesses == [frozenset({1, 2})]
    conflicting = base.extended([[-2]])
    assert not satisfiable(conflicting) and counting.calls == 1  # its root conflicts
    assert satisfiable(conflicting, off={frozenset({-2})}) and counting.calls == 1
    assert satisfiable(conflicting, off={frozenset({1})}) and counting.calls == 2
    assert base.witnesses == [frozenset({-1, -2}), frozenset({1, 2})]


# --- refutation by unit propagation ---

class DenseSetUp(Exception):
    """A call reached the per-call set-up that is linear in the index."""


class NoCopy:
    """Stands in for `Index.counts`, which that set-up copies, or slices
    when it extends the index by the call's extra clauses."""

    def copy(self):
        raise DenseSetUp

    def __getitem__(self, key):
        raise DenseSetUp


def links(rng, top, count):
    """`count` implication links (not a) or b over variables 1..top."""
    return [frozenset({-a, b}) for a, b in (rng.sample(range(1, top + 1), 2) for _ in range(count))]


def horn_chain_case(rng):
    """An index of implication links and unit clauses, and extra clauses:
    links and 1 to 3 unit assumptions over up to 3 variables above the
    index's range.  Every clause is Horn, so unit propagation refutes every
    unsatisfiable case."""
    num_vars = rng.randint(2, 14)
    clauses = links(rng, num_vars, rng.randint(1, 3 * num_vars))
    clauses += [frozenset({rng.randint(1, num_vars) * rng.choice((1, -1))})
                for _ in range(rng.randint(0, 2))]
    top = num_vars + 3
    extra = links(rng, top, rng.randint(0, 4))
    extra += [[rng.randint(1, top) * rng.choice((1, -1))] for _ in range(rng.randint(1, 3))]
    return Index(clauses), extra


def test_propagation_refutes_the_unsatisfiable_horn_calls_before_set_up():
    rng = random.Random("horn-chains")
    outcomes, conflicting_roots, deep = set(), 0, 0
    for _ in range(1500):
        index, extra = horn_chain_case(rng)
        expected = reference_call(index, extra=extra)
        if expected is None:
            index.counts = NoCopy()
        assert satisfiable(index, extra=extra) == (expected is not None)
        outcomes.add(expected is None)
        conflicting_roots += index.root is None
        if index.root is not None and expected is None:
            assumed = {literal for clause in extra if len(clause) == 1 for literal in clause}
            deep += not any(-literal in index.root or -literal in assumed for literal in assumed)
    assert outcomes == {True, False}
    assert conflicting_roots > 10
    assert deep > 50  # conflicts that propagation has to derive


def test_refuted_call_does_no_dense_set_up():
    # 1 -> 2 -> 3 -> 4 in the index, 3 -> 5 -> 6 in extra clauses above its range
    index = Index([[-1, 2], [-2, 3], [-3, 4], [4, 1]])
    index.counts = NoCopy()
    chain = [[-3, 5], [-5, 6]]
    assert not satisfiable(index, extra=[*chain, [1], [-6]])
    assert not satisfiable(index, extra=[[1], [-4]])
    with pytest.raises(DenseSetUp):
        satisfiable(index, extra=[*chain, [1]])
    with pytest.raises(DenseSetUp):  # switched-off clauses keep the dense path
        satisfiable(index, off=[frozenset({-1, 2})], extra=[[1], [-4]])


def test_solve_is_asked_only_for_the_countermodel_and_never_for_a_refuted_call(monkeypatch):
    """Every call that reaches `solve` is one propagation does not refute,
    and only the countermodel of an Unsafe verdict is asked of it directly,
    not through `satisfiable`."""
    onto = load_ontology(SCENARIOS / "traffic.onto.json")
    store = load_store(SCENARIOS / "merge.kb.json", onto)
    grounding = GroundingConfig.default(onto, 3)
    engine, yes_no = sat.solve, sat.satisfiable
    asking, calls = [], []  # solve calls: whether satisfiable made it, and its arguments

    def recording(index, *, off=(), extra=()):
        extra = [frozenset(clause) for clause in extra]
        calls.append((bool(asking), index, off, extra))
        return engine(index, off=off, extra=extra)

    def recording_yes_no(*args, **kwargs):
        asking.append(True)
        try:
            return yes_no(*args, **kwargs)
        finally:
            asking.pop()

    monkeypatch.setattr(sat, "solve", recording)
    monkeypatch.setattr(sat, "satisfiable", recording_yes_no)
    # the shipped store does not yet entail collision-freedom, which the
    # Accepted rule establishes: its invariant attempts are all refuted
    for text, verdict in [*((text, "Unsafe") for text in UNSAFE), (COLLIDE_RULE, "Accepted")]:
        calls.clear()
        report = verify(parse_rule(text, onto), store, grounding, onto)
        assert report.verdict == verdict
        assert [asked for asked, *_ in calls].count(False) == (verdict == "Unsafe")
        for _, index, off, extra in calls:
            assert off or (index.root is not None and sat._propagate(index, extra) is not None)


# --- an index extended by more clauses against one built afresh ---

def index_parts(index):
    """What an index holds, as sets where its order does not matter."""
    literals = [lit for lit in range(-index.num_vars, index.num_vars + 1) if lit]
    return (
        set(index.clauses),
        index.num_vars,
        {lit: (index.counts[lit], {index.clauses[n] for n in index.occurs[lit]}) for lit in literals},
        set(index.pure),
        {index.clauses[n] for n in index.units},
        {index.clauses[n] for n in index.empty},
        index.root,
    )


def extension_case(rng):
    """A base clause list and the clauses that extend it: some of a random
    or Horn CNF's clauses, and links and units over up to 3 variables above
    its range, at times contradictory units or an empty clause."""
    if rng.random() < 0.5:
        clauses = messy_cnf(rng)
    else:
        clauses = horn_chain_case(rng)[0].clauses
    rng.shuffle(clauses)
    split = rng.randint(0, len(clauses))
    base, delta = clauses[:split], clauses[split:]
    top = max((abs(lit) for clause in clauses for lit in clause), default=0) + 3
    delta += links(rng, top, rng.randint(0, 3))
    units = [frozenset({rng.randint(1, top) * rng.choice((1, -1))}) for _ in range(rng.randint(0, 3))]
    if units and rng.random() < 0.2:
        units.append(frozenset({-next(iter(units[0]))}))
    delta += units
    if rng.random() < 0.05:
        delta.append(frozenset())
    if delta and rng.random() < 0.3:
        delta += rng.sample(delta, 1) + rng.sample(base, min(2, len(base)))  # clauses already there
    rng.shuffle(delta)
    return base, delta


def test_extended_index_equals_a_fresh_build():
    rng = random.Random("extended-index")
    seen = Counter()
    for _ in range(1500):
        base, delta = extension_case(rng)
        index = Index(base)
        before = (index_parts(index), list(index.clauses), [list(o) for o in index.occurs], list(index.sizes))
        extended = index.extended(delta)
        fresh = Index(base + delta)
        assert index_parts(extended) == index_parts(fresh)
        assert extended.clauses == fresh.clauses and extended.ids == fresh.ids
        assert (index_parts(index), list(index.clauses), [list(o) for o in index.occurs],
                list(index.sizes)) == before  # the base is unchanged
        top = extended.num_vars + rng.randint(0, 2)
        extra = [[rng.randint(1, top) * rng.choice((1, -1))] for _ in range(rng.randint(0, 2))]
        off = {clause for clause in extended.clauses if rng.random() < 0.2}
        for kwargs in ({}, {"extra": extra}, {"off": off, "extra": extra}):
            model = solve(extended, **kwargs)
            assert model == reference_call(fresh, **kwargs)
            seen["unsat"] += model is None
        seen["new variables"] += extended.num_vars > index.num_vars
        seen["root lost"] += index.root is not None and extended.root is None
        seen["root grew"] += extended.root is not None and len(extended.root) > len(index.root or ())
        seen["empty"] += bool(extended.empty)
    assert min(seen.values()) > 20, seen
