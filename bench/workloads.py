"""The benchmark's workloads: their inputs, one pass each, and the checks
of every output against an answer the program did not compute.

A workload is built once per set-up from the freshly imported program
(`rs`, one attribute per `rulesynth` module) and then runs passes in a
closed loop.  Every operation is timed from the call to its result;
an exception is counted by type and the run goes on.  Work a pass does
outside its operations (fixture copies, synthesis before the verify
suite, commits) is not timed; if it raises, the runner counts the pass
as one failed operation.  Untraced, the reference loop
(`reference_seconds`) is timed before the first operation of a pass and
before any later one when REFERENCE_EVERY_S have passed since its last
timing, and again after an operation once it is due; its samples show how
fast the host ran the pass.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import itertools
import json
import random
import shutil
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import synthetic
from tracing import OracleProbe

DATA = Path(__file__).resolve().parent / "data"
FAILED = object()
REFERENCE_ROUNDS = 20_000
REFERENCE_EVERY_S = 0.25
_last_reference = float("-inf")


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop that uses none of the program.

    It does what the program does most (build small tuples and frozensets,
    look them up in dicts, format strings), so a host that runs the
    interpreter slower slows it too, by somewhat more than the workloads
    (about 1.7 against 1.5 times).  A change to the program leaves it as
    it is.
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection of the program's objects is not host speed
    start = perf_counter()
    table: dict[frozenset, int] = {}
    names: list[str] = []
    for i in range(REFERENCE_ROUNDS):
        key = frozenset((i % 13, i % 7, i % 5))
        value = table.setdefault(key, len(table))
        names.append(f"p{value}({i % 3})")
        if len(names) > 64:
            names.sort()
            del names[:]
    elapsed = perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def sample_reference(samples: list[float]) -> None:
    """Time the reference loop into a pass's `samples` if it is due."""
    global _last_reference
    if not samples or perf_counter() - _last_reference >= REFERENCE_EVERY_S:
        samples.append(reference_seconds())
        _last_reference = perf_counter()


@dataclass(frozen=True)
class Size:
    runall_domain: int  # runall-d20; runall-shipped uses each config's own
    suite_domain: int
    causes: int
    raw: int
    templates: int  # goals per cause-search pass
    cycles: int  # distinct goals generated per template


SIZES = {
    "full": Size(runall_domain=20, suite_domain=40, causes=16, raw=24, templates=4, cycles=8),
    # for the benchmark's own tests: same code paths, a fraction of a second
    "tiny": Size(runall_domain=3, suite_domain=3, causes=6, raw=9, templates=2, cycles=2),
}


@dataclass
class PassResult:
    op_seconds: list[float | None] = field(default_factory=list)  # None: the operation raised
    ref_seconds: list[float] = field(default_factory=list)  # reference loop samples, untraced only
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # exception type -> count
    wrong: list[str] = field(default_factory=list)  # one entry per wrong operation
    queries: int = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values()) + len(self.wrong)

    def op(self, tracer, fn, *args):
        """Run and time one operation; FAILED when it raised."""
        self.attempted += 1
        if tracer is None:
            sample_reference(self.ref_seconds)
        else:
            tracer.enter("bench.op")
        start = perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # RecursionError and MemoryError included
            self.failures[type(exc).__name__] += 1
            self.op_seconds.append(None)
            return FAILED
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.exit()
            else:  # an operation longer than REFERENCE_EVERY_S gets a sample at each end
                sample_reference(self.ref_seconds)
        self.op_seconds.append(elapsed)
        return value

    def expect(self, label: str, got, want) -> bool:
        if got == want:
            return True
        self.wrong.append(f"{label}: got {got!r}, expected {want!r}")
        return False


class RunAll:
    """`rulesynth run-all` on scenario 1 then scenario 2, one operation
    each, in one fresh copy of the fixtures per pass.  The inputs are the
    shipped fixtures; the seed does not change them.  With `shipped` the
    run uses each config's own domain size, as a user's run-all does."""

    def __init__(self, rs, root: Path, seed: int, size: Size, workdir: Path, shipped: bool = False):
        self.rs = rs
        self.fixtures = {p.name: p.read_bytes() for p in sorted((root / "scenarios").glob("*.json"))}
        self.pins = json.loads((DATA / "runall_pins.json").read_text(encoding="utf-8"))["scenarios"]
        self.domain_flag = [] if shipped else ["--domain-size", str(size.runall_domain)]
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        self.probes: list[OracleProbe] = []
        self.tracer = None
        build_oracle = rs.cli.build_oracle

        def probed(config):
            probe = OracleProbe(build_oracle(config), self.tracer)
            self.probes.append(probe)
            return probe

        rs.cli.build_oracle = probed

    def run_pass(self, index: int, tracer) -> PassResult:
        self.tracer = tracer
        work = self.workdir / f"pass{index}"
        work.mkdir()
        try:
            for name, data in self.fixtures.items():
                (work / name).write_bytes(data)
            result = PassResult()
            for pin in self.pins:
                argv = ["run-all", "--config", str(work / pin["config"]), *self.domain_flag]
                with redirect_stdout(io.StringIO()):
                    code = result.op(tracer, self.rs.cli.main, argv)
                if code is not FAILED and result.expect(f"{pin['goal_id']} exit code", code, 0):
                    self._check(result, pin, work)
            result.queries += sum(p.queries for p in self.probes)
            return result
        finally:
            self.probes.clear()
            shutil.rmtree(work)

    def _check(self, result: PassResult, pin: dict, work: Path) -> None:
        goal = pin["goal_id"]
        paths = [work / "out" / f"{goal}.{stage}.json" for stage in ("synthesis", "analysis", "verification")]
        synthesis, analysis, verification = (json.loads(p.read_text(encoding="utf-8")) for p in paths)
        result.queries += analysis["query_count"]  # achievement queries, which the probe does not count
        got = {
            "raw_causes": len(synthesis["raw_causes"]),
            "causes": len(synthesis["causes"]),
            "individually_necessary": [v["cause_id"] for v in analysis["individual_necessity"] if v["necessary"]],
            "minimal_necessary": analysis["minimal_necessary"],
            "minimal_sufficient": analysis["minimal_sufficient"],
            "verdicts": [r["verdict"] for r in verification["reports"]],
        }
        if result.expect(goal, got, {key: pin[key] for key in got}):
            digest = hashlib.sha256()
            for path in [work / "merge.kb.json", *paths]:
                digest.update(path.read_bytes())
            first = self.digests.setdefault(goal, digest.hexdigest())
            result.expect(f"{goal} artifact bytes", digest.hexdigest(), first)


class VerifySuite:
    """The curated criterion-6 suite verified at a larger domain.  The
    candidates and verdicts are fixed data; the seed does not change them."""

    def __init__(self, rs, root: Path, seed: int, size: Size, workdir: Path):
        self.rs = rs
        suite = json.loads((DATA / "verify_suite.json").read_text(encoding="utf-8"))
        self.config = rs.pipeline.ScenarioConfig.from_file(root / "scenarios" / "scenario1.config.json")
        self.onto = rs.fol.load_ontology(self.config.ontology_path)
        self.store = rs.store.load_store(self.config.store_path, self.onto)
        self.spec = rs.oracle.DeterministicOracleSpec.from_file(self.config.oracle_spec_path)
        self.grounding = rs.grounding.GroundingConfig.default(self.onto, size.suite_domain)
        self.candidates = [(self._candidate(entry), entry) for entry in suite["candidates"]]

    def _candidate(self, entry: dict):
        fol = self.rs.fol
        if "construct" in entry:  # not expressible in the surface syntax
            shape = entry["construct"]

            def literals(atoms):
                return tuple(
                    fol.Literal(False, fol.Atom(pred, tuple(fol.var(a) for a in args))) for pred, args in atoms
                )

            return fol.Rule(tuple(fol.var(v) for v in shape["quantified"]), literals(shape["head"]),
                            literals(shape["body"]))
        return fol.parse_rule(entry["rule"], None if entry.get("schema_free") else self.onto)

    def run_pass(self, index: int, tracer) -> PassResult:
        result = PassResult()
        probe = OracleProbe(self.rs.oracle.DeterministicOracle(self.spec), tracer)
        store, synthesis = self.rs.pipeline.run_synthesize(self.store, self.onto, probe, self.config)
        result.queries = probe.queries
        for position, (candidate, entry) in enumerate(self.candidates, start=1):
            theory = store.theory_rules()
            report = result.op(tracer, self.rs.verify.verify, candidate, store, self.grounding, self.onto)
            if report is FAILED:
                continue
            self._check(result, f"candidate {position}", entry, report, theory, candidate, store)
            store = store.with_report(report.to_json_dict())
            if report.verdict == "Accepted" and entry.get("trace_cause"):
                store, _ = self.rs.store.commit_verified_rule(
                    store, candidate, (entry["trace_cause"], synthesis.goal.id), report.to_json_dict()
                )
        return result

    def _check(self, result, label, entry, report, theory, candidate, store) -> None:
        if not result.expect(f"{label} verdict", report.verdict, entry["expected"]):
            return
        if entry["expected"] == "Inconsistent":
            result.expect(f"{label} conflict core", list(report.consistency.core), entry["core"])
        if entry["expected"] == "Unsafe":
            if not result.expect(f"{label} violated invariant", report.invariants.violated_id, entry["violated"]):
                return
            invariant = next(i.rule for i in store.invariants if i.id == entry["violated"])
            problem = self._countermodel_problem(report.invariants.countermodel, [*theory, candidate], invariant)
            result.expect(f"{label} countermodel", problem, None)

    def _countermodel_problem(self, countermodel, rules, invariant) -> str | None:
        """Evaluate the ground clauses directly on the countermodel: every
        instance of every rule must hold, and some instance of the
        invariant must fail.  No solver is involved."""
        model = {}
        for signed in countermodel:
            negated = signed.startswith("not ")
            model[signed[4:] if negated else signed] = not negated
        for rule in rules:
            for substitution in self._substitutions(rule):
                if self._holds(rule, substitution, model) is not True:
                    return f"{rule.id} fails or is undefined under {substitution}"
        if not any(self._holds(invariant, s, model) is False for s in self._substitutions(invariant)):
            return "no instance of the invariant is falsified"
        return None

    def _substitutions(self, rule):
        names = [t.name for t in rule.quantified_vars]
        sorts = self.rs.fol.variable_sorts(rule, self.onto)
        pools = [self.grounding.domain_constants[sorts[n]] for n in names]
        return [dict(zip(names, choice)) for choice in itertools.product(*pools)]

    def _holds(self, rule, substitution, model) -> bool | None:
        """Truth of one ground instance; None when the model omits an atom."""
        fol = self.rs.fol

        def ground(term):
            return fol.const(substitution[term.name]) if term.kind == "variable" else term

        def value(lit):
            inner = lit.inner
            if isinstance(inner, fol.Atom):
                atom = fol.Atom(inner.predicate, tuple(ground(t) for t in inner.args))
            else:
                atom = fol.Comparison(inner.attribute, ground(inner.subject), inner.op, inner.value)
            truth = model.get(fol.render_literal(fol.Literal(False, atom)))
            return None if truth is None else truth != lit.negated

        body = [value(lit) for lit in rule.body]
        head = [value(lit) for lit in rule.head]
        if None in body or None in head:
            return None
        return not all(body) or all(head)


class CauseSearch:
    """`run_synthesize` then `run_analyze` on seeded synthetic goals, one
    operation per goal.  A pass runs one goal per family template, so every
    run covers whole cycles of the same shapes."""

    def __init__(self, rs, root: Path, seed: int, size: Size, workdir: Path):
        self.rs = rs
        scenarios = root / "scenarios"
        self.onto = rs.fol.load_ontology(scenarios / "traffic.onto.json")
        self.store = rs.store.load_store(scenarios / "merge.kb.json", self.onto)
        rng = random.Random(seed)
        goal_id = f"g{len(self.store.goals) + 1}"  # the id a new goal receives
        predicates = sorted(name for name, decl in self.onto.predicates.items() if decl.arity == 1)
        principle = self.store.principles[0].id
        self.templates = synthetic.family_templates(size.causes, size.templates)
        self.goals = []
        for k in range(size.templates * size.cycles):
            goal = synthetic.make_goal(rng, self.templates[k % size.templates], f"{seed}-{k + 1}", goal_id,
                                       size.causes, size.raw, predicates, principle)
            oracle = rs.oracle.DeterministicOracle(rs.oracle.DeterministicOracleSpec.from_json(goal.spec))
            config = rs.pipeline.ScenarioConfig(
                goal_text=goal.text,
                store_path=scenarios / "merge.kb.json",
                ontology_path=scenarios / "traffic.onto.json",
                oracle_mode="deterministic",
                count_hint=len(goal.raw),
            )
            self.goals.append((goal, oracle, config))

    def _search(self, oracle, config):
        store, synthesis = self.rs.pipeline.run_synthesize(self.store, self.onto, oracle, config)
        _store, report = self.rs.pipeline.run_analyze(store, oracle, config)
        return synthesis, report

    def run_pass(self, index: int, tracer) -> PassResult:
        result = PassResult()
        cycle = len(self.templates)
        for k in range(index * cycle, (index + 1) * cycle):
            goal, oracle, config = self.goals[k % len(self.goals)]
            probe = OracleProbe(oracle, tracer)
            outcome = result.op(tracer, self._search, probe, config)
            result.queries += probe.queries
            if outcome is not FAILED:
                result.queries += outcome[1].query_count  # achievement queries
                self._check(result, goal, *outcome)
        return result

    @staticmethod
    def _check(result: PassResult, goal, synthesis, report) -> None:
        classes = {c.id: (c.text, tuple(c.merged_from)) for c in synthesis.causes}

        def family(sets):
            return frozenset(frozenset(s) for s in sets)

        for what, got, want in (
            ("classes", classes, goal.classes),
            ("sufficient", family(report.minimal_sufficient.to_json()), goal.sufficient),
            ("necessary", family(report.minimal_necessary.to_json()), goal.necessary),
        ):
            if not result.expect(f"{goal.text} {what}", got, want):
                break


WORKLOADS = {
    "runall-shipped": functools.partial(RunAll, shipped=True),
    "runall-d20": RunAll,
    "verify-suite-d40": VerifySuite,
    "cause-search-n16": CauseSearch,
}
