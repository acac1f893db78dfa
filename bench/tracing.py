"""Spans around the program's public entry points, recorded from outside.

The program has no tracing of its own.  `Tracer.install` rebinds each
entry point in the namespace of the module that calls it (for example
`ground` as bound in `rulesynth.verify`) to a wrapper that records a span:
name, start, end and parent.  Spans stay in memory until `write`.

Per-pass statistics are kept as the spans close: calls, inclusive time and
self time (duration minus the time covered by child spans) per span name,
plus counts read off arguments and results (ground atoms, clauses, SAT
answers, verdicts, cache hits).  The achievement query is issued 2^n times
per analysis, so its spans are folded into their parent as a count and a
total instead of being kept one by one.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

FOLDED = frozenset({"oracle.achieves"})


class OracleProbe:
    """Wraps an oracle and counts its backend calls per query kind; with a
    tracer it also records a span per call.

    Achievement queries are the 2^n hot path.  Untraced, they go straight
    to the inner oracle, so the probe adds no time to them, and `queries`
    leaves them out: the workloads take their number from the analysis
    report's `query_count` (the achievement cache's misses, which are the
    distinct backend queries)."""

    KINDS = ("generate", "equivalent", "necessity", "achieves", "translate")

    def __init__(self, inner, tracer: "Tracer | None" = None):
        self.inner = inner
        self.tracer = tracer
        self.calls: Counter[str] = Counter()
        if tracer is None:
            self.judge_subset_achieves = inner.judge_subset_achieves

    @property
    def queries(self) -> int:
        """Backend calls of every kind but `achieves`."""
        return sum(n for kind, n in self.calls.items() if kind != "achieves")

    def _call(self, kind: str, method: Callable, *args, **kwargs):
        self.calls[kind] += 1
        tracer = self.tracer
        if tracer is None:
            return method(*args, **kwargs)
        name = f"oracle.{kind}"
        folded = name in FOLDED
        if not folded:
            tracer.enter(name)
        start = perf_counter()
        try:
            return method(*args, **kwargs)
        except Exception:
            tracer.extra["oracle.failed"] += 1
            raise
        finally:
            if folded:
                tracer.leaf(name, perf_counter() - start)
            else:
                tracer.exit()

    def generate_causes(self, *args, **kwargs):
        return self._call("generate", self.inner.generate_causes, *args, **kwargs)

    def judge_equivalent(self, *args, **kwargs):
        return self._call("equivalent", self.inner.judge_equivalent, *args, **kwargs)

    def judge_individual_necessity(self, *args, **kwargs):
        return self._call("necessity", self.inner.judge_individual_necessity, *args, **kwargs)

    def judge_subset_achieves(self, *args, **kwargs):  # traced only; see __init__
        return self._call("achieves", self.inner.judge_subset_achieves, *args, **kwargs)

    def translate_to_fol(self, *args, **kwargs):
        return self._call("translate", self.inner.translate_to_fol, *args, **kwargs)


class PassStats:
    """What one pass of a workload did, by span name."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.child_calls: Counter[tuple[str, str]] = Counter()
        self.extra: Counter[str] = Counter()

    def close(self, name: str, parent: str | None, duration: float, self_time: float) -> None:
        self.calls[name] += 1
        self.inclusive[name] += duration
        self.self_time[name] += self_time
        if parent is not None:
            self.child_calls[(parent, name)] += 1


def _count_db(tracer: "Tracer", args, result) -> None:
    tracer.extra["grounding.atoms"] += len(result.atom_names)
    tracer.extra["grounding.clauses"] += len(result.clauses)


def _count_solve(tracer: "Tracer", args, result) -> None:
    tracer.extra["sat.clauses_in"] += len(args[0])
    tracer.extra["sat.sat"] += result is not None


def _count_verdict(tracer: "Tracer", args, result) -> None:
    tracer.extra[f"verify.verdict.{result.verdict}"] += 1


def _count_pairs(tracer: "Tracer", args, result) -> None:
    raw = len(args[0])
    tracer.extra["consolidate.pairs_judged"] += len(result.pair_log)
    tracer.extra["consolidate.pairs_total"] += raw * (raw - 1) // 2


def _count_save(tracer: "Tracer", args, result) -> None:
    tracer.extra["store.save_bytes"] += os.path.getsize(args[1])


def _count_analysis(tracer: "Tracer", args, result) -> None:
    tracer.extra["analysis.found"] += len(result.minimal_sufficient.sets) + len(result.minimal_necessary.sets)
    for judge in tracer.judges:  # created by this analyze call
        tracer.extra["oracle.cache_hits"] += judge.cache.hits
        tracer.extra["oracle.cache_misses"] += judge.cache.misses
    tracer.judges.clear()


# (calling module, name bound there, span name, counter hook).  Functions
# the benchmark calls itself are also rebound in their defining module,
# because the benchmark reaches them through that module's attributes.
ENTRY_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("rulesynth.cli", "load_ontology", "fol.load_ontology", None),
    ("rulesynth.cli", "load_store", "store.load_store", None),
    ("rulesynth.cli", "save_store", "store.save_store", _count_save),
    ("rulesynth.cli", "run_synthesize", "pipeline.run_synthesize", None),
    ("rulesynth.cli", "run_analyze", "pipeline.run_analyze", None),
    ("rulesynth.cli", "run_verify", "pipeline.run_verify", None),
    ("rulesynth.cli", "write_json_artifact", "pipeline.write_json_artifact", None),
    ("rulesynth.pipeline", "run_synthesize", "pipeline.run_synthesize", None),
    ("rulesynth.pipeline", "run_analyze", "pipeline.run_analyze", None),
    ("rulesynth.pipeline", "consolidate", "consolidate.consolidate", _count_pairs),
    ("rulesynth.pipeline", "parse_rule", "fol.parse_rule", None),
    ("rulesynth.pipeline", "analyze", "analysis.analyze", _count_analysis),
    ("rulesynth.pipeline", "verify", "verify.verify", _count_verdict),
    ("rulesynth.pipeline", "commit_verified_rule", "store.commit_verified_rule", None),
    ("rulesynth.store", "parse_rule", "fol.parse_rule", None),
    ("rulesynth.store", "commit_verified_rule", "store.commit_verified_rule", None),
    ("rulesynth.analysis", "evaluate_individual_necessity", "analysis.evaluate_individual_necessity", None),
    ("rulesynth.analysis", "minimal_necessary_search", "analysis.minimal_necessary_search", None),
    ("rulesynth.analysis", "minimal_sufficient_search", "analysis.minimal_sufficient_search", None),
    ("rulesynth.analysis", "minimal_transversals", "analysis.minimal_transversals", None),
    ("rulesynth.verify", "verify", "verify.verify", _count_verdict),
    ("rulesynth.verify", "validate_schema", "fol.validate_schema", None),
    ("rulesynth.verify", "check_consistency", "verify.check_consistency", None),
    ("rulesynth.verify", "check_entailment", "verify.check_entailment", None),
    ("rulesynth.verify", "check_invariants", "verify.check_invariants", None),
    ("rulesynth.verify", "ground", "grounding.ground", _count_db),
    ("rulesynth.verify", "rule_substitutions", "grounding.rule_substitutions", None),
    ("rulesynth.verify", "instantiate_rule", "grounding.instantiate_rule", None),
    ("rulesynth.verify", "append_comparison_axioms", "grounding.append_comparison_axioms", None),
    # verify calls `sat.solve` through the module attribute
    ("rulesynth.sat", "solve", "sat.solve", _count_solve),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, folded)
        self.passes: list[PassStats] = []
        self._stack: list[list] = []  # open spans: [id, name, start, child time, folded]
        self._next_id = 0
        self.judges: list[Any] = []  # achievement judges made since the last analyze
        self._saved: list[tuple[Any, str, Any]] = []

    # --- spans ---

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0, None])

    def exit(self) -> None:
        end = perf_counter()
        span_id, name, start, child, folded = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        duration = end - start
        if parent is not None:
            parent[3] += duration
        self.passes[-1].close(name, parent and parent[1], duration, duration - child)
        self.spans.append((span_id, parent and parent[0], name, start, end, folded))

    def leaf(self, name: str, duration: float) -> None:
        """A folded span: counted on its parent, not kept by itself."""
        parent = self._stack[-1]
        parent[3] += duration
        if parent[4] is None:
            parent[4] = {}
        count, total = parent[4].get(name, (0, 0.0))
        parent[4][name] = (count + 1, total + duration)
        self.passes[-1].close(name, parent[1], duration, duration)

    def begin_pass(self) -> None:
        self.passes.append(PassStats())
        self.enter("bench.pass")

    def end_pass(self) -> None:
        self.exit()

    @property
    def extra(self) -> Counter:
        return self.passes[-1].extra

    # --- rebinding entry points ---

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span, hook in ENTRY_POINTS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original, hook))
        analysis = sys.modules["rulesynth.analysis"]
        judge_class = analysis.CachedAchievementJudge

        def judge_factory(*args, **kwargs):
            judge = judge_class(*args, **kwargs)
            self.judges.append(judge)
            return judge

        self._saved.append((analysis, "CachedAchievementJudge", judge_class))
        analysis.CachedAchievementJudge = judge_factory

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[3] for span in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, folded in sorted(self.spans):
                record = {"id": span_id, "parent": parent, "name": name,
                          "start": start - origin, "end": end - origin}
                if folded:
                    record["folded"] = {k: {"calls": c, "s": s} for k, (c, s) in folded.items()}
                out.write(json.dumps(record) + "\n")


# --- per-layer metrics ---

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_self(layer: str) -> Callable[[PassStats], float]:
    return lambda p: sum(t for name, t in p.self_time.items() if name.split(".")[0] == layer)


def _metric_table() -> dict[str, tuple[str, tuple[str, ...], Callable[[PassStats], float]]]:
    """metric -> (unit, spans of which one must have run, reader of one pass)"""
    def calls(span):
        return lambda p: p.calls[span]

    def inclusive(span):
        return lambda p: p.inclusive[span]

    def extra(key):
        return lambda p: p.extra[key]

    table = {
        "grounding.ground_calls": ("count", ("grounding.ground",), calls("grounding.ground")),
        "grounding.ground_s": ("s", ("grounding.ground",), inclusive("grounding.ground")),
        "grounding.atoms": ("count", ("grounding.ground",), extra("grounding.atoms")),
        "grounding.clauses": ("count", ("grounding.ground",), extra("grounding.clauses")),
        "sat.solve_calls": ("count", ("sat.solve",), calls("sat.solve")),
        "sat.solve_s": ("s", ("sat.solve",), inclusive("sat.solve")),
        "sat.clauses_in": ("count", ("sat.solve",), extra("sat.clauses_in")),
        "sat.sat_ratio": ("ratio", ("sat.solve",), lambda p: _ratio(p.extra["sat.sat"], p.calls["sat.solve"])),
    }
    for stage in ("consistency", "entailment", "invariants"):
        span = f"verify.check_{stage}"
        table[f"verify.{stage}_calls"] = ("count", (span,), calls(span))
        table[f"verify.{stage}_s"] = ("s", (span,), inclusive(span))
    table["verify.core_shrink_grounds"] = (
        "count", ("verify.check_consistency",),
        lambda p: p.child_calls[("verify.check_consistency", "grounding.ground")]
        - p.calls["verify.check_consistency"],
    )
    for verdict in ("Accepted", "Malformed", "Inconsistent", "Redundant", "Unsafe"):
        key = f"verify.verdict.{verdict}"
        table[key] = ("count", ("verify.verify",), extra(key))
    for metric, span in (
        ("individual_s", "analysis.evaluate_individual_necessity"),
        ("necessary_search_s", "analysis.minimal_necessary_search"),
        ("sufficient_search_s", "analysis.minimal_sufficient_search"),
        ("transversals_s", "analysis.minimal_transversals"),
    ):
        table[f"analysis.{metric}"] = ("s", (span,), inclusive(span))
    table["analysis.judge_calls"] = (
        "count", ("analysis.analyze",),
        lambda p: p.extra["oracle.cache_hits"] + p.extra["oracle.cache_misses"],
    )
    table["analysis.useful_ratio"] = (
        "ratio", ("analysis.analyze",),
        lambda p: _ratio(p.extra["analysis.found"], p.extra["oracle.cache_misses"]),
    )
    kinds = tuple(f"oracle.{k}" for k in OracleProbe.KINDS)
    for span in kinds:
        table[f"{span}.calls"] = ("count", (span,), calls(span))
    table["oracle.busy_s"] = ("s", kinds, lambda p: sum(p.inclusive[k] for k in kinds))
    table["oracle.cache_hits"] = ("count", ("analysis.analyze",), extra("oracle.cache_hits"))
    table["oracle.cache_misses"] = ("count", ("analysis.analyze",), extra("oracle.cache_misses"))
    table["oracle.cache_hit_ratio"] = (
        "ratio", ("analysis.analyze",),
        lambda p: _ratio(p.extra["oracle.cache_hits"],
                         p.extra["oracle.cache_hits"] + p.extra["oracle.cache_misses"]),
    )
    table["oracle.failed"] = ("count", kinds, extra("oracle.failed"))
    table["consolidate.s"] = ("s", ("consolidate.consolidate",), inclusive("consolidate.consolidate"))
    table["consolidate.pairs_judged"] = ("count", ("consolidate.consolidate",), extra("consolidate.pairs_judged"))
    table["consolidate.judged_ratio"] = (
        "ratio", ("consolidate.consolidate",),
        lambda p: _ratio(p.extra["consolidate.pairs_judged"], p.extra["consolidate.pairs_total"]),
    )
    table["fol.parse_calls"] = ("count", ("fol.parse_rule",), calls("fol.parse_rule"))
    table["fol.parse_s"] = ("s", ("fol.parse_rule",), inclusive("fol.parse_rule"))
    table["fol.schema_s"] = ("s", ("fol.validate_schema",), inclusive("fol.validate_schema"))
    table["store.load_s"] = ("s", ("store.load_store",), inclusive("store.load_store"))
    table["store.save_s"] = ("s", ("store.save_store",), inclusive("store.save_store"))
    table["store.save_bytes"] = ("bytes", ("store.save_store",), extra("store.save_bytes"))
    table["store.commits"] = ("count", ("store.commit_verified_rule",), calls("store.commit_verified_rule"))
    for stage in ("synthesize", "analyze", "verify"):
        span = f"pipeline.run_{stage}"
        table[f"pipeline.{stage}_s"] = ("s", (span,), inclusive(span))
    table["pipeline.artifact_write_s"] = (
        "s", ("pipeline.write_json_artifact",), inclusive("pipeline.write_json_artifact"))
    # sat.solve_s and oracle.busy_s already are those layers' self time
    for layer in ("grounding", "verify", "analysis", "consolidate", "fol", "store", "pipeline"):
        spans = tuple(name for _m, _a, name, _h in ENTRY_POINTS if name.startswith(layer + "."))
        table[f"{layer}.self_s"] = ("s", spans, _layer_self(layer))
    table["other.self_s"] = ("s", ("bench.op",), lambda p: p.self_time["bench.op"])
    return table


METRICS = _metric_table()


def layer_metrics(passes: list[PassStats]) -> tuple[dict[str, dict[str, Any]], list[str]]:
    """Counts from the first pass (they repeat exactly for a seed); times
    and ratios as the median over passes.  A metric whose entry point saw
    no call in any pass is unmeasured: it reads 0 in the metrics, which
    hold only a value and a unit each, and its name is in the returned
    list."""
    seen: Counter[str] = Counter()
    for p in passes:
        seen.update(p.calls)
    out, unmeasured = {}, []
    for name, (unit, spans, read) in METRICS.items():
        if not any(seen[s] for s in spans):
            out[name] = {"value": 0, "unit": unit}
            unmeasured.append(name)
        elif unit == "count":
            out[name] = {"value": read(passes[0]), "unit": unit}
        else:
            out[name] = {"value": statistics.median(read(p) for p in passes), "unit": unit}
    return out, unmeasured
