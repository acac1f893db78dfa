"""The benchmark's own tests, on tiny inputs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import synthetic  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def results():
    """Two tiny runs with one seed per workload and trace mode."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            runs = []
            for _ in range(2):
                done = run_bench(workload, trace)
                assert done.returncode == 0, done.stderr
                runs.append(json.loads(done.stdout.splitlines()[-1]))
            out[workload, trace] = runs
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(results, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = results[workload, trace][0]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert all(set(v) == {"value", "unit"} for v in result["metrics"].values())
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_one_seed(results, workload):
    first, second = results[workload, 0]
    assert first["metrics"]["oracle_queries"] == second["metrics"]["oracle_queries"]
    first, second = results[workload, 1]
    counts = ["grounding.ground_calls", "sat.solve_calls",
              *(f"oracle.{kind}.calls" for kind in ("generate", "equivalent", "necessity", "achieves", "translate"))]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_query_count_matches_traced_calls(results, workload):
    """Untraced, achievement queries are read off the analysis reports, not
    counted by the probe; both ways must give the same total."""
    untraced = results[workload, 0][0]["metrics"]["oracle_queries"]["value"]
    traced = results[workload, 1][0]["metrics"]
    kinds = ("generate", "equivalent", "necessity", "achieves", "translate")
    assert untraced == sum(traced[f"oracle.{kind}.calls"]["value"] for kind in kinds)


def test_layers_without_calls_are_unmeasured(results):
    done = run_bench("cause-search-n16", 1)
    assert done.returncode == 0, done.stderr
    [line] = [line for line in done.stdout.splitlines() if line.strip().startswith("unmeasured")]
    unmeasured = set(line.partition(":")[2].split())
    assert {"grounding.ground_s", "sat.solve_calls"} <= unmeasured
    assert "analysis.necessary_search_s" not in unmeasured
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    assert metrics["grounding.ground_s"]["value"] == 0
    assert metrics["oracle.achieves.calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_reference_transversals_match_brute_force():
    rng = random.Random(5)
    universe = range(7)
    for _ in range(200):
        family = [frozenset(rng.sample(universe, rng.randint(1, 4))) for _ in range(rng.randint(0, 4))]
        hitting = [frozenset(c) for k in range(8) for c in combinations(universe, k)
                   if all(set(c) & member for member in family)]
        minimal = {h for h in hitting if not any(other < h for other in hitting)}
        assert synthetic.minimal_transversals(family) == minimal


def test_countermodel_check_rejects_a_tampered_model():
    sys.path.insert(0, str(ROOT / "src"))
    import run
    from workloads import SIZES, VerifySuite

    suite = VerifySuite(run.load_program(), ROOT, 7, SIZES["tiny"], ROOT)
    store = suite.store
    candidate, entry = next((c, e) for c, e in suite.candidates if e["expected"] == "Unsafe")
    report = suite.rs.verify.verify(candidate, store, suite.grounding, suite.onto)
    invariant = next(i.rule for i in store.invariants if i.id == entry["violated"])
    rules = [*store.theory_rules(), candidate]
    model = list(report.invariants.countermodel)
    assert suite._countermodel_problem(model, rules, invariant) is None
    for position, signed in enumerate(model):
        flipped = signed[4:] if signed.startswith("not ") else f"not {signed}"
        tampered = model[:position] + [flipped] + model[position + 1:]
        if suite._countermodel_problem(tampered, rules, invariant) is not None:
            return
    pytest.fail("no single flipped atom was caught")
