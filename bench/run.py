"""rulesynth benchmark runner.

One workload per process, one client, closed loop: a pass starts when the
previous one has returned.  Run from the repository root:

    python3 bench/run.py --workload cause-search-n16 --seed 1 --trace 0
    python3 bench/run.py --all --seed 1     # every workload, summary table

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, their times scaled by
a reference loop (see REFERENCE_NOMINAL_S); with `--trace 1` they
are the per-layer ones, measured in a traced second half of the run (the
first half runs untraced, so the tracing overhead is reported too) and
the spans are written to `.bench_out/`.  `--all` exits 1 when any
workload fails or gives a wrong answer.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer, layer_metrics
from workloads import SIZES, WORKLOADS, PassResult, reference_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
# The reference loop's usual time on an Intel Xeon host (2 vCPUs,
# Python 3.11).  Times are scaled by REFERENCE_NOMINAL_S / r, with r the mean
# reference time over the same stretch (the set-ups, or one pass): the
# same work then reads about the same when the whole host runs slower or
# faster for a while.  The mean, not the median: the host flips between
# speeds within seconds, and the mean follows the share of slow time as
# the operation times do.
REFERENCE_NOMINAL_S = 0.0137
MODULES = ("cli", "pipeline", "analysis", "consolidate", "verify", "grounding", "sat", "store", "oracle", "fol")


def load_program() -> SimpleNamespace:
    """Import rulesynth afresh from this checkout's sources.

    `rulesynth.verify` on the package is the re-exported function, so the
    modules are taken from sys.modules.
    """
    for name in [m for m in sys.modules if m.partition(".")[0] == "rulesynth"]:
        del sys.modules[name]
    package = importlib.import_module("rulesynth")
    if Path(package.__file__).resolve().parent != SRC / "rulesynth":
        raise ImportError(f"rulesynth imported from {package.__file__}, not from {SRC}")
    importlib.import_module("rulesynth.cli")
    return SimpleNamespace(**{name: sys.modules[f"rulesynth.{name}"] for name in MODULES})


def set_up(args, workdir: Path) -> tuple[float, float, object]:
    """Import the program afresh and build the workload's inputs, timed,
    after one timing of the reference loop."""
    gc.collect()  # garbage of the previous import is not set-up work
    reference = reference_seconds()
    start = perf_counter()
    rs = load_program()
    workload = WORKLOADS[args.workload](rs, ROOT, args.seed, SIZES[args.size], workdir)
    return perf_counter() - start, reference, workload


def run_passes(workload, seconds: float, tracer=None) -> list:
    """Passes until `seconds` have elapsed; a pass is never cut short."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        if tracer is not None:
            tracer.begin_pass()
        try:
            passes.append(workload.run_pass(len(passes), tracer))
        except Exception as exc:  # outside any timed operation
            passes.append(PassResult(attempted=1, failures=Counter({type(exc).__name__: 1})))
        finally:
            if tracer is not None:
                tracer.end_pass()
    return passes


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def calibration(references: list[float]) -> float:
    return REFERENCE_NOMINAL_S / statistics.fmean(references)


def calibrated(result: PassResult) -> list[float | None]:
    scale = calibration(result.ref_seconds)
    return [t and t * scale for t in result.op_seconds]


def slot_times(passes: list, times=calibrated) -> list[float]:
    """Every pass repeats the same operations in the same order (the same
    scenario, candidate or family template), so each operation slot's time
    is its median over the run's passes; the percentiles are taken over
    the slots.  This keeps a slow stretch of one run from moving them."""
    slots = [
        statistics.median(t for t in column if t is not None)
        for column in zip(*(times(p) for p in passes if p.op_seconds))  # skip passes that raised
        if any(t is not None for t in column)
    ]
    if not slots:
        raise SystemExit("no operation succeeded; nothing to report")
    return slots


def wall(result: PassResult) -> list[float | None]:
    return result.op_seconds


def end_to_end(setup_times: list[float], setup_references: list[float], passes: list) -> dict:
    """The run's metrics, times calibrated."""
    times = slot_times(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": (statistics.median(setup_times) * calibration(setup_references), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (percentile(times, 90), "s"),
        "oracle_queries": (passes[0].queries, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def traced(workload, seconds: float, name: str, seed: int) -> tuple[dict, list, list[str]]:
    untraced = run_passes(workload, seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        passes = run_passes(workload, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl")
    metrics, unmeasured = layer_metrics(tracer.passes)
    with_tracing = statistics.median(slot_times(passes, wall))
    without = statistics.median(slot_times(untraced, wall))
    # both halves start from pass 0, so the same operation is paired
    extra = statistics.median(
        t - u
        for pu, pt in zip(untraced, passes)
        for u, t in zip(pu.op_seconds, pt.op_seconds)
        if t is not None and u is not None
    )
    metrics["trace.op_s.p50"] = {"value": with_tracing, "unit": "s"}
    metrics["trace.untraced_op_s.p50"] = {"value": without, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": extra, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": extra / without, "unit": "ratio"}
    references = [r for p in untraced for r in p.ref_seconds]
    metrics["host.reference_s"] = {"value": statistics.fmean(references), "unit": "s"}
    return metrics, untraced + passes, unmeasured


def run_workload(args) -> int:
    if not (SRC / "rulesynth" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"error: no rulesynth sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        setup_times, references = [], []
        for _ in range(SETUP_REPEATS):
            seconds, reference, workload = set_up(args, workdir)
            setup_times.append(seconds)
            references.append(reference)
        walls, unmeasured = None, []
        if args.trace:
            metrics, passes, unmeasured = traced(workload, args.seconds, args.workload, args.seed)
        else:
            passes = run_passes(workload, args.seconds)
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end(setup_times, references, passes).items()}
            in_passes = [r for p in passes for r in p.ref_seconds]
            walls = (f"  wall times: setup_s {statistics.median(setup_times):.6g} s, op_s.p50 "
                    f"{statistics.median(slot_times(passes, wall)):.6g} s; reference loop "
                    f"{statistics.fmean(references):.6g} s in set-up, "
                    f"{statistics.fmean(in_passes):.6g} s in passes (mean of {len(in_passes)})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    failures = sum((p.failures for p in passes), Counter())
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {failed} failed")
    if walls:
        print(walls)
    for name, metric in metrics.items():
        shown = "unmeasured" if name in unmeasured else f"{metric['value']:.6g}"
        print(f"  {name:34} {shown:>14} {metric['unit']}")
    if unmeasured:
        print(f"  unmeasured (no call, reported as 0): {' '.join(unmeasured)}")
    print(f"  failures by type: {dict(failures) or 'none'}")
    for line in wrong[:10]:
        print(f"  WRONG {line}")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints every metric and fails on
    any failed operation or wrong answer."""
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    status = 0
    for name in workloads:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"  {name}: exit code {done.returncode}\n{done.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"  {'fail_ratio':34} {result['failed'] / result['attempted']:>14.6g} ratio")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload and print a summary")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
