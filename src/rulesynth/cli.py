"""Command-line front end.

Subcommands mirror the pipeline stages (synthesize, analyze, verify) plus
a run-all composite.  Exit codes:

  0  success
  2  configuration error (bad arguments, bad config or grounding
     settings, an ontology with no sorts to ground over for verify and
     run-all, a grounding pool that repeats a constant, such as `v11`
     for sorts `v` and `v1` at --domain-size 11, missing file, unknown
     goal/rule, a cause search, pruned or --brute-force, over more
     causes than analysis.BRUTE_FORCE_LIMIT, a --record path that is a
     directory or whose directory does not exist)
  3  oracle error (backend unavailable, malformed answer, malformed
     oracle spec or transcript, missing transcript key)
  4  translation failure (names the cause id)
  5  duality mismatch under --strict-monotone
  6  verification found an Inconsistent or Unsafe rule

All artifacts are JSON with sorted keys; with a deterministic or replay
oracle, repeated runs from the same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import AnalysisReport, UniverseTooLarge
from .fol import OntologyError, load_ontology
from .grounding import GroundingError
from .oracle import MalformedResponse, OracleUnavailable, TranscriptOracle, UntranslatableCause
from .pipeline import (
    ConfigError,
    ScenarioConfig,
    build_oracle,
    run_analyze,
    run_synthesize,
    run_verify,
    write_json_artifact,
)
from .store import StoreFormatError, StoreIntegrityError, load_store, save_store
from .verify import VerificationReport

_ORACLE_FLAGS = {"det": "deterministic", "llm": "llm", "replay": "replay"}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache  # one parser per process; parsing leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulesynth",
        description="Synthesize causal rules from goals and verify them against a theory store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synthesize", "generate, consolidate, and translate causes for the goal"),
        ("analyze", "search minimal necessary and sufficient cause sets"),
        ("verify", "run staged verification and commit accepted rules"),
        ("run-all", "synthesize, analyze, and verify in one pass"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="scenario config JSON")
        cmd.add_argument("--oracle", choices=sorted(_ORACLE_FLAGS), help="override oracle mode")
        cmd.add_argument("--record", metavar="TRANSCRIPT", help="record oracle answers to a transcript file")
        cmd.add_argument("--domain-size", type=_positive_int, metavar="N", help="grounding constants per sort")
        cmd.add_argument("--out", metavar="DIR", help="artifact output directory")
        if name in ("analyze", "run-all"):
            cmd.add_argument("--brute-force", action="store_true", help="exhaustive subset search")
            cmd.add_argument(
                "--strict-monotone",
                action="store_true",
                help="fail (exit 5) when duality between the set families breaks",
            )
        if name == "verify":
            group = cmd.add_mutually_exclusive_group(required=True)
            group.add_argument("--rules", help="comma-separated rule ids to verify")
            group.add_argument(
                "--all-unverified", action="store_true", help="verify every unverified cause rule of the goal"
            )
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    config = ScenarioConfig.from_file(args.config)
    if args.oracle:
        config = replace(config, oracle_mode=_ORACLE_FLAGS[args.oracle])
    if args.domain_size is not None:
        config = replace(config, domain_size=args.domain_size)
    if args.out:
        config = replace(config, out_dir=Path(args.out))
    for label, path in (("store", config.store_path), ("ontology", config.ontology_path)):
        if not path.exists():
            raise ConfigError(f"{label} path does not exist: {path}")
    return config


def _family_lines(report: AnalysisReport) -> list[str]:
    def fmt(sets: list[list[str]]) -> str:
        return " ".join("{" + ", ".join(s) + "}" for s in sets) or "(none)"

    necessary = [v.cause_id for v in report.individual_necessity if v.necessary]
    lines = [
        f"analysis of {report.goal_id} ({report.query_count} subset queries, {report.search_method})",
        f"  causes: {', '.join(report.cause_ids)}",
        f"  individually necessary: {', '.join(necessary) or '(none)'}",
        f"  minimal necessary sets: {fmt(report.minimal_necessary.to_json())}",
        f"  minimal sufficient sets: {fmt(report.minimal_sufficient.to_json())}",
        f"  structurally necessary: {', '.join(report.structurally_necessary) or '(none)'}",
        "  necessary-and-sufficient: "
        + (" or ".join("(" + " and ".join(s) + ")" for s in report.necessary_and_sufficient) or "(unachievable)"),
        f"  duality check: {'ok' if report.duality_ok else 'MISMATCH'}",
    ]
    if report.effect_unachievable:
        lines.append("  effect is unachievable from the available causes")
    for violation in report.monotonicity_violations:
        lines.append(f"  monotonicity violation: {violation.kind}")
    return lines


def _verdict_table(reports: list[VerificationReport]) -> list[str]:
    lines = [f"{'rule':14} {'verdict':13} detail"]
    for report in reports:
        detail = ""
        if report.verdict == "Malformed":
            detail = "; ".join(report.schema_violations)
        elif report.verdict == "Inconsistent" and report.consistency:
            detail = "conflict core: " + (", ".join(report.consistency.core) or "(candidate alone)")
        elif report.verdict == "Unsafe" and report.invariants:
            detail = f"violates {report.invariants.violated_id}"
        elif report.verdict == "Accepted":
            detail = "committed"
        lines.append(f"{report.rule_id:14} {report.verdict:13} {detail}")
    return lines


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the help
        return 0 if exc.code is None else int(exc.code)
    try:
        return _run(args)
    except (ConfigError, GroundingError, StoreFormatError, StoreIntegrityError, OntologyError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UniverseTooLarge as exc:
        search = "--brute-force" if getattr(args, "brute_force", False) else "cause search"
        print(f"config error: {search} refused: {exc}", file=sys.stderr)
        return 2
    except UntranslatableCause as exc:
        print(f"translation failure: {exc}", file=sys.stderr)
        return 4
    except (OracleUnavailable, MalformedResponse) as exc:
        print(f"oracle error: {exc}", file=sys.stderr)
        return 3


def _run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    onto = load_ontology(config.ontology_path)
    store = load_store(config.store_path, onto)
    if args.command in ("verify", "run-all"):
        config.grounding_config(onto)  # bad grounding settings end the run before any oracle call
    if args.record:  # and so does a transcript path that cannot be written
        record = Path(args.record).resolve()
        if record.is_dir():
            raise ConfigError(f"--record path is a directory: {args.record}")
        if not record.parent.is_dir():
            raise ConfigError(f"--record path's directory does not exist: {args.record}")
    oracle = build_oracle(config)
    recorder = TranscriptOracle(live=oracle) if args.record else None
    oracle = recorder or oracle

    exit_code = 0
    try:
        if args.command in ("synthesize", "run-all"):
            store, synthesis = run_synthesize(store, onto, oracle, config)
            write_json_artifact(
                config.out_dir / f"{synthesis.goal.id}.synthesis.json",
                synthesis.to_json_dict(),
            )
            print(f"goal {synthesis.goal.id}: {synthesis.goal.text}")
            print(f"  raw causes generated: {len(synthesis.raw_causes)}")
            for inconsistency in synthesis.merge_inconsistencies:
                print(f"  merge inconsistency: {inconsistency}")
            print(f"  consolidated causes: {len(synthesis.causes)}")
            for cause in synthesis.causes:
                print(f"    {cause.id}  {cause.text}")
            print(f"  translated rules: {sum(1 for c in synthesis.causes if c.rule)}")

        if args.command in ("analyze", "run-all"):
            store, report = run_analyze(
                store, oracle, config, brute_force=getattr(args, "brute_force", False)
            )
            write_json_artifact(
                config.out_dir / f"{report.goal_id}.analysis.json", report.to_json_dict()
            )
            print("\n".join(_family_lines(report)))
            if getattr(args, "strict_monotone", False) and not report.duality_ok:
                exit_code = 5

        if args.command in ("verify", "run-all"):
            rule_ids = None
            if args.command == "verify" and args.rules:
                rule_ids = [r.strip() for r in args.rules.split(",") if r.strip()]
            store, reports = run_verify(store, onto, config, rule_ids)
            goal = store.goal_by_text(config.goal_text)
            stem = goal.id if goal is not None else "verification"
            write_json_artifact(
                config.out_dir / f"{stem}.verification.json",
                {"reports": [r.to_json_dict() for r in reports]},
            )
            print("\n".join(_verdict_table(reports)))
            if any(r.verdict in ("Inconsistent", "Unsafe") for r in reports):
                exit_code = 6

        # persist only when the stages ran to completion; a hard error above
        # leaves the store file untouched
        save_store(store, config.store_path)
    finally:
        # the transcript holds answers already paid for, so keep it on error too
        if recorder is not None:
            recorder.save(Path(args.record))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
