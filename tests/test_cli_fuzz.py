"""Corrupted input files end in a documented exit code, never a traceback.

Each example copies the shipped fixtures, runs `synthesize` on scenario 1
when the command needs its causes, then corrupts one input file and runs
one CLI command.  A corruption truncates the file's text, replaces or
deletes one to three values anywhere in its JSON tree, or puts a byte
that UTF-8 never uses into it.  The transcript is corrupted under a
config switched to replay mode.
"""

import contextlib
import copy
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulesynth.cli import main

from conftest import SCENARIOS

EXIT_CODES = {0, 2, 3, 4, 5, 6}  # the table in cli.py and README
TARGETS = {
    "config": "scenario1.config.json",
    "store": "merge.kb.json",
    "spec": "scenario1.oracle.json",
    "transcript": "golden-scenario1.transcript.json",
    "ontology": "traffic.onto.json",
}
COMMANDS = (
    ("run-all",),
    ("synthesize",),
    ("analyze", "--brute-force", "--strict-monotone"),
    ("verify", "--all-unverified"),
)
# copied per draw: a later edit may change a container placed earlier
REPLACEMENTS = st.sampled_from([None, True, 0, -1, 2.5, "", "x", [], {}, [1], {"x": 1}]).map(copy.deepcopy)


def _paths(doc, path=()):
    """The path of every value in a JSON document, the root first."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _corrupt(data, text):
    """The corrupted file's bytes."""
    kind = data.draw(st.sampled_from(["truncate", "replace", "delete", "undecodable"]), label="kind")
    if kind == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1), label="cut")].encode()
    if kind == "undecodable":
        raw = text.encode()
        at = data.draw(st.integers(0, len(raw)), label="at")
        return raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xfe"]), label="byte") + raw[at:]
    doc = json.loads(text)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        paths = list(_paths(doc))[1 if kind == "delete" else 0 :]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths), label="path")
        if not path:
            doc = data.draw(REPLACEMENTS, label="value")
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(REPLACEMENTS, label="value")
    return json.dumps(doc).encode()


def _work_copy(work, target):
    """Copy the fixtures into `work`; the config it returns replays the
    golden transcript when that is the target."""
    for path in SCENARIOS.glob("*.json"):
        shutil.copy(path, work / path.name)
    config = work / "scenario1.config.json"
    if target == "transcript":
        doc = json.loads(config.read_text())
        doc["oracle"] = {"mode": "replay", "transcript": TARGETS["transcript"]}
        config.write_text(json.dumps(doc))
    return config


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize("target", sorted(TARGETS))
@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(COMMANDS), data=st.data())
def test_corrupted_input_ends_in_a_documented_exit_code(target, command, data):
    with tempfile.TemporaryDirectory() as tmp:
        config = _work_copy(Path(tmp), target)
        if command[0] in ("analyze", "verify"):
            assert _quiet_main(["synthesize", "--config", str(config)]) == 0
        victim = config.parent / TARGETS[target]
        victim.write_bytes(_corrupt(data, victim.read_text()))
        assert _quiet_main([*command, "--config", str(config)]) in EXIT_CODES


@pytest.mark.parametrize(
    "target, code", [("config", 2), ("store", 2), ("ontology", 2), ("spec", 3), ("transcript", 3)]
)
def test_input_that_is_not_utf8_ends_in_its_exit_code_naming_the_file(tmp_path, capsys, target, code):
    config = _work_copy(tmp_path, target)
    victim = tmp_path / TARGETS[target]
    victim.write_bytes(b"\xff\xfe" + victim.read_bytes())
    assert main(["run-all", "--config", str(config)]) == code
    err = capsys.readouterr().err
    assert str(victim) in err and "Traceback" not in err
