"""The command line's pinned output set: every entry of ``manifest.json``
gives the exit code, the stderr and the output bytes it recorded.

``python tests/manifest.py`` re-records the file; see ``manifest.py``.
"""

import json
import time

import pytest

import manifest
from cbmkit import cli

RECORDED = json.loads(manifest.MANIFEST.read_text(encoding="utf-8"))
FIELDS = ("exit", "stderr", "stdout_sha256", "files")


@pytest.fixture(scope="module")
def runs():
    """Every entry's record and the temporary files left, from one child
    run of the whole manifest in order."""
    return manifest.run(RECORDED)


def _command(entry):
    spec = {key: entry[key] for key in ("name", "argv", "inputs", "note") if key in entry}
    return {**spec, "files": list(entry["files"])}


def test_recorded_from_the_entries():
    # the file holds the commands of manifest.ENTRIES, in their order
    assert [_command(e) for e in RECORDED] == [_command(e) for e in manifest.ENTRIES]


@pytest.mark.parametrize("index", range(len(RECORDED)), ids=[e["name"] for e in RECORDED])
def test_entry(index, runs):
    records, _ = runs
    assert records[index] == {key: RECORDED[index][key] for key in FIELDS}


def test_no_temporary_file_is_left(runs):
    # each output was renamed over its target, or removed when its
    # command failed
    _, left = runs
    assert left == []


def test_an_entry_past_its_alarm_fails_alone(tmp_path, monkeypatch):
    # a command that stalls is recorded as a timeout, and the next entry
    # runs as if it had not
    def stalls(args):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            pass
        return 0

    monkeypatch.setattr(cli, "_cmd_verify", stalls)
    stalled = manifest._entry("stalls", "verify")
    started = time.monotonic()
    record = manifest._record(stalled, str(tmp_path), seconds=1)
    assert time.monotonic() - started < 10.0
    assert record["exit"] == "timeout"
    preset = next(e for e in RECORDED if e["name"] == "table1")
    assert manifest._record(preset, str(tmp_path)) == {key: preset[key] for key in FIELDS}
