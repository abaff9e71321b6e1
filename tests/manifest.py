"""The pinned output set of the command line: one entry per command.

``ENTRIES`` lists the commands.  ``run`` runs them in order in one child
interpreter, under one temporary folder: an entry may read a file that an
earlier one wrote, and the child keeps the console's warning filters, so
a warning gives the same exit code as from the installed script.  Each
entry's record is its exit code, its exact stderr, the sha256 of its
stdout, and the sha256 of each output file it names (null where that file
must not exist).  ``{tmp}`` stands for the folder in arguments, in stderr
and in file names.  Each entry runs under its own alarm of ``ALARM_S``
seconds: one that runs past it is recorded with the exit ``"timeout"``,
which fails that entry alone, and the next entry runs.

Running this file as a script rewrites ``manifest.json`` beside it:

    PYTHONPATH=src python tests/manifest.py

``tests/test_manifest.py`` runs the recorded entries and compares every
field.  A change that moves bytes shows in the diff of ``manifest.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
TMP = "{tmp}"
# Seconds one entry may run: far past any recorded entry, and short of
# stalling the whole run.
ALARM_S = 60


def _flags(shape, kind, mu="1e-3", lam="5e-4", c="1000"):
    h = "100" if kind == "uniform" else "0"
    return ["--sane.shape", str(shape), "--sane.rate", mu, "--damage.rate", lam,
            "--inspection.kind", kind, "--inspection.c", c, "--inspection.h", h]


def _entry(name, *argv, files=(), inputs=None, note=None):
    """One command: ``files`` are the outputs it must leave (or must not
    create), ``inputs`` the files written before it runs, by path."""
    entry = {"name": name, "argv": list(argv), "files": list(files)}
    if inputs:
        entry["inputs"] = inputs
    if note:
        entry["note"] = note
    return entry


def _base_runs():
    """The four base configs at horizon 5e7, seed 3: simulate,
    convergence, verify, and the AM, the MLE and both on the simulated
    log."""
    for shape, kind in ((1, "deterministic"), (2, "uniform"), (3, "deterministic"),
                        (4, "uniform")):
        tag = f"shape{shape}-{kind}"
        run = [*_flags(shape, kind), "--horizon", "5e7", "--seed", "3"]
        log, snapshots = f"{TMP}/{tag}-events.csv", f"{TMP}/{tag}-snapshots.csv"
        yield _entry(f"{tag}-simulate", "simulate", *run, "--events", log,
                     "--snapshots", snapshots, files=[log, snapshots])
        out = f"{TMP}/{tag}-convergence.csv"
        yield _entry(f"{tag}-convergence", "convergence", *run, "--grid-count", "100",
                     "--out", out, files=[out])
        out = f"{TMP}/{tag}-verify.csv"
        yield _entry(f"{tag}-verify", "verify", *run, "--samples", "100000", "--out", out,
                     files=[out])
        for method in ("am", "mle", "both"):
            note = ("item 9: the MLE reads no uniform-gap log"
                    if kind == "uniform" and method != "am" else None)
            yield _entry(f"{tag}-estimate-events-{method}", "estimate", *run, "--events", log,
                         "--method", method, note=note)
        for interval in ("delta", "tabulated"):
            yield _entry(f"{tag}-estimate-counts-{interval}", "estimate", *run,
                         "--counts", "33501", "53116", "8255", "50001908",
                         "--interval", interval)


def _presets():
    for table in ("table1", "table2", "table3", "table4"):
        yield _entry(table, "estimate", "--reproduce", table)
        yield _entry(f"{table}-delta", "estimate", "--reproduce", table, "--interval", "delta")


def _pinned_files():
    """The runs whose files tests/test_cli.py pinned by sha256 up to 0.31.0,
    argv for argv."""
    for shape, kind in ((1, "deterministic"), (2, "uniform")):
        tag = f"pin-shape{shape}-{kind}"
        log, snapshots = f"{TMP}/{tag}-e.csv", f"{TMP}/{tag}-s.csv"
        yield _entry(f"pinned-simulate-shape{shape}-{kind}", "simulate", *_flags(shape, kind),
                     "--horizon", "3e5", "--seed", "5", "--grid", "1e4, 1.5e5, 3e5",
                     "--events", log, "--snapshots", snapshots, files=[log, snapshots])
    for shape, kind in ((1, "deterministic"), (1, "uniform"), (2, "deterministic"),
                        (2, "uniform")):
        out = f"{TMP}/pin-shape{shape}-{kind}-verify.csv"
        yield _entry(f"pinned-verify-shape{shape}-{kind}", "verify", *_flags(shape, kind),
                     "--horizon", "2e6", "--seed", "3", "--samples", "10000", "--out", out,
                     files=[out])


MODEL_CFG = """\
sane.shape = 2
sane.rate = 1e-3
damage.rate = 5e-4
inspection.kind = uniform
inspection.c = 1000
inspection.h = 100
horizon = 5e7
confidence = 0.9
"""

# cycles of length 0: their counts have an elapsed time of 0
ZERO_LENGTH_LOG = """\
cycle,y_s,y_d,k_r,v_s,z_d,x_r,end
1,0,0,1,0,0,0,Failed
2,0,0,2,0,0,0,Detected
3,0,0,1,0,0,0,Failed
"""

# cycles whose lengths sum past the float range: their counts have an
# elapsed time of inf
OVERFLOW_LOG = """\
cycle,y_s,y_d,k_r,v_s,z_d,x_r,end
1,1e308,1,1,1.5e308,1e308,1.5e308,Detected
2,1e308,1,1,1.7e308,1e308,1.7e308,Failed
3,1,1,1,2,1,2,Failed
"""


def _probes():
    """Probes that no other tier-1 test holds."""
    # the closed forms against Monte Carlo inside the equal-rates band
    for shape, kind in ((4, "uniform"), (1, "deterministic")):
        yield _entry(f"equal-rates-verify-shape{shape}-{kind}", "verify",
                     *_flags(shape, kind, lam="1e-3"), "--horizon", "5e7", "--seed", "3",
                     "--samples", "100000")
    # shape 4: the censored MLE's window moments up to order 5
    run = [*_flags(4, "deterministic"), "--horizon", "2e6", "--seed", "2"]
    log, snapshots = f"{TMP}/shape4-mle-events.csv", f"{TMP}/shape4-mle-snapshots.csv"
    yield _entry("shape4-deterministic-mle-simulate", "simulate", *run, "--events", log,
                 "--snapshots", snapshots, files=[log, snapshots])
    yield _entry("shape4-deterministic-mle", "estimate", *run, "--events", log,
                 "--method", "mle")
    # a config file with bare counts, and one that replaces a preset's values
    cfg = f"{TMP}/model.cfg"
    yield _entry("config-file-counts", "estimate", "--config", cfg,
                 "--counts", "20470", "51522", "4452", "50000355", inputs={cfg: MODEL_CFG})
    yield _entry("config-file-over-preset", "estimate", "--reproduce", "table2",
                 "--config", cfg)
    # a log whose elapsed time is 0: no rate to estimate
    log, out = f"{TMP}/zero-length.csv", f"{TMP}/zero-length-estimate.csv"
    yield _entry("zero-length-log-am", "estimate", *_flags(1, "deterministic"),
                 "--events", log, "--method", "am", "--out", out, files=[out],
                 inputs={log: ZERO_LENGTH_LOG})
    # a log whose elapsed time is inf: the MLE refuses it as the AM does
    log = f"{TMP}/overflow.csv"
    yield _entry("overflow-log-mle", "estimate", *_flags(1, "deterministic"),
                 "--events", log, "--method", "mle", inputs={log: OVERFLOW_LOG})
    # a grid past the bound on the rows convergence holds: refused, no output
    out = f"{TMP}/grid-past-bound.csv"
    yield _entry("convergence-grid-count-past-bound", "convergence", *_flags(1, "deterministic"),
                 "--horizon", "5e7", "--seed", "3", "--grid-count", "1e8", "--out", out,
                 files=[out])


def _open_items():
    """Probes of open ROADMAP items, recorded as they behave: a fix
    re-records its entry."""
    run = [*_flags(1, "deterministic"), "--seed", "3", "--horizon", "1e6"]
    out = f"{TMP}/item12-verify.csv"
    yield _entry("item12-verify-c-1e300", "verify", *run, "--inspection.c", "1e300",
                 "--out", out, files=[out],
                 note="item 12: the oracle's power sums overflow at c = 1e300")
    yield _entry("item3-verify-sane-rate-1e300", "verify", *run, "--sane.rate", "1e300",
                 note="item 3: two rows with a standard error of 0, one ulp apart")
    yield _entry("item1-verify-damage-rate-1e-300", "verify", *run, "--damage.rate", "1e-300",
                 "--samples", "10000", note="item 1: the closed forms at lambda = 1e-300")
    yield _entry("item3-verify-no-failures", "verify", *run, "--damage.rate", "1e-7",
                 "--seed", "2", "--samples", "20000",
                 note="item 3: a sample without failures, |z| = inf")
    yield _entry("item3-verify-tiny-rows", "verify", *run, "--sane.rate", "0.05",
                 "--damage.rate", "0.05", "--samples", "100000",
                 note="item 3: rows of 1e-24 to 1e-19 against 0")
    yield _entry("item12-estimate-c-1e300", "estimate", *run, "--inspection.c", "1e300",
                 "--counts", "33501", "53116", "8255", "5e7",
                 note="item 12: mean_cycle_sq leaves the floats at c = 1e300")


# a log of one cycle charged 2**53 inspections, the first count not exact
COUNT_PAST_BOUND_LOG = """\
cycle,y_s,y_d,k_r,v_s,z_d,x_r,end
1,1500.5,800.25,9007199254740992,2000,2300.75,2000,Detected
"""


def _count_bound():
    """Counts at or past 2**53, predicted, totalled or read: each is
    refused with one line."""
    run = [*_flags(1, "deterministic"), "--seed", "3"]
    for command, outputs in (
        ("simulate", ["--grid", "5e7,1e8,1.5e8,2e8", "--events", f"{TMP}/count-total-e.csv",
                      "--snapshots", f"{TMP}/count-total-s.csv"]),
        ("convergence", ["--grid-count", "4", "--out", f"{TMP}/count-total.csv"]),
    ):
        files = [arg for arg in outputs if arg.startswith(TMP)]
        yield _entry(f"count-total-{command}-c-1e-11", command, *run, "--inspection.c", "1e-11",
                     "--horizon", "2e8", *outputs, files=files)
    out = f"{TMP}/count-predicted.csv"
    yield _entry("count-predicted-verify-uniform-sane-rate-1e-300", "verify",
                 *_flags(1, "uniform", mu="1e-300"), "--seed", "3", "--samples", "10000",
                 "--out", out, files=[out])
    yield _entry("count-predicted-verify-c-5e-324", "verify", *run, "--inspection.c", "5e-324",
                 "--out", out, files=[out])
    yield _entry("count-estimate-c-5e-324", "estimate", *run, "--inspection.c", "5e-324",
                 "--counts", "10", "20", "3", "1e4")
    log = f"{TMP}/count-past-bound.csv"
    yield _entry("count-log-k-r-2-53", "estimate", *run, "--events", log,
                 inputs={log: COUNT_PAST_BOUND_LOG})


def _delay_cancellation():
    """Counts of 1e16 and 4e15 inspections a cycle: the mean detection
    delay c E[K] - shape/mu cancels to 0 and to past the largest gap, and
    the failure rate's bracket is refused with one line."""
    for inspections in ("1e17", "4e16"):
        yield _entry(f"delay-cancels-estimate-counts-{inspections}", "estimate",
                     *_flags(1, "deterministic"), "--counts", "10", inspections, "3", "1e4")


ENTRIES = [*_base_runs(), *_presets(), *_pinned_files(), *_probes(), *_open_items(),
           *_count_bound(), *_delay_cancellation()]


class _Timeout(BaseException):
    """An entry ran past its alarm; not an Exception, so the command's
    own handlers let it through."""


@contextlib.contextmanager
def _alarm(seconds: int):
    """Raise :class:`_Timeout` in the body once ``seconds`` have passed."""
    def ring(signum, frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, ring)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(entry: dict, tmp: str, seconds: int = ALARM_S) -> dict:
    """Run one entry in this process under ``tmp`` and its own alarm, and
    return its record."""
    from cbmkit import cli

    for path, text in entry.get("inputs", {}).items():
        Path(path.replace(TMP, tmp)).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    try:
        with _alarm(seconds), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace(TMP, tmp) for arg in entry["argv"]])
    except _Timeout:
        code = "timeout"
    files = {}
    for path in entry["files"]:
        real = Path(path.replace(TMP, tmp))
        files[path] = _digest(real.read_bytes()) if real.exists() else None
    return {"exit": code, "stderr": err.getvalue().replace(tmp, TMP),
            "stdout_sha256": _digest(out.getvalue().encode("utf-8")), "files": files}


def _child(tmp: str) -> None:
    """Run the entries read from stdin in this process, under ``tmp``, and
    write their records and the temporary output files left behind to
    stdout as JSON."""
    records = [_record(entry, tmp) for entry in json.load(sys.stdin)]
    left = sorted(p.name for p in Path(tmp).glob("*.cbmkit-*.tmp"))
    json.dump({"records": records, "left": left}, sys.stdout)


def run(entries: list) -> tuple[list, list]:
    """The records of ``entries``, run in order in one child interpreter
    under a new temporary folder, and the names of the ``*.cbmkit-*.tmp``
    files left there after the last."""
    src = str(HERE.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, str(HERE), os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = os.path.realpath(tmp)
        done = subprocess.run(
            [sys.executable, "-c", "import sys, manifest; manifest._child(sys.argv[1])", tmp],
            input=json.dumps(entries), capture_output=True, text=True, env=env, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"the manifest child exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout)
    return result["records"], result["left"]


def _dump(entries: list) -> str:
    """The manifest's text: one line per field, so a moved byte changes
    one line."""
    return "[\n" + ",\n".join(
        "{\n" + ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                           for key, value in entry.items()) + "\n}"
        for entry in entries) + "\n]\n"


def record() -> None:
    records, left = run(ENTRIES)
    if left:
        raise RuntimeError(f"temporary files left behind: {left}")
    stalled = [e["name"] for e, r in zip(ENTRIES, records) if r["exit"] == "timeout"]
    if stalled:
        raise RuntimeError(f"entries past their {ALARM_S} s alarm: {stalled}")
    order = ("name", "note", "argv", "inputs", "exit", "stderr", "stdout_sha256", "files")
    merged = [{**entry, **rec} for entry, rec in zip(ENTRIES, records)]
    MANIFEST.write_text(_dump([{key: e[key] for key in order if key in e} for e in merged]),
                        encoding="utf-8")


if __name__ == "__main__":
    record()
