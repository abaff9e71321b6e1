"""One workload run in a fresh process.

Builds the run's inputs, then drives ``cbmkit.cli.main`` in-process as a
closed loop of one client: each command starts when the previous one has
returned and its output has been checked.  Writes the measurements as JSON
to ``--result``.  Started by ``run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cbmkit.cli  # noqa: E402
from reference import REFERENCE_S, reference_s  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FULL, SMALL, WORKLOADS, Op, build_ops  # noqa: E402


def _cli_main(argv: list[str]) -> int:
    # looked up on every call, so a traced run reaches the wrapper
    return cbmkit.cli.main(argv)


def run_op(op: Op, call: Callable[[list[str]], int]) -> tuple[float, Optional[str]]:
    """Run one command; return its wall time and why it failed, if it did."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(op.out)
    start = time.perf_counter()
    try:
        rc = call(list(op.argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    except Exception as exc:
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if rc != 0:
        return elapsed, f"exit code {rc}"
    try:
        return elapsed, op.check(op.out)
    except (OSError, ValueError, IndexError) as exc:
        return elapsed, f"unreadable output: {exc}"


def run_ops(
    ops: list[Op],
    call: Callable[[list[str]], int] = _cli_main,
    tracer: Optional[Tracer] = None,
) -> list[dict]:
    results = []
    before = reference_s()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        seconds, error = run_op(op, call)
        after = reference_s()
        results.append({
            "config": op.config.label, "round": op.round, "seconds": seconds,
            "scaled_s": seconds * REFERENCE_S / math.sqrt(before * after),
            "reference_s": [before, after], "work": op.work, "error": error,
        })
        before = after
    return results


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    rounds = workload.rounds(args.seconds)
    if args.trace:
        # tracing slows every call, so a traced run does half the rounds
        rounds = max(1, rounds // 2)
    start = time.perf_counter()
    ops = build_ops(workload, args.seed, rounds,
                    SMALL if args.size == "small" else FULL, args.workdir)
    record = {
        "workload": workload.name,
        "unit": workload.unit,
        "rounds": rounds,
        "input_s": time.perf_counter() - start,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cbmkit": cbmkit.__file__,
    }
    if not args.trace:
        record["ops"] = run_ops(ops)
    else:
        # round 0 untraced to warm caches and lazy set-up, every round
        # traced, then round 0 untraced again: the same commands on the same
        # inputs, warm both times, give the tracing overhead
        first = [op for op in ops if op.round == 0]
        warmup = run_ops(first)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_ops(ops, tracer=tracer)
        finally:
            tracer.uninstall()
        untraced = run_ops(first)
        record["ops"] = warmup + traced + untraced
        overhead = (sum(r["scaled_s"] for r in traced[: len(first)])
                    / sum(r["scaled_s"] for r in untraced))
        record["layers"] = tracer.layer_metrics(overhead)
        record["trace"] = tracer.record()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
