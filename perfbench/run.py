"""cbmkit benchmark: the parent process of every run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; it uses the checkout's own
``src/cbmkit``.  Per workload run it measures the import time of cbmkit in
fresh processes, then starts one child process (``child.py``) that drives
the real CLI commands in-process.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  The full record, spans included, is written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("verify", "convergence", "events_mle")
DEADLINE_S = 170.0
TAIL_BEYOND = 10

# Prints the import time, unscaled and scaled by the host-speed reference
# timed right after it (reference.py).
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import cbmkit, cbmkit.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from reference import REFERENCE_S, reference_s\n"
    "print(t, t * REFERENCE_S / reference_s())\n"
)


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's sources, one BLAS/OpenMP
    thread, so the numbers measure cbmkit and not the scheduler."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(env: dict[str, str], repeats: int, deadline: float) -> list[list[float]]:
    """Import times of cbmkit and cbmkit.cli, each in a fresh process, as
    [unscaled, scaled] pairs; one unmeasured probe first writes the
    bytecode caches."""
    times = []
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE)], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, check=True, timeout=deadline - time.monotonic(),
        ).stdout
        if i:
            times.append([float(x) for x in out.split()])
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile with at least TAIL_BEYOND
    operations beyond it, and that percentile (the maximum when there are
    too few operations)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(workload: str, seed: int, seconds: int, trace: int, size: str) -> int:
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    result_path = workdir / "result.json"
    try:
        setup = [] if trace else measure_setup(env, 7 if size == "full" else 3, deadline)
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--size", size, "--workdir", str(workdir), "--result", str(result_path)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE,
            timeout=deadline - time.monotonic(),
        )
        child_s = time.perf_counter() - started
        if proc.returncode != 0:
            print(f"{workload}: child process exited with {proc.returncode}", file=sys.stderr)
            return 1
        record = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        print(f"{workload}: run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = record["ops"]
    # latencies scaled to the reference machine speed (child.reference_s)
    latencies = [op["scaled_s"] for op in ops]
    failed = [op for op in ops if op["error"]]
    tail_s, tail_pct = tail(latencies)
    environment = {
        "python": record["python"], "numpy": record["numpy"], "nproc": os.cpu_count(),
        "commit": git_commit(), "workload": workload, "seed": seed,
        "seconds": seconds, "size": size, "rounds": record["rounds"],
        "operations": len(ops), "failed": len(failed),
        "op_tail_percentile": tail_pct, "child_s": child_s, "input_s": record["input_s"],
        "threads": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }
    record["environment"] = environment
    record["setup_s"] = setup

    print(f"workload {workload}: {len(ops)} operations in {record['rounds']} rounds, "
          f"seed {seed}, trace {trace}")
    for op in failed:
        print(f"  FAILED {op['config']} round {op['round']}: {op['error']}")
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in record["layers"].items()}
    else:
        work = sum(op["work"] for op in ops if not op["error"])
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
            "work_per_s": {"value": work / sum(latencies), "unit": "units/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if not trace:
        wall = [op["seconds"] for op in ops]
        print(f"  {'(unscaled wall time)':36s} median {statistics.median(wall):.6g} s, "
              f"total {sum(wall):.6g} s, scaled by {sum(latencies) / sum(wall):.4g} on average; "
              f"setup {statistics.median(u for u, _ in setup):.6g} s")
        print(f"  {'(work unit)':36s} {record['unit']} per operation")
        beyond = TAIL_BEYOND if len(ops) > TAIL_BEYOND else 0
        print(f"  {'(op_tail_s percentile)':36s} p{tail_pct:.1f} of {len(ops)} operations, "
              f"{beyond} beyond")
        print(f"  {'failed_frac':36s} {len(failed) / len(ops):.6g} "
              f"({len(failed)} of {len(ops)})")
    saved = OUT / f"{tag}.json"
    saved.write_text(json.dumps(record))
    print(f"  record written to {saved.relative_to(ROOT)}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small shrinks every command, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cbmkit" / "__init__.py").is_file():
        print(f"no cbmkit sources under {ROOT / 'src'}; run from a cbmkit checkout",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status |= run_workload(name, args.seed, args.seconds, args.trace, args.size)
    return status


if __name__ == "__main__":
    sys.exit(main())
