"""Smoke test of the benchmark at small size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks that every declared metric is emitted for each workload, traced and
untraced, and that a corrupted output row counts as a failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=ROOT, stdout=subprocess.PIPE, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


# (column counted from the left after splitting off the quantity name, value)
CORRUPTION = {"verify": (4, "9"), "convergence": (1, "1"), "events_mle": (1, "1")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_row_counts_as_failed(workload, tmp_path):
    sys.path.insert(0, str(HERE))
    import child
    from workloads import SMALL, WORKLOADS as SPECS, build_ops

    ops = build_ops(SPECS[workload], 5, 1, SMALL, str(tmp_path))
    column, value = CORRUPTION[workload]
    corrupt = {ops[0].argv}

    def corrupting_cli(argv):
        rc = child._cli_main(argv)
        if tuple(argv) in corrupt:
            out = Path(argv[argv.index("--out") + 1])
            lines = out.read_text().splitlines()
            fields = lines[-1].rsplit(",", lines[0].count(","))
            fields[column] = value
            lines[-1] = ",".join(fields)
            out.write_text("\n".join(lines) + "\n")
        return rc

    results = child.run_ops(ops, call=corrupting_cli)
    assert results[0]["error"]
    assert [r["error"] for r in results[1:]] == [None] * (len(ops) - 1)
