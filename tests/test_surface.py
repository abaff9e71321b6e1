"""The public surface, and the names the benchmark harness reads from it.

``perfbench/tracer.py`` wraps cbmkit functions by name and
``perfbench/workloads.py`` iterates a parsed event log row by row; a
cleanup that drops one of those names breaks the traced benchmark, so it
fails here too.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import cbmkit
from cbmkit.simulator import read_event_log

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
REMOVED = ("TaylorJet", "deterministic_config", "full_information_estimate", "inspection_series",
           "counts_at", "mean_cycle_length", "mc_moment_set", "McEstimate",
           "failure_rate_from_cycle_identity")
MODULES = ("cli", "config", "laws", "formulas", "estimators", "simulator", "oracle")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPublicSurface:
    def test_every_export_resolves(self):
        missing = [name for name in cbmkit.__all__ if not hasattr(cbmkit, name)]
        assert missing == []

    def test_removed_names_stay_out(self):
        assert not set(REMOVED) & set(cbmkit.__all__)
        assert not any(hasattr(cbmkit, name) for name in REMOVED)
        for module in (importlib.import_module(f"cbmkit.{m}") for m in MODULES):
            assert not [name for name in REMOVED if hasattr(module, name)], module.__name__


class TestBenchmarkReach:
    def test_traced_internal_names_resolve(self):
        tracer = _tracer()
        for layer, name in tracer.INTERNAL:
            module = importlib.import_module(f"cbmkit.{layer}")
            assert inspect.isfunction(getattr(module, name, None)), (layer, name)

    def test_hot_names_are_cbmkit_functions(self):
        tracer = _tracer()
        modules = [importlib.import_module(f"cbmkit.{layer}") for layer in tracer.LAYERS]
        for name in tracer.HOT:
            assert any(inspect.isfunction(getattr(m, name, None)) for m in modules), name

    def test_event_log_rows_carry_inspection_count(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n"
            "1,1500.5,800.25,2,2000,2300.75,2000,Detected\n"
            "2,400,100,1,1000,500,500,Failed\n"
        )
        rows = list(read_event_log(path))
        assert [r.inspection_count for r in rows] == [2, 1]
