"""The public surface, the names the benchmark harness reads from it, and
the package's design rules, which read one parse of ``src/cbmkit``.

``perfbench/tracer.py`` wraps cbmkit functions by name and
``perfbench/workloads.py`` iterates a parsed event log row by row; a
cleanup that drops one of those names breaks the traced benchmark, so it
fails here too.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
import re
import shlex
from pathlib import Path

import cbmkit
from cbmkit.cli import build_parser
from cbmkit.simulator import read_event_log

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"
REMOVED = ("TaylorJet", "deterministic_config", "full_information_estimate", "inspection_series",
           "counts_at", "mean_cycle_length", "mc_moment_set", "McEstimate",
           "failure_rate_from_cycle_identity", "LawDerivatives", "law_derivatives", "_band_jet",
           "_gains", "_taylor_tail", "_indexed_series_sum", "_taylor_mean", "_power", "_only",
           "_check_fractions", "simulate_cycles", "event_log_lines", "snapshot_lines",
           "snapshot_rows",
           # the age/KS reference and the law values only tests read: tests/age_law.py
           "mc_age_distribution", "cycle_length_survival", "limiting_age_cdf",
           "_survival_given_segment", "_check_deterministic", "ks_statistic", "ks_critical",
           "KS_CRITICAL_SCALE", "survival_sane", "density_sane", "cdf_inspection_gap")
MODULES = ("cli", "config", "laws", "formulas", "estimators", "simulator", "oracle")
# BLAS kernels sum in their own order, so pinned bytes would depend on the
# machine (docstrings may name these)
BLAS = {"dot", "matmul", "einsum", "tensordot", "vdot", "inner", "linalg"}
# what turns a quotient into an integer
ROUNDING = {"ceil", "floor", "rint", "round", "trunc"}
# the nodes of an expression of constants alone
CONSTANT = (ast.BinOp, ast.UnaryOp, ast.Constant, ast.operator, ast.unaryop)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parse(paths):
    return tuple((str(path.relative_to(ROOT)), ast.parse(path.read_text(encoding="utf-8")))
                 for path in sorted(paths))


@functools.lru_cache(maxsize=None)
def _package():
    """(path, tree) of every module under src/cbmkit."""
    return _parse((ROOT / "src" / "cbmkit").glob("*.py"))


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


@functools.lru_cache(maxsize=None)
def _read():
    """Every name the package reads: as a name, an attribute or an imported name."""
    return frozenset(node.name if isinstance(node, ast.alias) else _name(node)
                     for _, tree in _package() for node in ast.walk(tree)
                     if isinstance(node, ast.alias)
                     or (isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)))


def _defined(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _readme_fenced_lines():
    """The lines of README's fenced code blocks."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    return [line for block in blocks for line in block.splitlines()]


class TestReadme:
    """README states the command line and the library as they are."""

    def test_command_lines_parse(self):
        lines = [line for line in _readme_fenced_lines() if line.startswith("cbmkit ")]
        assert len(lines) >= 5
        parser = build_parser()
        for line in lines:
            # a flag or a value the parser rejects raises ConfigError
            parser.parse_args(shlex.split(line, comments=True)[1:])

    def test_library_section_names_every_export(self):
        section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
        section = section.split("\n## ", 1)[0]
        names = re.findall(r"^- `(\w+)", section, re.MULTILINE)
        assert sorted(names) == sorted(cbmkit.__all__)


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


class TestDesignRules:
    def test_version_strings_agree(self):
        # pyproject.toml by a regex: Python 3.10 has no tomllib
        text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
        match = re.search(r'^version\s*=\s*"([^"]*)"', text, re.MULTILINE)
        assert match and match.group(1) == cbmkit.__version__

    def test_no_scipy_or_mpmath_imports(self):
        # neither is a dependency, though a developer machine may have both
        trees = _package() + _parse((ROOT / "tests").rglob("*.py"))
        bad = [f"{path}:{node.lineno}: imports {module}"
               for path, tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for module in [getattr(node, "module", None) or a.name for a in node.names]
               if module.split(".")[0] in ("scipy", "mpmath")]
        assert not bad, "\n".join(bad)

    def test_no_unused_imports(self):
        # __init__.py imports to re-export
        bad = []
        for path, tree in [(p, t) for p, t in _package() if not p.endswith("__init__.py")]:
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            bad += [f"{path}:{node.lineno}: {name} is imported but never used"
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"
                    for name in {(a.asname or a.name).split(".")[0] for a in node.names}
                    if name not in used]
        assert not bad, "\n".join(bad)

    def test_no_unread_private_names(self):
        bad = [f"{path}:{node.lineno}: {name} is defined but never read in the package"
               for path, tree in _package() for node in tree.body for name in _defined(node)
               if name.startswith("_") and not name.startswith("__") and name not in _read()]
        assert not bad, "\n".join(bad)

    def test_no_unreached_public_functions(self):
        # reached: read in the package, exported in cbmkit.__all__ or quoted
        # in perfbench/tracer.py
        tracer = ast.parse(TRACER.read_text(encoding="utf-8"))
        reached = _read() | set(cbmkit.__all__) | {
            node.value.rsplit(".", 1)[-1] for node in ast.walk(tracer)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        bad = [f"{path}:{node.lineno}: {node.name} is public but never reached"
               for path, tree in _package() if not path.endswith("__init__.py")
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in reached]
        assert not bad, "\n".join(bad)

    def test_no_blas_calls(self):
        def names(node):
            # every name along a call's target: np.linalg.solve gives np, linalg, solve
            while isinstance(node, (ast.Name, ast.Attribute)):
                yield _name(node)
                node = getattr(node, "value", None)

        bad = [f"{path}:{node.lineno}: " + ("@" if isinstance(node, (ast.BinOp, ast.AugAssign))
                                            else f"{ast.unparse(node.func)}()")
               for path, tree in _package() for node in ast.walk(tree)
               if isinstance(getattr(node, "op", None), ast.MatMult)
               or (isinstance(node, ast.Call) and BLAS & set(names(node.func)))]
        assert not bad, "\n".join(bad)

    def test_coverage_allowances_name_statements(self):
        # the coverage step allows a few unexecuted statements by function
        # and text, not by line; each must still name a statement
        import linecov

        found = {(function, text) for path in sorted((ROOT / "src" / "cbmkit").glob("*.py"))
                 for _, function, text in linecov.statements(path)}
        assert ("formulas._rho", "out = out * ratio") in found
        assert set(linecov.ALLOWED) <= found

    def test_one_draw_loop(self):
        # every batch of cycles comes from simulator.cycle_chunks, so the
        # draw order is fixed in one place
        def visit(node, path, defs):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs = defs + (node.name,)
            if "cycle_chunks" not in defs:
                where = defs[-1] if defs else "module level"
                if isinstance(node, ast.Call) and _name(node.func) == "_draw_chunk":
                    yield f"{path}:{node.lineno}: _draw_chunk() called in {where}"
                elif (isinstance(node, (ast.Name, ast.Attribute))
                      and isinstance(node.ctx, ast.Load) and _name(node) == "_CHUNK"):
                    yield f"{path}:{node.lineno}: _CHUNK read in {where}"
            for child in ast.iter_child_nodes(node):
                yield from visit(child, path, defs)

        bad = [line for path, tree in _package() for line in visit(tree, path, ())]
        assert not bad, "\n".join(bad)

    def test_one_schedule_index_and_one_overflow_policy(self):
        # the deterministic schedule's index is found in
        # simulator._schedule_index only (no rounding of a quotient
        # elsewhere in the simulator, the oracle or the age-law reference
        # of tests/age_law.py), and the overflow policy of cycle-time
        # totals is set in simulator._running_sums only
        def visit(node, path, defs):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs = defs + (node.name,)
            where = defs[-1] if defs else "module level"
            rounded_quotient = (
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                or isinstance(node, ast.Call) and _name(node.func) in ROUNDING
                and any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.Div)
                        for a in ast.walk(node)))
            if rounded_quotient and "_schedule_index" not in defs:
                yield f"{path}:{node.lineno}: {ast.unparse(node)} in {where}"
            if (path.endswith("simulator.py") and _name(node) == "errstate"
                    and "_running_sums" not in defs):
                yield f"{path}:{node.lineno}: errstate in {where}"
            for child in ast.iter_child_nodes(node):
                yield from visit(child, path, defs)

        trees = _package() + _parse([ROOT / "tests" / "age_law.py"])
        bad = [line for path, tree in trees
               if path.endswith(("simulator.py", "oracle.py", "age_law.py"))
               for line in visit(tree, path, ())]
        assert not bad, "\n".join(bad)

    def test_one_count_bound(self):
        # config.MAX_COUNT is the only count-exactness bound in the package:
        # no other expression of constants evaluates to 2**53 or 2**63
        bounds = {2**53, 2**63}

        def visit(node, path):
            if (path.endswith("config.py") and isinstance(node, ast.Assign)
                    and [_name(t) for t in node.targets] == ["MAX_COUNT"]):
                return
            if (isinstance(node, ast.expr) and all(isinstance(n, CONSTANT) for n in ast.walk(node))
                    and eval(compile(ast.Expression(node), "<constant>", "eval")) in bounds):
                yield f"{path}:{node.lineno}: {ast.unparse(node)}"
                return
            for child in ast.iter_child_nodes(node):
                yield from visit(child, path)

        bad = [line for path, tree in _package() for line in visit(tree, path)]
        assert not bad, "\n".join(bad)
