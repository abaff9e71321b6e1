"""Traced runs: time, from outside the package, every call that crosses a
cbmkit module boundary.

Each public function is wrapped in the namespace where its caller looks it
up (``laplace_jet`` as ``formulas`` sees it, ``sample_inspection_gap`` as
``simulator`` sees it), so no source file changes.  Coarse calls become
spans tagged with the operation's id; hot calls (about 10^4 or more per
operation) only add to a counter and a summed time.  Everything stays in
memory until the run ends.  A call's self time is its duration minus the
time of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("cli", "config", "laws", "formulas", "estimators", "simulator", "oracle")

HOT = frozenset({
    "simulate_cycle", "sample_sane", "sample_damage", "sample_inspection_gap",
    "laplace_jet", "one_minus_laplace", "mean_inspections", "failure_probability",
})

# Same-module calls that a layer metric needs, as (namespace, function).
INTERNAL = (
    ("cli", "main"),
    ("simulator", "simulate_cycle"),
    ("estimators", "invert_mean_inspections"),
    ("estimators", "invert_failure_probability"),
    ("estimators", "censored_log_likelihood"),
    ("formulas", "cycle_moments"),
    ("formulas", "parameter_sensitivities"),
)

# Closed-form map evaluations: these formulas as the estimators call them.
EVALS = frozenset({"formulas.mean_inspections", "formulas.failure_probability"})
SAMPLES = frozenset({"laws.sample_sane", "laws.sample_damage", "laws.sample_inspection_gap"})
JETS = frozenset({"laws.laplace_jet", "laws.one_minus_laplace"})
INVERSIONS = frozenset({"estimators.invert_mean_inspections", "estimators.invert_failure_probability"})

CALLS, TOTAL, SELF, RAISED, EVALS_BELOW = range(5)


def _note_rows(tracer: "Tracer", rows, args) -> None:
    tracer.notes["oracle.failed_quantities"] += sum(1 for r in rows if not r.passed)
    worst = max((abs(r.z_score) for r in rows), default=0.0)
    tracer.notes["oracle.max_abs_z"] = max(tracer.notes["oracle.max_abs_z"], worst)


def _note_mle(tracer: "Tracer", report, args) -> None:
    tracer.notes["estimators.mle_iterations"] += report.diagnostics["iterations"]


def _note_log(tracer: "Tracer", records, args) -> None:
    tracer.notes["simulator.read_log_bytes"] += os.path.getsize(args[0])


OBSERVERS = {
    "oracle.verification_rows": _note_rows,
    "estimators.mle_estimate": _note_mle,
    "simulator.read_event_log": _note_log,
}


class Tracer:
    def __init__(self) -> None:
        self.op = 0
        self.stack: list[list] = []  # open calls: [name, child_s, evals_below]
        self.stats: dict[tuple[str, str], list] = {}  # (caller, name) -> CALLS..EVALS_BELOW
        self.spans: list[tuple] = []  # (op, name, parent, start, end)
        self.notes = {
            "oracle.failed_quantities": 0,
            "oracle.max_abs_z": 0.0,
            "estimators.mle_iterations": 0,
            "simulator.read_log_bytes": 0,
        }
        self._undo: list[tuple] = []

    def _traced(self, original, name: str, caller: str):
        entry = self.stats.setdefault((caller, name), [0, 0.0, 0.0, 0, 0])
        hot = name.split(".")[1] in HOT
        is_eval = 1 if caller == "estimators" and name in EVALS else 0
        observe = OBSERVERS.get(name)
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = [name, 0.0, is_eval]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except Exception:
                entry[RAISED] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                entry[CALLS] += 1
                entry[TOTAL] += dur
                entry[SELF] += dur - frame[1]
                entry[EVALS_BELOW] += frame[2]
                if parent is not None:
                    parent[1] += dur
                    parent[2] += frame[2]
                if not hot:
                    spans.append((self.op, name, parent[0] if parent else None, start, end))
            if observe is not None:
                observe(self, result, args)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: sys.modules[f"cbmkit.{layer}"] for layer in LAYERS}
        targets = [
            (caller, attr)
            for caller, ns in modules.items()
            for attr, obj in vars(ns).items()
            if inspect.isfunction(obj)
            and not attr.startswith("_")
            and obj.__module__.startswith("cbmkit.")
            and obj.__module__ != ns.__name__
        ]
        for caller, attr in targets + list(INTERNAL):
            ns = modules[caller]
            original = getattr(ns, attr)
            layer = original.__module__.rsplit(".", 1)[1]
            setattr(ns, attr, self._traced(original, f"{layer}.{attr}", caller))
            self._undo.append((ns, attr, original))
        # the observables rebuild is a classmethod the CLI reaches through
        # the class, so it is wrapped on the class
        cls = modules["estimators"].ObservedData
        descriptor = cls.__dict__["from_event_log_records"]
        wrapped = self._traced(descriptor.__func__, "estimators.from_event_log_records", "cli")
        setattr(cls, "from_event_log_records", classmethod(wrapped))
        self._undo.append((cls, "from_event_log_records", descriptor))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _sum(self, field: int, names, caller: str | None = None) -> float:
        return sum(
            v[field] for (c, n), v in self.stats.items()
            if n in names and (caller is None or c == caller)
        )

    def _per_call(self, name: str, scale: float) -> float:
        calls = self._sum(CALLS, {name})
        return self._sum(TOTAL, {name}) / calls * scale if calls else 0.0

    def layer_metrics(self, overhead: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit).  A layer the
        workload never calls reads 0."""
        s = self._sum
        cycles = s(CALLS, {"simulator.simulate_cycle"})
        draw_s = s(TOTAL, {"simulator.simulate_cycle"})
        inversions = s(CALLS, INVERSIONS) - s(RAISED, INVERSIONS)
        evals = s(CALLS, EVALS, "estimators")
        eval_s = s(TOTAL, EVALS, "estimators")
        op_s = s(TOTAL, {"cli.main"})
        estimators = {n for _, n in self.stats if n.startswith("estimators.")}
        layer_self = {
            layer: sum(v[SELF] for (_, n), v in self.stats.items() if n.split(".")[0] == layer)
            for layer in LAYERS
        }
        likelihood = {"estimators.censored_log_likelihood"}
        am = "estimators.asymptotic_estimate"
        am_calls = s(CALLS, {am})
        m = {
            "simulator.cycles": (cycles, "count"),
            "simulator.draw_s": (draw_s, "s"),
            "simulator.us_per_cycle": (draw_s / cycles * 1e6 if cycles else 0.0, "us"),
            "laws.sample_calls": (s(CALLS, SAMPLES), "count"),
            "laws.sample_s": (s(TOTAL, SAMPLES), "s"),
            "oracle.cycles": (s(CALLS, {"simulator.simulate_cycle"}, "oracle"), "count"),
            "oracle.self_s": (layer_self["oracle"], "s"),
            "oracle.failed_quantities": (self.notes["oracle.failed_quantities"], "count"),
            "oracle.max_abs_z": (self.notes["oracle.max_abs_z"], "z"),
            "simulator.counts_at_calls": (s(CALLS, {"simulator.counts_at"}), "count"),
            "simulator.counts_at_s": (s(TOTAL, {"simulator.counts_at"}), "s"),
            "estimators.estimate_calls": (am_calls, "count"),
            "estimators.inversions": (inversions, "count"),
            "estimators.evals_per_inversion": (evals / inversions if inversions else 0.0, "count"),
            "estimators.inversion_s": (s(TOTAL, INVERSIONS), "s"),
            "estimators.infeasible": (s(RAISED, estimators, "cli"), "count"),
            "formulas.evals": (evals, "count"),
            "formulas.eval_s": (eval_s, "s"),
            "formulas.us_per_eval": (eval_s / evals * 1e6 if evals else 0.0, "us"),
            "formulas.covariance_s": (s(TOTAL, {"formulas.estimator_covariance"}), "s"),
            "laws.jet_calls": (s(CALLS, JETS), "count"),
            "laws.jet_s": (s(TOTAL, JETS), "s"),
            "estimators.likelihood_evals": (s(CALLS, likelihood), "count"),
            "estimators.likelihood_self_s": (s(SELF, likelihood), "s"),
            "estimators.mle_iterations": (self.notes["estimators.mle_iterations"], "count"),
            "estimators.mle_s": (s(TOTAL, {"estimators.mle_estimate"}), "s"),
            "formulas.window_calls": (s(CALLS, {"formulas.detection_window_integral"}, "estimators"), "count"),
            "formulas.window_s": (s(TOTAL, {"formulas.detection_window_integral"}, "estimators"), "s"),
            "simulator.read_log_s": (s(TOTAL, {"simulator.read_event_log"}), "s"),
            "simulator.read_log_bytes": (self.notes["simulator.read_log_bytes"], "B"),
            "cli.ops": (s(CALLS, {"cli.main"}), "count"),
            "cli.self_s": (layer_self["cli"], "s"),
            "config.parse_s": (layer_self["config"], "s"),
            # per-call times under the ROADMAP baseline row names
            "baseline.cycle_moments_ms": (self._per_call("formulas.cycle_moments", 1e3), "ms"),
            "baseline.estimator_covariance_ms": (self._per_call("formulas.estimator_covariance", 1e3), "ms"),
            "baseline.asymptotic_estimate_ms": (self._per_call(am, 1e3), "ms"),
            "baseline.asymptotic_estimate_evals": (s(EVALS_BELOW, {am}) / am_calls if am_calls else 0.0, "count"),
            "baseline.simulate_cycle_us": (draw_s / cycles * 1e6 if cycles else 0.0, "us"),
            "baseline.counts_at_ms": (self._per_call("simulator.counts_at", 1e3), "ms"),
            "baseline.mle_estimate_s": (self._per_call("estimators.mle_estimate", 1.0), "s"),
            "trace.overhead": (overhead, "ratio"),
        }
        for layer in LAYERS:
            m[f"share.{layer}"] = (layer_self[layer] / op_s if op_s else 0.0, "frac")
        return m

    def record(self) -> dict:
        return {
            "calls": [
                {"caller": c, "name": n, "calls": v[CALLS], "total_s": v[TOTAL],
                 "self_s": v[SELF], "raised": v[RAISED], "evals_below": v[EVALS_BELOW]}
                for (c, n), v in sorted(self.stats.items())
            ],
            "spans": self.spans,
            "notes": self.notes,
        }
