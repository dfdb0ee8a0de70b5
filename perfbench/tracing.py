"""Spans and counters recorded around carpnet's public functions.

The benchmark wraps attributes of carpnet's modules from outside the
package; carpnet itself is unchanged.  Each wrapped call becomes a span
(id, parent span, name, run id, start, end).  Spans stay in memory until
``dump`` writes them out.  ``TransitionSummary.loglik`` (about 13 us) and
``fixed_point_map`` (about 40 us) only bump a counter, so that timing them
does not swamp them.

A span's layer is the part of its name before the first dot, named after
the carpnet module that does the work.  A span's self time is its duration
minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict

# (owner, attribute, span name).  The owner is a module, or module:class.
# Both the module that defines a function and each module that imported it
# by name are patched, because callers look the name up where they live.
SPANS = (
    ("carpnet.cli", "main", "cli.main"),
    ("carpnet.cli", "load_network", "risks.load_network"),
    ("carpnet.cli", "load_history", "risks.load_history"),
    ("carpnet.cli", "fit", "likelihood.fit"),
    ("carpnet.validation", "fit", "likelihood.fit"),
    ("carpnet.cli", "solve_steady_state", "steady_state.solve"),
    ("carpnet.influence", "solve_steady_state", "steady_state.solve"),
    ("carpnet.validation", "solve_steady_state", "steady_state.solve"),
    ("carpnet.cli", "risk_influence", "influence.risk_influence"),
    ("carpnet.cli", "category_influence", "influence.category_influence"),
    ("carpnet.cli", "run_cascades_parallel", "dynamics.run_cascades_parallel"),
    ("carpnet.dynamics", "run_cascades", "dynamics.run_cascades"),
    ("carpnet.validation", "run_cascades", "dynamics.run_cascades"),
    ("carpnet.cli", "recovery_experiment", "validation.recovery_experiment"),
    ("carpnet.cli", "write_csv", "artifacts.write_csv"),
    ("carpnet.cli", "write_json", "artifacts.write_json"),
    ("carpnet.cli", "write_manifest", "artifacts.write_manifest"),
)
COUNTED = (
    ("carpnet.likelihood:TransitionSummary", "loglik", "likelihood.loglik_evals"),
    ("carpnet.steady_state", "fixed_point_map", "steady_state.map_calls"),
)
LAYERS = ("risks", "likelihood", "steady_state", "influence", "dynamics",
          "validation", "artifacts", "cli")

# Every per-layer metric with its unit, in the order they are reported.
UNITS = {
    "likelihood.fit_s": "s",
    "likelihood.fit_s_p90": "s",
    "likelihood.fit_count": "count",
    "likelihood.fit_iterations": "count",
    "likelihood.loglik_evals": "count",
    "likelihood.fit_failures": "count",
    "steady_state.solve_s": "s",
    "steady_state.solve_s_p90": "s",
    "steady_state.map_calls": "count",
    "steady_state.lower_sweeps": "count",
    "steady_state.nonunique": "count",
    "influence.risk_influence_s": "s",
    "influence.self_s": "s",
    "dynamics.run_cascades_s": "s",
    "dynamics.risk_steps": "count",
    "dynamics.ns_per_risk_step": "ns",
    "rng.draw_s": "s",
    "validation.recovery_self_s": "s",
    "risks.load_network_s": "s",
    "risks.load_history_s": "s",
    "artifacts.write_s": "s",
    "artifacts.bytes": "B",
    "cli.self_s": "s",
    **{f"{layer}.self_share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _on_fit(tracer, result, args, kwargs):
    tracer.counts["likelihood.fit_iterations"] += result.iterations


def _on_solve(tracer, result, args, kwargs):
    tracer.counts["steady_state.lower_sweeps"] += result.iterations
    tracer.counts["steady_state.nonunique"] += not result.unique


def _on_cascades(tracer, result, args, kwargs):
    call = inspect.signature(_owner("carpnet.dynamics").run_cascades).bind(*args, **kwargs)
    call.apply_defaults()
    n_risks = result.final_active.shape[1]
    tracer.counts["dynamics.risk_steps"] += len(result.run_indices) * result.n_steps * n_risks
    tracer.streams.append((
        tracer.run_id, int(call.arguments["master_seed"]),
        tuple(call.arguments["rng_path_prefix"]), result.run_indices, result.n_steps, n_risks,
    ))


HOOKS = {
    "likelihood.fit": _on_fit,
    "steady_state.solve": _on_solve,
    "dynamics.run_cascades": _on_cascades,
}


class Tracer:
    """Installs the wrappers for one command run at a time and keeps what they record."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent id or None, name, run id, start, end]
        self.counts: Counter = Counter()
        # (run id, master seed, stream prefix, run indices, steps, risks) per run_cascades call
        self.streams: list[tuple] = []
        self.run_id: int | None = None
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None, name,
                    self.run_id, time.perf_counter(), None]
            self.spans.append(span)
            self._open.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                span[5] = time.perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, run_id: int) -> None:
        self.run_id = run_id
        for table, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for owner_path, attr, name in table:
                owner = _owner(owner_path)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        keys = ("span", "parent", "name", "run", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def metrics(self, runs: list[int], *, rng_draw_s: float, artifact_bytes: int,
                overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics over the traced runs ``runs``.

        Per-call times are medians over calls; ``_s_p90`` is the 90th
        percentile.  Counts and per-layer times are per command run (counts
        as the mean, times as the median over runs).
        """
        calls = defaultdict(list)  # span name -> durations
        covered = defaultdict(float)  # span id -> time covered by its children
        for span in self.spans:
            if span[1] is not None:
                covered[span[1]] += span[5] - span[4]
        own = defaultdict(float)  # (layer, run) -> self time
        total = defaultdict(float)  # (name, run) -> summed duration
        for span_id, _, name, run, start, end in self.spans:
            calls[name].append(end - start)
            own[name.split(".")[0], run] += end - start - covered[span_id]
            total[name, run] += end - start

        def median(values):
            return statistics.median(values) if values else 0.0

        def p90(values):
            return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else median(values)

        def per_run(count):
            return self.counts[count] / len(runs)

        def self_s(layer):
            return median([own[layer, run] for run in runs])

        def time_in(*names):
            return median([sum(total[name, run] for name in names) for run in runs])

        fits = calls["likelihood.fit"]
        solves = calls["steady_state.solve"]
        cascade_s = sum(calls["dynamics.run_cascades"])
        steps = self.counts["dynamics.risk_steps"]
        all_self = sum(own.values())
        return {
            "likelihood.fit_s": median(fits),
            "likelihood.fit_s_p90": p90(fits),
            "likelihood.fit_count": len(fits) / len(runs),
            "likelihood.fit_iterations": per_run("likelihood.fit_iterations"),
            "likelihood.loglik_evals": per_run("likelihood.loglik_evals"),
            "likelihood.fit_failures": per_run("likelihood.fit.errors"),
            "steady_state.solve_s": median(solves),
            "steady_state.solve_s_p90": p90(solves),
            "steady_state.map_calls": per_run("steady_state.map_calls"),
            "steady_state.lower_sweeps": per_run("steady_state.lower_sweeps"),
            "steady_state.nonunique": per_run("steady_state.nonunique"),
            "influence.risk_influence_s": median(calls["influence.risk_influence"]),
            "influence.self_s": self_s("influence"),
            "dynamics.run_cascades_s": time_in("dynamics.run_cascades"),
            "dynamics.risk_steps": per_run("dynamics.risk_steps"),
            "dynamics.ns_per_risk_step": 1e9 * cascade_s / steps if steps else 0.0,
            "rng.draw_s": rng_draw_s,
            "validation.recovery_self_s": self_s("validation"),
            "risks.load_network_s": median(calls["risks.load_network"]),
            "risks.load_history_s": median(calls["risks.load_history"]),
            "artifacts.write_s": time_in("artifacts.write_csv", "artifacts.write_json",
                                         "artifacts.write_manifest"),
            "artifacts.bytes": artifact_bytes,
            "cli.self_s": self_s("cli"),
            **{f"{layer}.self_share": sum(v for (lay, _), v in own.items() if lay == layer)
               / all_self for layer in LAYERS},
            "trace.overhead_frac": overhead_frac,
        }
