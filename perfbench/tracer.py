"""Outside-in layer tracer for qcount.

The package source stays untouched: `Tracer.install` replaces each listed
function at every module binding of its name inside the imported `qcount`
package (so `qcount.grover.apply_phase_flip` and
`qcount.statevector.apply_phase_flip` both record), plus `select` on both
oracle classes and `ExplicitSetOracle` construction. Each call records a span
(name, start, end, parent span, op id) in memory; self times and counters are
derived when the run ends. The program is single-threaded with no I/O
queues, so no layer waits on another and no wait times are reported.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = {
    "statevector": ("init_basis", "apply_hadamard", "apply_phase_flip", "apply_diffusion",
                    "controlled_apply", "probability_of_one", "register_probabilities",
                    "sample_bit"),
    "oracles": ("parse_oracle", "marked_indices", "ExplicitSetOracle", "select"),
    "grover": ("marked_count", "controlled_grover_power", "apply_grover"),
    "analytic": ("p1_exact", "pea_distribution"),
    "simple_count": ("run_simple_count", "step_state", "ensure_minority", "postprocess_arccos"),
    "pea": ("run_pea", "pea_state", "inverse_qft"),
    "cli": ("main", "cmd_run", "cmd_sweep", "cmd_repro"),
    "charts": ("line_chart",),
}

# Counters measured at layer boundaries, with their units.
COUNTERS = {
    "oracles.select.indices": "count",
    "oracles.ExplicitSetOracle.indices": "count",
    "grover.g_applications": "count",
    "grover.g_apps_per_model_cost": "ratio",
    "simple_count.steps": "count",
    "simple_count.doublings": "count",
    "statevector.state_bytes_peak": "bytes",
    "statevector.amps_touched": "count",
    "cli.bytes_written": "bytes",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for module, names in LAYERS.items():
        for name in names:
            units[f"{module}.{name}.self_s"] = "s"
            units[f"{module}.{name}.calls"] = "count"
    units.update(COUNTERS)
    for module in LAYERS:
        units[f"{module}.errors"] = "count"
    return units


class Tracer:
    """Span recorder for one traced run; `op` is set by the caller before each op."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op = -1
        self.paused = False
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.model_cost = 0

    def wrap(self, module: str, span_name: str, fn, after=None):
        """`fn` recording a span per call; `after(args, result)` updates counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[module] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (span_name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counter hooks -----------------------------------------------------

    def _count(self, key, amount):
        self.counters[key] += amount

    def _after_init_basis(self, args, state):
        peak = "statevector.state_bytes_peak"
        self.counters[peak] = max(self.counters[peak], 16 * state.amplitudes.shape[0])

    def _after_amps(self, args, state):
        self._count("statevector.amps_touched", state.amplitudes.shape[0])

    def _after_estimate(self, args, result):
        self.model_cost += result.controlled_grover_cost

    def _after_simple(self, args, result):
        self._after_estimate(args, result)
        self._count("simple_count.steps", len(result.trace))

    def _after_ensure_minority(self, args, result):
        self._count("simple_count.doublings", int(result.n > args[0].n))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function of the already imported qcount package."""
        import qcount.oracles as oracles

        hooks = {
            "statevector.init_basis": self._after_init_basis,
            "statevector.apply_phase_flip": self._after_amps,
            "statevector.apply_diffusion": self._after_amps,
            "grover.apply_grover": lambda a, r: self._count("grover.g_applications", 1),
            "simple_count.run_simple_count": self._after_simple,
            "simple_count.ensure_minority": self._after_ensure_minority,
            "pea.run_pea": self._after_estimate,
            "oracles.select": lambda a, r: self._count("oracles.select.indices", len(a[1])),
            "oracles.ExplicitSetOracle": lambda a, r: self._count(
                "oracles.ExplicitSetOracle.indices", len(a[0].indices)),
        }
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qcount" or name.startswith("qcount."))]
        for module, names in LAYERS.items():
            mod = sys.modules[f"qcount.{module}"]
            for name in names:
                span = f"{module}.{name}"
                if span == "oracles.ExplicitSetOracle":
                    cls = oracles.ExplicitSetOracle
                    cls.__init__ = self.wrap(module, span, cls.__init__, hooks.get(span))
                    continue
                if span == "oracles.select":
                    for cls in (oracles.ExplicitSetOracle, oracles.BitPatternOracle):
                        cls.select = self.wrap(module, span, cls.select, hooks.get(span))
                    continue
                original = getattr(mod, name)
                traced = self.wrap(module, span, original, hooks.get(span))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)

    # -- results -------------------------------------------------------------

    def add_bytes_written(self, amount: int) -> None:
        self._count("cli.bytes_written", amount)

    def metrics(self) -> dict[str, float]:
        """Self time and calls per function, the counters and per-layer errors."""
        units = metric_units()
        values = {name: 0 for name in units}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            values[f"{name}.self_s"] += (end - start) - child[sid]
            values[f"{name}.calls"] += 1
        for key, value in self.counters.items():
            values[key] = value
        g_apps = values["grover.g_applications"]
        values["grover.g_apps_per_model_cost"] = g_apps / self.model_cost if self.model_cost else 0
        for module, count in self.errors.items():
            values[f"{module}.errors"] = count
        return values

    def write_spans(self, path) -> None:
        """Spans as CSV: span id, name, start, end, parent span id (-1 for none), op id."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,name,start,end,parent,op\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op}\n")
