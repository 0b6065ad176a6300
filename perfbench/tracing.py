"""Spans around calls into the library's layers, for the traced run only.

``Tracer.install`` replaces each boundary function with a timing wrapper
at every ``temptmenu`` module namespace where the same function object is
bound (``optimal_contract`` lives in ``solver`` but is also bound in
``statics``, ``cli`` and the package root), so calls between modules are
seen as well as calls from the benchmark.  A boundary missing at some
commit is reported as missing instead of failing the run.

Each span records its name, start, end, parent span and operation id.
Spans are kept in memory and written out when the run ends; per-name
call counts, inclusive ("busy") time and self time (inclusive time minus
the time covered by child spans) are accumulated as spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

# (module, attribute, span name)
BOUNDARIES = (
    ("temptmenu.solver", "optimal_contract", "solver.optimal_contract"),
    ("temptmenu.solver", "best_contract_for", "solver.best_contract_for"),
    ("temptmenu.solver", "solve_monotone_price", "solver.solve_monotone_price"),
    ("temptmenu.solver", "classify_willpower_regime", "solver.classify_willpower_regime"),
    ("temptmenu.statics", "sweep_willpower", "statics.sweep_willpower"),
    ("temptmenu.model", "overall_utilities", "model.overall_utilities"),
    ("temptmenu.model", "realized_outcome", "model.realized_outcome"),
    ("temptmenu.oracle", "verify_solution", "oracle.verify_solution"),
    ("temptmenu.oracle", "grid_best_contract", "oracle.grid_best_contract"),
    ("temptmenu._kernels", "search_subset", "kernels.search_subset"),
    ("temptmenu.instancefile", "load_instance", "instancefile.load_instance"),
)
CLI_COMMANDS = ("solve", "classify", "sweep", "verify")
KERNEL_MODES = ("exhaustive", "bracketed")
KERNEL_SIZES = (2, 3)


def _layer_keys() -> list[str]:
    keys = [
        "solver.optimal_contract.calls", "solver.optimal_contract.self_ms",
        "solver.best_contract_for.calls", "solver.best_contract_for.self_ms",
        "solver.solve_monotone_price.calls", "solver.solve_monotone_price.residual_evals",
        "solver.solve_monotone_price.busy_ms", "solver.solve_monotone_price.failed",
        "solver.classify_willpower_regime.calls", "solver.classify_willpower_regime.self_ms",
        "statics.sweep_willpower.calls", "statics.sweep_willpower.points",
        "statics.sweep_willpower.self_ms",
        "model.overall_utilities.calls", "model.overall_utilities.busy_ms",
        "model.realized_outcome.calls", "model.realized_outcome.busy_ms",
        "oracle.verify_solution.calls", "oracle.verify_solution.busy_ms",
        "oracle.verify_solution.failed",
        "oracle.grid_best_contract.calls", "oracle.grid_best_contract.self_ms",
        "oracle.grid_best_contract.tuples",
        "oracle.grid_best_contract.chose_exhaustive",
        "oracle.grid_best_contract.chose_bracketed",
    ]
    for mode in KERNEL_MODES:
        for m in KERNEL_SIZES:
            base = f"kernels.search_subset.{mode}.m{m}"
            keys += [f"{base}.calls", f"{base}.busy_ms", f"{base}.tuples", f"{base}.ns_per_tuple"]
    keys += ["kernels.search_subset.empty_ratio"]
    keys += ["instancefile.load_instance.calls", "instancefile.load_instance.busy_ms"]
    keys += [f"cli.{c}.self_ms" for c in CLI_COMMANDS]
    return keys


LAYER_KEYS = tuple(_layer_keys())


class _Stat:
    __slots__ = ("calls", "busy_ns", "self_ns", "failed")

    def __init__(self):
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.failed = 0


class Tracer:
    def __init__(self, max_kept_spans: int = 100_000):
        self.max_kept_spans = max_kept_spans
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.op_id = -1
        self._stack: list[list] = []  # [span id, child ns]
        self._next_id = 0
        self._restore: list[tuple] = []
        self._grid_modes: list[set] = []

    # -- spans ---------------------------------------------------------------

    def _open(self) -> tuple[int, int, float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([span_id, 0])
        return span_id, parent, time.perf_counter_ns()

    def _close(self, name: str, span_id: int, parent: int, start: int, failed: bool):
        end = time.perf_counter_ns()
        _, child_ns = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        st = self.stats[name]
        st.calls += 1
        st.busy_ns += dur
        st.self_ns += dur - child_ns
        st.failed += failed
        if len(self.spans) < self.max_kept_spans:
            self.spans.append((span_id, parent, self.op_id, name, start, end))
        else:
            self.dropped_spans += 1

    def call(self, name: str, fn, args=(), kwargs=None, bad=None):
        """Run ``fn`` inside a span; it failed if it raised or ``bad(result)``."""
        span_id, parent, start = self._open()
        failed = True
        try:
            out = fn(*args, **(kwargs or {}))
            failed = bad is not None and bad(out)
            return out
        finally:
            self._close(name, span_id, parent, start, failed)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "solver.solve_monotone_price":
            return self._wrap_root_finder(name, fn)
        if name == "kernels.search_subset":
            return self._wrap_kernel(fn)
        if name == "oracle.grid_best_contract":
            return self._wrap_grid(name, fn)
        if name == "statics.sweep_willpower":
            return self._wrap_counting_results(name, fn, "statics.sweep_willpower.points")
        # a verification report that did not pass counts as a failed call
        bad = (lambda report: not report.passed) if name == "oracle.verify_solution" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, bad)

        return wrapper

    def _wrap_root_finder(self, name: str, fn):
        key = f"{name}.residual_evals"

        def counted(residual):
            def inner(p):
                self.counts[key] += 1
                return residual(p)

            return inner

        @functools.wraps(fn)
        def wrapper(residual, *args, **kwargs):
            return self.call(name, fn, (counted(residual), *args), kwargs)

        return wrapper

    def _wrap_counting_results(self, name: str, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            self.counts[key] += len(out)
            return out

        return wrapper

    def _wrap_grid(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._grid_modes.append(set())
            try:
                return self.call(name, fn, args, kwargs)
            finally:
                for mode in self._grid_modes.pop():
                    self.counts[f"{name}.chose_{mode}"] += 1

        return wrapper

    def _wrap_kernel(self, fn):
        # bind by parameter name, so the wrapper survives signature changes
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind_partial(*args, **kwargs).arguments
            prices = bound.get("prices")
            mode = bound.get("mode", "unknown")
            m = len(prices) if prices is not None else 0
            tuples = math.prod(len(p) for p in prices) if prices is not None else 0
            name = f"kernels.search_subset.{mode}.m{m}"
            out = self.call(name, fn, args, kwargs)
            self.counts[f"{name}.tuples"] += tuples
            self.counts["kernels.search_subset.calls"] += 1
            self.counts["kernels.search_subset.empty"] += out is None
            if self._grid_modes:
                self.counts["oracle.grid_best_contract.tuples"] += tuples
                if m >= 2:  # single offers are priced without a search kernel mode
                    self._grid_modes[-1].add(mode)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every boundary at every module namespace that binds it."""
        targets = []
        for module_name, attr, name in BOUNDARIES:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            targets.append((original, self._wrap(name, original)))
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "temptmenu" or key.startswith("temptmenu."))
        ]
        for original, wrapper in targets:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        self._install_cli()

    def _install_cli(self) -> None:
        try:
            group = importlib.import_module("temptmenu.cli").main
        except (ImportError, AttributeError):
            self.missing.append("temptmenu.cli.main")
            return
        for command in CLI_COMMANDS:
            cmd = getattr(group, "commands", {}).get(command)
            if cmd is None or cmd.callback is None:
                self.missing.append(f"temptmenu.cli.{command}")
                continue
            original = cmd.callback
            name = f"cli.{command}"

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.call(_name, _fn, args, kwargs)

            cmd.callback = functools.update_wrapper(wrapper, original)
            self._restore.append((cmd, "callback", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer numbers normalized per workload operation."""
        per_op = 1.0 / max(ops, 1)
        out: dict[str, float] = {}

        def stat(name: str) -> _Stat:
            return self.stats.get(name, _Stat())

        for key in LAYER_KEYS:
            name, _, field = key.rpartition(".")
            st = stat(name)
            if field == "calls":
                out[key] = st.calls * per_op
            elif field == "self_ms":
                out[key] = st.self_ns / 1e6 * per_op
            elif field == "busy_ms":
                out[key] = st.busy_ns / 1e6 * per_op
            elif field == "failed":
                out[key] = st.failed * per_op
            elif field == "ns_per_tuple":
                tuples = self.counts[f"{name}.tuples"]
                out[key] = st.busy_ns / tuples if tuples else 0.0
            elif field == "empty_ratio":
                calls = self.counts[f"{name}.calls"]
                out[key] = self.counts[f"{name}.empty"] / calls if calls else 0.0
            else:  # exact work counters
                out[key] = self.counts[key] * per_op
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,op_id,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(str(x) for x in span) + "\n")
            if self.dropped_spans:
                fh.write(f"# {self.dropped_spans} further spans counted but not kept\n")
