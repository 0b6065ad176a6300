#!/usr/bin/env python3
"""The temptmenu benchmark: four closed-loop workloads, checked op by op.

Run from the root of a source checkout (the library is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload population --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``population``,
``wide_sweep``, ``grid_verify`` and ``cli``.

With ``--trace 0`` the run runs whole rounds of operations until
``--seconds`` have been spent in rounds and the workload's minimum number
of rounds is done, sets the workload up nine times (``setup_s`` is the
median; most set-ups run between rounds) and reports the end-to-end
metrics, which ``BENCHMARK.json`` names.  With ``--trace 1`` it spends
half of ``--seconds`` untraced and half with wrappers around every layer
boundary, and reports per-layer numbers normalized per operation plus the
tracing overhead.  Human-readable lines (machine facts, every metric with
its unit, every failed operation with its reason, the result digest) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report,
and in a traced run the spans, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 9
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def load_metric_units(root: str) -> tuple[dict, dict]:
    """Metric names and units of ``BENCHMARK.json``: (end-to-end, per-layer)."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def as_metrics(values: dict, units: dict) -> dict:
    """The result's ``metrics`` object: exactly the metrics ``BENCHMARK.json`` names."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"error: no value for metrics {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def locate_source(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "temptmenu", "__init__.py")):
        sys.stderr.write(
            f"error: no library source at {src}/temptmenu; run from the root of a checkout\n"
        )
        raise SystemExit(2)
    return src


def import_library(src: str):
    sys.path.insert(0, src)
    import temptmenu

    if not os.path.abspath(temptmenu.__file__).startswith(src + os.sep):
        sys.stderr.write(f"error: imported temptmenu from {temptmenu.__file__}, not {src}\n")
        raise SystemExit(2)
    return temptmenu


# -- machine facts -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_kib(name: str):
    try:
        size = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return size // 1024 if size and size > 0 else None


def _version(dist: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def machine_facts(seed: int) -> dict:
    import numpy

    try:
        import numba  # noqa: F401  - decides which search kernels can run

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_kib": _cache_kib("SC_LEVEL2_CACHE_SIZE"),
        "l3_kib": _cache_kib("SC_LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": _version("click"),
        "pyyaml": _version("PyYAML"),
        "numba_imports": numba_imports,
        "seed": seed,
    }


# -- measurement -------------------------------------------------------------


class Phase:
    """Outcomes of one measured phase: whole rounds of a workload's ops.

    Each op position is timed once per round, and the timing metrics are
    taken over one time per op: its best over the rounds or its median,
    as the workload says (``Workload.op_time``).
    """

    def __init__(self, ops):
        self.labels = [op.label for op in ops]
        self.samples: list[list[float]] = [[] for _ in ops]
        self.rounds = 0
        self.first_round: list[list] = []
        self.failures: list[tuple] = []  # (label, reason, expected), first round
        self.unstable: list[str] = []  # ops whose outcome changed between rounds
        self.executed = 0
        self.seconds = 0.0

    @property
    def attempted(self) -> int:
        """Distinct operations: each runs once a round with the same outcome."""
        return len(self.labels)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexpected(self) -> int:
        return sum(not expected for _, _, expected in self.failures)

    def op_times(self, stat: str) -> list[float]:
        """Each op's best (``"min"``) or median time over the rounds, ascending."""
        pick = min if stat == "min" else statistics.median
        return sorted(pick(s) for s in self.samples)

    def throughput(self, stat: str) -> float:
        """Successful ops per second of one round run at ``op_times(stat)``."""
        return (self.attempted - self.failed) / sum(self.op_times(stat))

    def digest(self) -> str:
        blob = json.dumps(self.first_round, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


def run_phase(
    ops, seconds: float, min_rounds: int = 1, tracer=None, op_base: int = 0,
    between_rounds=None,
) -> Phase:
    """Run whole rounds until ``seconds`` of rounds and ``min_rounds`` are done."""
    phase = Phase(ops)
    clock = time.perf_counter
    while phase.seconds < seconds or phase.rounds < min_rounds:
        round_start = clock()
        for i, op in enumerate(ops):
            t0 = clock()
            if tracer is None:
                out = op.run()
            else:
                tracer.op_id = op_base + phase.executed
                out = tracer.call("op", op.run)
            phase.samples[i].append(clock() - t0)
            phase.executed += 1
            if phase.rounds == 0:
                phase.first_round.append([op.label, out.failure, out.record])
                if out.failure is not None:
                    phase.failures.append((op.label, out.failure, out.expected_defect))
            elif [op.label, out.failure, out.record] != phase.first_round[i]:
                phase.unstable.append(f"{op.label} in round {phase.rounds + 1}")
        phase.seconds += clock() - round_start
        phase.rounds += 1
        if between_rounds is not None:
            between_rounds(phase.seconds)
    return phase


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if samples * (100.0 - q) / 100.0 >= 10.0:
            best = q
    return best


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def import_ms(src: str, env: dict, repeats: int = 5) -> float:
    """Subprocess ``import temptmenu`` minus a bare interpreter start, medians."""
    bare, full = [], []
    for _ in range(repeats):
        for argv, sink in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import temptmenu"], full)):
            t0 = time.perf_counter()
            subprocess.run(argv, env=env, check=True, timeout=60)
            sink.append(time.perf_counter() - t0)
    return (statistics.median(full) - statistics.median(bare)) * 1e3


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("population", "wide_sweep", "grid_verify", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = locate_source(root)
    e2e_units, layer_units = load_metric_units(root)
    import_library(src)
    import workloads  # needs the library on sys.path
    from tracing import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    facts = machine_facts(args.seed)
    print("machine: " + json.dumps(facts))

    specs = workloads.plan(args.workload, args.seed)
    setup_times: list[float] = []

    def set_up():
        gc.collect()  # do not charge the rounds' garbage to set-up
        t0 = time.perf_counter()
        built = workloads.build(args.workload, specs, args.seed, OUT_DIR, src)
        setup_times.append(time.perf_counter() - t0)
        return built

    def spread_set_up(span: float):
        # later set-ups run between rounds, spaced evenly over the measured
        # time, so they sample the host's speed drift the way the rounds do
        def maybe(elapsed: float):
            due = len(setup_times) * span / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and elapsed >= due:
                set_up()

        return maybe

    wl = set_up()
    print(f"workload {wl.name}: {len(wl.round)} ops per round, seed {args.seed}")

    tracer = None
    if args.trace:
        half = args.seconds / 2.0
        plain = run_phase(wl.ops_for(traced=True), half, between_rounds=spread_set_up(half))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(
                wl.ops_for(traced=True), half, tracer=tracer, op_base=plain.executed
            )
        finally:
            tracer.uninstall()
        phases = [plain, traced]
    else:
        phases = [run_phase(
            wl.round, args.seconds, wl.min_rounds, between_rounds=spread_set_up(args.seconds)
        )]
    measured = phases[0]  # end-to-end numbers come from untraced rounds
    while len(setup_times) < SETUP_REPEATS:
        set_up()
    setup_s = statistics.median(setup_times)

    problems = []
    for check in wl.checks:
        problems += check()
    if args.trace and plain.digest() != traced.digest():
        problems.append("traced and untraced rounds returned different results")
    for phase in phases:
        problems += [f"outcome changed: {where}" for where in phase.unstable[:20]]

    # every round repeats the same ops with the same outcomes, so attempted
    # and failed count the distinct ops of one round
    attempted, failed = measured.attempted, measured.failed
    correct = not problems and measured.unexpected == 0
    failed_ratio = failed / attempted

    times = measured.op_times(wl.op_time)
    # the percentile depends on the round size and the workload's minimum
    # round count only, so it is the same in every run of the workload
    q_tail = tail_percentile(measured.attempted * wl.min_rounds)
    e2e = {
        "setup_s": setup_s,
        "throughput_ops_s": measured.throughput(wl.op_time),
        "latency_p50_ms": percentile(times, 50.0) * 1e3,
        "latency_tail_ms": percentile(times, q_tail) * 1e3,
        "peak_rss_mb": peak_rss_mb(wl.uses_children and not args.trace),
    }
    print(f"measured {measured.seconds:.2f} s in {measured.rounds} rounds of "
          f"{measured.attempted} ops; op times are each op's "
          f"{'best' if wl.op_time == 'min' else 'median'} of {measured.rounds}; "
          f"latency_tail_ms is p{q_tail:g} of {len(times)} op times ({measured.executed} "
          f"samples); set-up x{len(setup_times)}")
    for name, value in e2e.items():
        print(f"metric {name} = {value:.6g} {e2e_units[name]}")
    print(f"metric failed_ratio = {failed_ratio:.6g} ratio ({failed} of {attempted} ops)")
    print(f"digest {wl.name}: sha256 {measured.digest()} over the first round "
          f"({len(measured.first_round)} ops)")

    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "setup_times_s": setup_times,
        "end_to_end": e2e, "failed_ratio": failed_ratio,
        "latency_tail_percentile": q_tail, "rounds": measured.rounds,
        "op_times_s": dict(zip(measured.labels, measured.samples)),
        "digest": measured.digest(),
        "first_round": measured.first_round,
        "problems": problems,
    }

    if args.trace:
        layers = tracer.layer_metrics(traced.executed)
        env = workloads.cli_env(src)
        layers["import.temptmenu_ms"] = import_ms(src, env) if wl.name == "cli" else 0.0
        layers["trace.untraced_throughput_ops_s"] = plain.throughput(wl.op_time)
        layers["trace.traced_throughput_ops_s"] = traced.throughput(wl.op_time)
        layers["trace.throughput_ratio"] = (
            layers["trace.traced_throughput_ops_s"] / layers["trace.untraced_throughput_ops_s"]
        )
        layers["failed_ratio"] = failed_ratio
        for key, value in layers.items():
            print(f"layer {key} = {value:.6g} {layer_units.get(key, '')}")
        for name in tracer.missing:
            print(f"missing boundary: {name}")
        span_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.csv")
        tracer.write(span_path)
        print(f"spans: {len(tracer.spans)} kept, {tracer.dropped_spans} dropped -> {span_path}")
        report.update(per_layer=layers, missing=tracer.missing)
        metrics = as_metrics(layers, layer_units)
    else:
        metrics = as_metrics(e2e, e2e_units)

    for label, reason, expected in measured.failures:
        kind = "known defect" if expected else "FAILURE"
        print(f"failed op {label} ({kind}): {reason}")
    for problem in problems:
        print(f"check failed: {problem}")
    report["failures"] = [
        {"op": label, "reason": reason, "known_defect": expected}
        for label, reason, expected in measured.failures
    ]
    report_path = os.path.join(
        OUT_DIR, f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"report: {report_path}")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
