#!/usr/bin/env python3
"""Layer harness: the solver and the grid search timed layer by layer, sources side by side.

    python3 benchmarks/bench.py --side parent=../parent/src --side change=src \\
        --passes 5 --out benchmarks/BENCH_<n>.json

Each ``--side LABEL=SRC`` names a source tree holding ``temptmenu``.  Every
pass runs each side once, in a child process of its own that imports the
library from that tree, and the order of the sides flips from one pass to
the next, so host drift falls on both alike.  A child times, for each cost
family (piecewise-linear with random ``l, k, w``; ``PowerCost(1, 2)``, whose
prices are root searches) at n = 3, 8, 64 and 1024:

* ``optimal_contract``, and ``classify_willpower_regime`` on the
  piecewise family (the classifier takes no other);
* on seeded random instances (``u, v, c`` uniform on ``[0, 20]``), the same
  instances on every side: the median over the instances of each one's
  best of ``--repeats`` calls, in milliseconds;
* beside each timing, the ``solver.psi_root`` calls per call, counted on
  one untimed call per instance: the work the timing is made of.

It also times ``grid_best_contract`` (bracketed) on the worked instance,
for both families (its piecewise cost; ``PowerCost(1, 2)``), on the bare
grid over ``[0, 20]`` at steps 0.5, 0.1, 0.05 and 0.01: the best of
``--repeats`` calls, with the search's ``tuples``, ``pruned`` and
``window_checks`` per menu size beside it.

The JSON written to ``--out`` holds the machine facts, the settings, and
per side and row the pass values in the order run.  The table printed at
the end gives each row's best pass per side.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import os
import random
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (3, 8, 64, 1024)
FAMILIES = ("piecewise", "power")
INSTANCES = {3: 15, 8: 15, 64: 15, 1024: 3}
SEED = 17
GRID_STEPS = (0.5, 0.1, 0.05, 0.01)
GRID_PRICE_MAX = 20.0
ROW_KEYS = ("layer", "family", "n", "step")


def draw_instances(tm, family: str, n: int, count: int) -> list:
    """``count`` valid random instances of ``n`` products, the same for every source."""
    rng = random.Random(f"{SEED}-{family}-{n}")
    out = []
    while len(out) < count:
        alts = tuple(
            tm.Alternative(f"a{i}", rng.uniform(0.0, 20.0), rng.uniform(0.0, 20.0),
                           rng.uniform(0.0, 20.0))
            for i in range(n)
        )
        if family == "power":
            cost = tm.PowerCost(1.0, 2.0)
        else:
            cost = tm.PiecewiseLinearCost(
                rng.uniform(0.05, 0.95), rng.uniform(1.05, 4.95), rng.uniform(0.0, 15.0)
            )
        try:
            out.append(tm.ProblemInstance(alts, cost))
        except ValueError:  # tied roles: draw again
            continue
    return out


def psi_root_calls(solver, fn, inst) -> int:
    """``solver.psi_root`` calls made by one ``fn(inst)``."""
    calls = 0
    search = solver.psi_root

    def counted(cost, y):
        nonlocal calls
        calls += 1
        return search(cost, y)

    solver.psi_root = counted
    try:
        fn(inst)
    finally:
        solver.psi_root = search
    return calls


def best_of(fn, inst, repeats: int) -> float:
    """The fastest of ``repeats`` calls of ``fn(inst)``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(inst)
        best = min(best, time.perf_counter() - t0)
    return best


def measure(tm, repeats: int, sizes=SIZES, instances=INSTANCES) -> list[dict]:
    """One pass over every layer, family and size: one row each."""
    layers = {
        "optimal_contract": (tm.optimal_contract, FAMILIES),
        "classify_willpower_regime": (tm.classify_willpower_regime, ("piecewise",)),
    }
    rows = []
    for layer, (fn, families) in layers.items():
        for family in families:
            for n in sizes:
                insts = draw_instances(tm, family, n, instances[n])
                calls = [psi_root_calls(tm.solver, fn, inst) for inst in insts]
                gc.collect()
                times = [best_of(fn, inst, repeats) for inst in insts]
                rows.append({
                    "layer": layer, "family": family, "n": n, "instances": len(insts),
                    "ms": 1e3 * statistics.median(times),
                    "psi_root_calls_per_call": statistics.mean(calls),
                })
    return rows


def worked_instance(tm, family: str):
    """The worked three-product instance, with its own cost or ``PowerCost(1, 2)``."""
    if family == "piecewise":
        cost = tm.PiecewiseLinearCost(0.5, 2.0, 1.0)
    else:
        cost = tm.PowerCost(1.0, 2.0)
    alts = (("A", 10.0, 10.0, 5.0), ("B", 8.0, 14.0, 5.0), ("C", 2.0, 16.0, 5.0))
    return tm.ProblemInstance(tuple(tm.Alternative(*a) for a in alts), cost)


def measure_grid(tm, repeats: int, steps=GRID_STEPS, price_max=GRID_PRICE_MAX) -> list[dict]:
    """The bracketed grid search on the worked instance: one row per family
    and step, with the search's work per menu size."""
    rows = []
    for family in FAMILIES:
        inst = worked_instance(tm, family)
        for step in steps:
            grid = tm.GridSpec(
                price_step=step, price_min=0.0, price_max=price_max,
                include_analytic_prices=False,
            )
            search = functools.partial(tm.grid_best_contract, grid=grid, mode="bracketed")
            _, stats = search(inst, stats=True)
            gc.collect()
            rows.append({
                "layer": "grid_best_contract", "family": family, "step": step,
                "ms": 1e3 * best_of(search, inst, repeats),
                "sizes": [
                    {"size": s.size, "tuples": s.tuples, "pruned": s.pruned,
                     "window_checks": s.window_checks}
                    for s in stats.sizes
                ],
            })
    return rows


def _worker(src: str, repeats: int) -> None:
    sys.path.insert(0, os.path.abspath(src))
    import temptmenu

    if not os.path.abspath(temptmenu.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"error: imported temptmenu from {temptmenu.__file__}, not {src}")
    print(json.dumps(measure(temptmenu, repeats) + measure_grid(temptmenu, repeats)))


def _machine() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py")
    )
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    facts = run.machine_facts(SEED)
    del facts["seed"]
    return facts


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--side", action="append", default=[], metavar="LABEL=SRC")
    ap.add_argument("--passes", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--out")
    ap.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return _worker(args.worker, args.repeats)
    sides = dict(s.split("=", 1) for s in args.side) or {"change": os.path.join(ROOT, "src")}
    passes = {label: [] for label in sides}
    for p in range(args.passes):
        order = list(sides) if p % 2 == 0 else list(reversed(sides))
        for label in order:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--worker", sides[label],
                 "--repeats", str(args.repeats)],
                check=True, capture_output=True, text=True,
            ).stdout
            passes[label].append(json.loads(out))
    rows = {}
    for label, runs in passes.items():
        for row_runs in zip(*runs):
            first = row_runs[0]
            key = tuple(first.get(k) for k in ROW_KEYS)
            entry = rows.setdefault(
                key, {k: first[k] for k in ROW_KEYS + ("instances",) if k in first}
            )
            # the work is the same on every pass: the first one's is kept
            entry.setdefault("sides", {})[label] = {
                "ms_per_pass": [r["ms"] for r in row_runs],
                **{k: v for k, v in first.items() if k not in entry and k != "ms"},
            }
    doc = {
        "command": "python3 benchmarks/bench.py " + " ".join(
            f"--side {label}=<src>" for label in sides
        ) + f" --passes {args.passes} --repeats {args.repeats}",
        "machine": _machine(),
        "method": (
            f"per solver row: median over the instances of each one's best of {args.repeats} "
            "calls, in ms, one value per pass, psi_root calls counted on one untimed call per "
            f"instance; per grid row: the best of {args.repeats} calls, in ms, one value per "
            "pass, the work per menu size counted on one untimed call; sides alternate which "
            "runs first"
        ),
        "sides": list(sides),
        "rows": list(rows.values()),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    labels = list(sides)
    print(f"{'layer':26} {'family':9} {'size':>10} " + " ".join(
        f"{label + ' ms':>14} {'work':>10}" for label in labels))
    for row in doc["rows"]:
        size = f"n={row['n']}" if "n" in row else f"step={row['step']}"
        cells = " ".join(
            f"{min(row['sides'][label]['ms_per_pass']):14.4f} {_work(row['sides'][label]):>10}"
            for label in labels
        )
        print(f"{row['layer']:26} {row['family']:9} {size:>10} {cells}")


def _work(side: dict) -> str:
    """A side's work in a table cell: ``psi_root`` calls per call, or the
    grid search's rows left after pruning over the rows walked, all sizes."""
    if "sizes" not in side:
        return f"{side['psi_root_calls_per_call']:.1f}"
    tuples = sum(s["tuples"] for s in side["sizes"])
    return f"{tuples - sum(s['pruned'] for s in side['sizes'])}/{tuples}"


if __name__ == "__main__":
    main()
