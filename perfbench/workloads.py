"""Seeded inputs, operations and output checks for the four workloads.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has returned.  A workload's inputs are a fixed
cycle of operations (a "round"); the measured loop runs whole rounds, so the
operation mix, the median and the work counts do not depend on where the
clock happened to stop.

``plan`` draws the inputs from the seed as plain numbers (untimed; rejection
sampling makes its cost depend on the seed).  ``build`` is the timed set-up:
it turns the plan into library objects, computes the expected answers,
writes the CLI's files and warms up, a fixed amount of library work.

Inputs are drawn here rather than through the test suite's helpers, so a
test refactor cannot change the benchmark's traffic.

Each operation returns an ``Outcome``: a record of full-double results
(hashed into the run's digest) and, when it failed, the reason.  An
operation fails when the library raises or when its output fails the
operation's check.  ``Outcome.expected_defect`` marks failures the library
is known to have: on the population workload's badly-scaled panel, and
CLI ``verify`` on a market whose analytic profit is negative.  Any other
failure makes the run incorrect, and so does an operation whose outcome
differs from one round to the next.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

import temptmenu as tm
from temptmenu import cli as tm_cli
from temptmenu import instancefile as tm_instancefile

# Willpower grid of the sweeps, as the CLI's `sweep --w-from 0 --w-to 15
# --w-steps 25` builds it.
SWEEP_W_FROM, SWEEP_W_TO, SWEEP_W_STEPS = 0.0, 15.0, 25

# The CLI `verify` acceptance band: [profit - 3*step, profit + 1e-9].
BAND_STEPS, BAND_SLACK = 3.0, 1e-9

# Grid-search instances are redrawn until the CLI `verify` price range
# [0, ceil(max(u, offer prices)) + 1] ends at this value, so the number of
# price tuples per search, and with it the cost of an operation, is the
# same for every seed.
GRID_PRICE_MAX = 21.0


@dataclass
class Outcome:
    record: tuple
    failure: str | None = None
    expected_defect: bool = False


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]


@dataclass
class Workload:
    """A built workload: one round of operations plus its untimed checks."""

    name: str
    round: list[Op]
    traced_round: list[Op] | None = None
    checks: list[Callable[[], list[str]]] = field(default_factory=list)
    min_rounds: int = 1
    uses_children: bool = False
    # One time per op for the timing metrics: its "median" over the rounds,
    # or its best ("min") where a run holds many rounds of sub-millisecond
    # ops.  Recomputed from the same runs on the shared 2-vCPU host this was
    # tuned on, best-of-70 population throughput spread 1.5% between runs
    # against 6% for medians, and median CLI throughput 2-6% against 9-10%
    # for best-of-10.
    op_time: str = "median"

    def ops_for(self, traced: bool) -> list[Op]:
        return self.traced_round if traced and self.traced_round else self.round


# -- instance generation -----------------------------------------------------


def _runner_up_gap(values: np.ndarray) -> float:
    top = np.sort(values)
    return float(top[-1] - top[-2])


def draw_piecewise(
    rng: np.random.Generator,
    n: int,
    *,
    min_e_gap: float = 0.1,
    argmax_margin: float = 1e-6,
) -> tm.ProblemInstance:
    """Random valid piecewise-linear instance with ``n`` alternatives.

    u, v and c are uniform on [0, 20], l on (0.05, 0.95), k on (1.05, 4.95)
    and w on [0, 15].  Draws whose excess temptations come closer than
    ``min_e_gap``, or whose u - c, v - c and regime argmaxes are decided by
    less than ``argmax_margin``, are redrawn.
    """
    while True:
        u = rng.uniform(0.0, 20.0, n)
        v = rng.uniform(0.0, 20.0, n)
        c = rng.uniform(0.0, 20.0, n)
        if np.min(np.diff(np.sort(v - u))) < min_e_gap:
            continue
        l = float(rng.uniform(0.05, 0.95))
        k = float(rng.uniform(1.05, 4.95))
        w = float(rng.uniform(0.0, 15.0))
        fk = (u + k * v) / (1.0 + k) - c
        fl = (u + l * v) / (1.0 + l) - c
        if min(_runner_up_gap(x) for x in (u - c, v - c, fk, fl)) < argmax_margin:
            continue
        try:
            return tm.ProblemInstance(
                tuple(
                    tm.Alternative(f"a{i}", float(u[i]), float(v[i]), float(c[i]))
                    for i in range(n)
                ),
                tm.PiecewiseLinearCost(l=l, k=k, w=w),
            )
        except ValueError:  # includes AssumptionViolated
            continue


def with_power(inst: tm.ProblemInstance, alpha: float, gamma: float) -> tm.ProblemInstance:
    return tm.ProblemInstance(inst.alternatives, tm.PowerCost(alpha=alpha, gamma=gamma))


def draw_power(rng: np.random.Generator, n: int) -> tm.ProblemInstance:
    base = draw_piecewise(rng, n)
    return with_power(base, float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.2, 6.0)))


def scaled(inst: tm.ProblemInstance, factor: float) -> tm.ProblemInstance:
    """The same market in other money units: u, v, c (and w) times ``factor``."""
    alts = tuple(
        tm.Alternative(a.id, a.u * factor, a.v * factor, a.c * factor)
        for a in inst.alternatives
    )
    cost = inst.cost_fn
    if isinstance(cost, tm.PiecewiseLinearCost):
        cost = replace(cost, w=cost.w * factor)
    return tm.ProblemInstance(alts, cost)


def cli_price_max(inst: tm.ProblemInstance, sol) -> float:
    """Upper end of the CLI `verify` default price range."""
    ceiling = max(
        max(a.u for a in inst.alternatives),
        max(o.price for o in sol.contract.offers),
    )
    return float(math.ceil(ceiling) + 1)


def draw_grid_instance(rng: np.random.Generator, n: int, power: bool):
    """Small instance whose CLI price range ends at ``GRID_PRICE_MAX``."""
    while True:
        inst = draw_power(rng, n) if power else draw_piecewise(rng, n)
        sol = tm.optimal_contract(inst)
        if cli_price_max(inst, sol) == GRID_PRICE_MAX:
            return inst, sol


def to_spec(inst: tm.ProblemInstance) -> tuple:
    """An instance as plain numbers, so set-up can rebuild the library objects."""
    cost = inst.cost_fn
    if isinstance(cost, tm.PiecewiseLinearCost):
        params = ("piecewise", cost.l, cost.k, cost.w)
    else:
        params = ("power", cost.alpha, cost.gamma)
    return tuple((a.id, a.u, a.v, a.c) for a in inst.alternatives), params


def from_spec(spec: tuple) -> tm.ProblemInstance:
    alts, (kind, *params) = spec
    cost = tm.PiecewiseLinearCost(*params) if kind == "piecewise" else tm.PowerCost(*params)
    return tm.ProblemInstance(tuple(tm.Alternative(*a) for a in alts), cost)


def grid_target(sol) -> float:
    """Profit the grid oracle should find: the analytic optimum, or 0 if negative.

    ``grid_best_contract`` returns None when walking away (profit 0) beats
    every menu, while ``optimal_contract`` always prices some menu.
    """
    return max(sol.profit, 0.0)


def is_piecewise(inst: tm.ProblemInstance) -> bool:
    return isinstance(inst.cost_fn, tm.PiecewiseLinearCost)


def solution_record(sol) -> tuple:
    """Sold id, kind, offer ids and prices, profit, welfare as full doubles."""
    if sol is None:
        return ("none",)
    return (
        sol.sold.id,
        sol.kind.value,
        tuple((o.alternative.id, repr(o.price)) for o in sol.contract.offers),
        repr(sol.profit),
        repr(sol.welfare),
    )


def _failure(exc: BaseException) -> str:
    text = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {text[:120]}"


# -- population --------------------------------------------------------------

POPULATION_POOL = 1000
BAD_SCALE_EVERY = 10  # one op in ten runs on the badly-scaled panel
BAD_PANEL_SEED = 20190717


def _draw_population_instance(rng: np.random.Generator, bad: bool):
    n = int(rng.integers(3, 9))
    power = bool(rng.random() < 0.5)
    inst = draw_power(rng, n) if power else draw_piecewise(rng, n)
    tag = "power" if power else "piecewise"
    if bad:
        if power and rng.random() < 0.5:
            gamma = float(rng.uniform(50.0, 100.0))
            inst = with_power(inst, inst.cost_fn.alpha, gamma)
            tag += f":gamma={gamma:.4g}"
        else:
            factor = float(10.0 ** rng.uniform(6.0, 9.0))
            try:
                inst = scaled(inst, factor)
            except ValueError:  # scaling produced an exact tie; keep unit scale
                bad = False
            else:
                tag += f":x{factor:.3g}"
    return to_spec(inst), tag, bad


def plan_population(seed: int) -> list:
    """Random instances like the paper's population study, n 3-8.

    Half keep the piecewise-linear cost (closed-form prices), half get a
    power cost (bisection).  One op in ten runs on a badly-scaled instance:
    values times 1e6-1e9, or a power cost with gamma >= 50.  The badly
    scaled instances are a fixed panel, the same for every seed, so the
    number of ops that fail on the library's known scale defects is a
    property of the library, not of the seed; the other nine in ten are
    drawn from the seed.
    """
    rng = np.random.default_rng([seed, 1])
    panel = np.random.default_rng([BAD_PANEL_SEED, 1])
    return [
        _draw_population_instance(panel, True)
        if i % BAD_SCALE_EVERY == BAD_SCALE_EVERY - 1
        else _draw_population_instance(rng, False)
        for i in range(POPULATION_POOL)
    ]


def build_population(pool: list) -> Workload:
    def make(i: int) -> Op:
        spec, tag, bad = pool[i]
        inst = from_spec(spec)

        def run() -> Outcome:
            try:
                sol = tm.optimal_contract(inst)
                report = tm.verify_solution(sol, inst)
                record = solution_record(sol)
                if not report.passed:
                    names = ",".join(c.name for c in report.failures)
                    return Outcome(record, f"verify_solution failed: {names}", bad)
                if is_piecewise(inst):
                    reg = tm.classify_willpower_regime(inst)
                    price = sol.contract.intended_offer.price
                    record += (reg.case_index, reg.sold.id, repr(reg.price))
                    if reg.sold.id != sol.sold.id or abs(reg.price - price) > 1e-8:
                        return Outcome(
                            record,
                            f"classifier predicts {reg.sold.id} at {reg.price!r}, "
                            f"solver sells {sol.sold.id} at {price!r}",
                            bad,
                        )
                return Outcome(record)
            except Exception as exc:  # a failed op is counted, not fatal
                return Outcome(("error", type(exc).__name__), _failure(exc), bad)

        return Op(f"population#{i}[n={len(inst)},{tag}]", run)

    return Workload(
        "population", [make(i) for i in range(len(pool))], min_rounds=3, op_time="min"
    )


# -- wide_sweep --------------------------------------------------------------

WIDE_SIZES = (32, 48, 64, 96, 128)


def sweep_grid() -> list[float]:
    return [float(x) for x in np.linspace(SWEEP_W_FROM, SWEEP_W_TO, SWEEP_W_STEPS)]


def check_sweep(records) -> str | None:
    """Contract-curve invariants: profit falls and welfare rises with w."""
    if len(records) < SWEEP_W_STEPS:
        return f"sweep returned {len(records)} points, expected >= {SWEEP_W_STEPS}"
    profits = [r.profit for r in records]
    welfares = [r.welfare for r in records]
    if any(b > a + 1e-9 for a, b in zip(profits, profits[1:])):
        return "profit rises with willpower"
    if any(b < a - 1e-9 for a, b in zip(welfares, welfares[1:])):
        return "welfare falls with willpower"
    if any(r.case_index not in (1, 2, 3, 4) for r in records):
        return "regime case outside 1..4"
    return None


# Wide instances are redrawn until this many of the 25 sweep points fall in
# willpower range 2, where the classifier falls back to a direct solve and a
# point costs about twice as much; so a sweep costs the same for every seed.
WIDE_RANGE2_POINTS = (10, 15)


def plan_wide_sweep(seed: int) -> list:
    """Wide piecewise instances, n 32-128, each swept at 25 willpower points.

    The minimum excess-temptation gap shrinks with n (0.8 / n), because the
    test suite's fixed 0.1 gap makes rejection sampling stall at this size.
    """
    rng = np.random.default_rng([seed, 2])
    grid = sweep_grid()
    lo, hi = WIDE_RANGE2_POINTS
    specs = []
    for n in WIDE_SIZES:
        while True:
            inst = draw_piecewise(rng, n, min_e_gap=0.8 / n)
            t0, t1, _ = tm.classify_willpower_regime(inst).thresholds
            if lo <= sum(t0 < w < t1 for w in grid) <= hi:
                specs.append(to_spec(inst))
                break
    return specs


def build_wide_sweep(specs: list) -> Workload:
    grid = sweep_grid()
    insts = [from_spec(spec) for spec in specs]
    for inst in insts:  # every instance must solve before it is swept
        tm.optimal_contract(inst)

    def make(i: int, inst) -> Op:
        def run() -> Outcome:
            try:
                records = tm.sweep_willpower(inst, grid)
                curve = tm.contract_curve(records)
            except Exception as exc:
                return Outcome(("error", type(exc).__name__), _failure(exc))
            record = tuple(
                (repr(r.w), r.case_index, r.sold_id, repr(r.price), repr(r.profit))
                for r in records
            )
            if len(curve) != len(records):
                return Outcome(record, "contract curve length differs from the sweep")
            return Outcome(record, check_sweep(records))

        return Op(f"wide_sweep#{i}[n={len(inst)}]", run)

    return Workload("wide_sweep", [make(i, inst) for i, inst in enumerate(insts)], min_rounds=8)


# -- grid_verify -------------------------------------------------------------

# (n, power cost?, price step); steps alternate op by op.  At step 0.1 the
# n = 3 searches stay under auto's exhaustive limit and the n = 4 ones go
# over it; every step-0.05 search is bracketed.  n = 4 at step 0.05 (2.3 s a
# search here) is left out so that a run repeats each search several times.
GRID_CLASSES = (
    (3, False, 0.1), (3, True, 0.05), (4, False, 0.1), (3, False, 0.05),
    (3, True, 0.1), (3, True, 0.05), (4, True, 0.1), (3, False, 0.05),
)
AGREEMENT_STEP = 0.5


def grid_spec(step: float, *, analytic: bool = True) -> tm.GridSpec:
    return tm.GridSpec(
        price_step=step, price_min=0.0, price_max=GRID_PRICE_MAX,
        include_analytic_prices=analytic,
    )


def mode_agreement(seed: int) -> list[str]:
    """Untimed: both search modes return the identical menu on a seeded sample.

    With analytic prices injected, both must also hit the analytic profit
    within 1e-9.  Coarse grids keep the exhaustive reference cheap.
    """
    rng = np.random.default_rng([seed, 5])
    problems = []
    for n, power in ((3, False), (3, True), (4, False), (4, True)):
        inst, sol = draw_grid_instance(rng, n, power)
        for analytic in (True, False):
            grid = grid_spec(AGREEMENT_STEP, analytic=analytic)
            results = {
                mode: tm.grid_best_contract(inst, grid, mode=mode)
                for mode in ("exhaustive", "bracketed")
            }
            ex, br = (solution_record(results[m]) for m in ("exhaustive", "bracketed"))
            where = f"n={n} {'power' if power else 'piecewise'} analytic={analytic}"
            if ex != br:
                problems.append(f"mode disagreement ({where}): exhaustive {ex} bracketed {br}")
            if analytic:
                for mode, best in results.items():
                    got = best.profit if best is not None else 0.0
                    if abs(got - grid_target(sol)) > 1e-9:
                        problems.append(
                            f"{mode} misses the analytic profit ({where}): "
                            f"{got!r} vs {sol.profit!r}"
                        )
    return problems


def plan_grid_verify(seed: int) -> list:
    rng = np.random.default_rng([seed, 3])
    return [
        (to_spec(draw_grid_instance(rng, n, power)[0]), step)
        for n, power, step in GRID_CLASSES
    ]


def build_grid_verify(specs: list, seed: int) -> Workload:
    """Brute-force grid searches (mode auto) checked against the analytic optimum."""
    cases = []
    for spec, step in specs:
        inst = from_spec(spec)
        sol = tm.optimal_contract(inst)
        tm.grid_best_contract(inst, grid_spec(AGREEMENT_STEP))  # warm-up on a coarse grid
        cases.append((inst, sol, step))

    def make(i: int, inst, sol, step: float) -> Op:
        grid = grid_spec(step)
        lower = grid_target(sol) - BAND_STEPS * step
        upper = grid_target(sol) + BAND_SLACK

        def run() -> Outcome:
            try:
                best = tm.grid_best_contract(inst, grid, mode="auto")
            except Exception as exc:
                return Outcome(("error", type(exc).__name__), _failure(exc))
            got = best.profit if best is not None else 0.0
            failure = None
            if not lower <= got <= upper:
                failure = f"grid profit {got!r} outside [{lower!r}, {upper!r}]"
            return Outcome(solution_record(best), failure)

        family = "power" if not is_piecewise(inst) else "piecewise"
        return Op(f"grid_verify#{i}[n={len(inst)},{family},step={step}]", run)

    return Workload(
        "grid_verify",
        [make(i, *case) for i, case in enumerate(cases)],
        checks=[lambda: mode_agreement(seed)],
        min_rounds=5,
    )


# -- cli ---------------------------------------------------------------------

CLI_FILE_PAIRS = 1
VERIFY_STEP = 0.1


def _fmt(x: float) -> str:
    # the CLI prints text and CSV numbers with 12 significant digits
    return f"{x:.12g}"


def expected_sweep_csv(inst) -> str:
    rows = ["w,case,sold,e_sold,price,profit,welfare,kind"]
    for r in tm.sweep_willpower(inst, sweep_grid()):
        rows.append(",".join([
            _fmt(r.w), str(r.case_index), r.sold_id, _fmt(r.e_sold), _fmt(r.price),
            _fmt(r.profit), _fmt(r.welfare), r.kind.value,
        ]))
    return "\n".join(rows) + "\n"


def _check_cli(command: str, stdout: str, expect: dict) -> str | None:
    if command == "sweep":
        return None if stdout == expect["sweep"] else "sweep CSV differs from the library"
    out = json.loads(stdout)
    if command == "solve":
        sol = expect["solve"]
        prices = [o["price"] for o in out["offers"]]
        if (
            out["sold"] != sol.sold.id
            or out["profit"] != sol.profit
            or prices != [o.price for o in sol.contract.offers]
        ):
            return f"solve output {out} differs from the library"
        return None
    if command == "classify":
        reg = expect["classify"]
        if (out["case"], out["sold"], out["price"]) != (reg.case_index, reg.sold.id, reg.price):
            return f"classify output {out} differs from the library"
        return None
    profit = expect["solve"].profit
    ok = (
        out["passed"] is True
        and out["analytic_profit"] == profit
        and profit - BAND_STEPS * VERIFY_STEP <= out["grid_profit"] <= profit + BAND_SLACK
    )
    return None if ok else f"verify output {out} fails the acceptance band"


def _cli_args(command: str, path: str) -> list[str]:
    if command == "sweep":
        return [
            "sweep", path, "--w-from", str(SWEEP_W_FROM), "--w-to", str(SWEEP_W_TO),
            "--w-steps", str(SWEEP_W_STEPS),
        ]
    args = ["--format", "json", command, path]
    if command == "verify":
        args += ["--step", str(VERIFY_STEP)]
    return args


def cli_env(src_dir: str) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + (os.pathsep + old if old else "")
    return env


def plan_cli(seed: int) -> list:
    rng = np.random.default_rng([seed, 4])
    return [
        to_spec(draw_grid_instance(rng, 3, power)[0])
        for _ in range(CLI_FILE_PAIRS)
        for power in (False, True)
    ]


def build_cli(specs: list, out_dir: str, src_dir: str) -> Workload:
    """Seeded YAML files run through the CLI, one child process at a time.

    Piecewise files go through solve, classify, sweep and verify; power
    files through solve and verify, because classify and sweep reject power
    costs by design.  The traced round runs the same commands in process
    through click's test runner, so the wrappers see the calls.
    """
    from click.testing import CliRunner

    os.makedirs(out_dir, exist_ok=True)
    env = cli_env(src_dir)
    runner = CliRunner()
    calls = []
    for j, spec in enumerate(specs):
        inst = from_spec(spec)
        sol = tm.optimal_contract(inst)
        power = not is_piecewise(inst)
        path = os.path.join(out_dir, f"{'power' if power else 'piecewise'}{j}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(tm_instancefile.dump_instance(inst))
        if tm_instancefile.load_instance(path).instance != inst:
            raise RuntimeError(f"{path} does not read back as the instance written")
        expect = {"solve": sol}
        commands = ["solve", "verify"]
        if not power:
            expect["classify"] = tm.classify_willpower_regime(inst)
            expect["sweep"] = expected_sweep_csv(inst)
            commands = ["solve", "classify", "sweep", "verify"]
        calls += [(command, path, expect) for command in commands]
    # one child start warms the page cache and the bytecode the children load
    subprocess.run(
        [sys.executable, "-m", "temptmenu.cli", "--help"],
        env=env, capture_output=True, check=True, timeout=150,
    )

    def finish(command: str, code: int, stdout: str, stderr: str, expect) -> Outcome:
        record = (command, code, stdout)
        # `verify` anchors its band at the analytic profit even when that is
        # negative and the oracle walks away, so it fails on such markets
        known = command == "verify" and expect["solve"].profit < 0.0
        if code != 0:
            return Outcome(record, f"exit code {code}: {stderr.strip()[:120]}", known)
        try:
            return Outcome(record, _check_cli(command, stdout, expect), known)
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(record, f"unreadable output: {_failure(exc)}", known)

    def child(command: str, path: str, expect) -> Op:
        argv = [sys.executable, "-m", "temptmenu.cli", *_cli_args(command, path)]

        def run() -> Outcome:
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=150)
            return finish(command, proc.returncode, proc.stdout, proc.stderr, expect)

        return Op(f"cli {command} {os.path.basename(path)}", run)

    def in_process(command: str, path: str, expect) -> Op:
        args = _cli_args(command, path)

        def run() -> Outcome:
            res = runner.invoke(tm_cli.main, args)
            if res.exception is not None and not isinstance(res.exception, SystemExit):
                return Outcome(("error", command), _failure(res.exception))
            return finish(command, res.exit_code, res.stdout, res.stderr, expect)

        return Op(f"cli(in-process) {command} {os.path.basename(path)}", run)

    return Workload(
        "cli",
        [child(*c) for c in calls],
        traced_round=[in_process(*c) for c in calls],
        min_rounds=7,
        uses_children=True,
    )


def plan(name: str, seed: int) -> list:
    """The workload's inputs drawn from ``seed``, as plain numbers (untimed)."""
    return {
        "population": plan_population,
        "wide_sweep": plan_wide_sweep,
        "grid_verify": plan_grid_verify,
        "cli": plan_cli,
    }[name](seed)


def build(name: str, specs: list, seed: int, out_dir: str, src_dir: str) -> Workload:
    """Timed set-up: library objects, expected answers, files and warm-ups."""
    if name == "population":
        return build_population(specs)
    if name == "wide_sweep":
        return build_wide_sweep(specs)
    if name == "grid_verify":
        return build_grid_verify(specs, seed)
    return build_cli(specs, os.path.join(out_dir, f"cli-seed{seed}"), src_dir)

