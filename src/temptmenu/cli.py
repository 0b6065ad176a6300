"""Command-line surface: solve, classify, sweep and verify subcommands.

Exit codes: 0 ok, 1 input or validation problem, 2 solver failure (a
bisected price whose residual exceeds the tolerance, as with a steep
power cost at large money scales, where no double meets it; reported as
one ``solver failure:`` line), 3 verification failure.  Numbers print
with 12 significant digits in text and CSV output; JSON carries full
doubles.  Only ``verify`` runs the grid search, and only it loads numpy.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from typing import NoReturn

import click

from .instancefile import InstanceDocument, InstanceFileError, load_instance
from .model import AssumptionViolated
from .oracle import GridSpec, GridTooLarge, grid_best_contract
from .solver import (
    PRICE_TOL,
    BracketFailure,
    Solution,
    classify_willpower_regime,
    optimal_contract,
)
from .statics import sweep_willpower

EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load(path: str) -> InstanceDocument:
    try:
        return load_instance(path)
    except OSError as exc:
        click.echo(f"error: cannot read {path}: {exc}", err=True)
        raise SystemExit(EXIT_INPUT)
    except (InstanceFileError, AssumptionViolated, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(EXIT_INPUT)


def _uniform_grid(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced points from ``start`` to ``stop``, both included.

    The arithmetic is ``numpy.linspace``'s, so the points are equal (``==``)
    to ``numpy.linspace(start, stop, num)`` for finite bounds, including a
    span too small to divide, which numpy scales before multiplying.
    """
    div = max(num - 1, 1)
    delta = stop - start
    step = delta / div
    if step == 0.0:
        points = [start + i / div * delta for i in range(num)]
    else:
        points = [start + i * step for i in range(num)]
    if num > 1:
        points[-1] = stop
    return points


def _solver_failure(exc: Exception) -> NoReturn:
    """One-line report of a numeric failure (no traceback), exit 2."""
    click.echo(f"solver failure: {type(exc).__name__}: {exc}", err=True)
    raise SystemExit(EXIT_SOLVER)


def _tolerance(ctx, doc: InstanceDocument) -> float:
    if ctx.obj["tolerance"] is not None:
        return ctx.obj["tolerance"]
    if doc.tolerance is not None:
        return doc.tolerance
    return PRICE_TOL


def _solution_dict(sol: Solution) -> dict:
    return {
        "kind": sol.kind.value,
        "sold": sol.sold.id,
        "profit": sol.profit,
        "welfare": sol.welfare,
        "offers": [
            {
                "id": o.alternative.id,
                "price": o.price,
                "intended": i == sol.contract.intended,
            }
            for i, o in enumerate(sol.contract.offers)
        ],
        "residuals": list(sol.residuals),
    }


def _print_solution(sol: Solution, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(_solution_dict(sol)))
        return
    click.echo(f"contract kind: {sol.kind.value}")
    click.echo(f"sells {sol.sold.id} for profit {_fmt(sol.profit)}")
    click.echo(f"consumer welfare: {_fmt(sol.welfare)}")
    click.echo("menu:")
    for i, o in enumerate(sol.contract.offers):
        marker = "  <- intended" if i == sol.contract.intended else ""
        click.echo(f"  {o.alternative.id}: price {_fmt(o.price)}{marker}")
    if sol.residuals:
        click.echo("price-equation residuals: "
                   + ", ".join(_fmt(r) for r in sol.residuals))


@click.group()
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    help="Output format for solve/classify/verify.",
)
@click.option(
    "--tolerance", type=float, default=None,
    help="Absolute residual tolerance for the implicit price equations, finite "
         "and > 0 (overrides the instance file; default 1e-10).",
)
@click.pass_context
def main(ctx, fmt, tolerance):
    """Price optimal menus against a consumer with costly self-control."""
    if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0.0):
        click.echo(f"error: --tolerance must be finite and > 0, got {tolerance!r}", err=True)
        raise SystemExit(EXIT_INPUT)
    ctx.ensure_object(dict)
    ctx.obj["fmt"] = fmt
    ctx.obj["tolerance"] = tolerance


@main.command()
@click.argument("instance", type=click.Path())
@click.pass_context
def solve(ctx, instance):
    """Compute the profit-maximizing contract for an instance file."""
    doc = _load(instance)
    try:
        sol = optimal_contract(doc.instance, tol=_tolerance(ctx, doc))
    except (BracketFailure, ArithmeticError) as exc:
        _solver_failure(exc)
    _print_solution(sol, ctx.obj["fmt"])


@main.command()
@click.argument("instance", type=click.Path())
@click.pass_context
def classify(ctx, instance):
    """Report the willpower regime: which product sells, at what price."""
    doc = _load(instance)
    try:
        reg = classify_willpower_regime(doc.instance, tol=_tolerance(ctx, doc))
    except (BracketFailure, ArithmeticError) as exc:
        _solver_failure(exc)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(EXIT_INPUT)
    if ctx.obj["fmt"] == "json":
        click.echo(json.dumps({
            "case": reg.case_index,
            "sold": reg.sold.id,
            "price": reg.price,
            "kind": reg.kind.value,
            "thresholds": list(reg.thresholds),
            "steep_product": reg.steep_product.id,
            "shallow_product": reg.shallow_product.id,
        }))
        return
    t = reg.thresholds
    click.echo(f"willpower range case {reg.case_index}: "
               f"sell {reg.sold.id} at {_fmt(reg.price)} ({reg.kind.value})")
    click.echo(f"steep-regime product: {reg.steep_product.id}, "
               f"shallow-regime product: {reg.shallow_product.id}")
    click.echo(f"range boundaries: {_fmt(t[0])}, {_fmt(t[1])}, {_fmt(t[2])}")


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--w-from", type=float, required=True, help="First willpower level.")
@click.option("--w-to", type=float, required=True, help="Last willpower level.")
@click.option("--w-steps", type=int, default=25, show_default=True,
              help="Number of uniform grid points (0 emits only the header).")
@click.pass_context
def sweep(ctx, instance, w_from, w_to, w_steps):
    """Sweep willpower and emit the contract curve as CSV on stdout."""
    doc = _load(instance)
    finite = math.isfinite(w_from) and math.isfinite(w_to)
    if not finite or w_steps < 0 or w_from < 0 or w_from > w_to:
        click.echo("error: need finite 0 <= --w-from <= --w-to and --w-steps >= 0, "
                   f"got {w_from!r}, {w_to!r} and {w_steps!r}", err=True)
        raise SystemExit(EXIT_INPUT)
    grid = _uniform_grid(w_from, w_to, w_steps)
    try:
        records = sweep_willpower(doc.instance, grid, tol=_tolerance(ctx, doc))
    except (BracketFailure, ArithmeticError) as exc:
        _solver_failure(exc)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(EXIT_INPUT)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["w", "case", "sold", "e_sold", "price", "profit", "welfare", "kind"])
    for r in records:
        writer.writerow([
            _fmt(r.w), r.case_index, r.sold_id, _fmt(r.e_sold), _fmt(r.price),
            _fmt(r.profit), _fmt(r.welfare), r.kind.value,
        ])


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--step", type=float, default=0.01, show_default=True,
              help="Price grid step.")
@click.option("--max-menu", type=int, default=3, show_default=True,
              help="Largest menu size to enumerate (1..3).")
@click.option("--price-min", type=float, default=None,
              help="Grid lower bound (default: instance file grid, else 0).")
@click.option("--price-max", type=float, default=None,
              help="Grid upper bound (default: instance file grid, else past "
                   "every candidate price).")
@click.option("--include-analytic/--exclude-analytic", "analytic", default=True,
              help="Inject analytic candidate prices into the grid.")
@click.option("--mode", type=click.Choice(["auto", "exhaustive", "bracketed"]),
              default="auto", show_default=True, help="Search strategy.")
@click.option("--assume-profit", type=float, default=None,
              help="Diagnostic: verify against this claimed optimal profit "
                   "instead of the solver's.")
@click.pass_context
def verify(ctx, instance, step, max_menu, price_min, price_max, analytic, mode,
           assume_profit):
    """Check the analytic optimum against brute-force grid enumeration.

    Passes when the grid-best profit is at most the target profit (plus
    1e-9 slack) and at least the target minus three grid steps.  The
    target is the analytic profit, or 0 when that is negative: the grid
    search may walk away, and then reports profit 0.
    """
    doc = _load(instance)
    inst = doc.instance
    tol = _tolerance(ctx, doc)
    try:
        sol = optimal_contract(inst, tol=tol)
    except (BracketFailure, ArithmeticError) as exc:
        _solver_failure(exc)
    analytic_profit = sol.profit if assume_profit is None else assume_profit

    if price_min is None:
        price_min = doc.grid.price_min if doc.grid else 0.0
    if price_max is None:
        if doc.grid:
            price_max = doc.grid.price_max
        else:
            ceiling = max(
                max(a.u for a in inst.alternatives),
                max(o.price for o in sol.contract.offers),
            )
            price_max = float(math.ceil(ceiling) + 1)
    try:
        grid = GridSpec(
            price_step=step,
            price_min=price_min,
            price_max=price_max,
            max_menu_size=max_menu,
            include_analytic_prices=analytic,
        )
        best = grid_best_contract(inst, grid, mode=mode, tol=tol)
    except (GridTooLarge, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(EXIT_INPUT)
    except (BracketFailure, ArithmeticError) as exc:
        _solver_failure(exc)
    grid_profit = best.profit if best is not None else 0.0
    target = max(analytic_profit, 0.0)
    lower = target - 3.0 * step
    upper = target + 1e-9
    passed = lower <= grid_profit <= upper

    if ctx.obj["fmt"] == "json":
        click.echo(json.dumps({
            "analytic_profit": analytic_profit,
            "grid_profit": grid_profit,
            "lower_bound": lower,
            "upper_bound": upper,
            "passed": passed,
            "grid_menu": None if best is None else [
                {"id": o.alternative.id, "price": o.price}
                for o in best.contract.offers
            ],
        }))
    else:
        click.echo(f"analytic profit: {_fmt(analytic_profit)}")
        click.echo(f"grid-best profit: {_fmt(grid_profit)}")
        if best is not None:
            menu = ", ".join(
                f"{o.alternative.id}@{_fmt(o.price)}" for o in best.contract.offers
            )
            click.echo(f"grid-best menu: {menu}")
        click.echo(f"acceptance band: [{_fmt(lower)}, {_fmt(upper)}]")
        click.echo("verdict: pass" if passed else "verdict: FAIL")
    if not passed:
        raise SystemExit(EXIT_VERIFY)


if __name__ == "__main__":
    main()
