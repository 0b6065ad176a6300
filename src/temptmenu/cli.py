"""Command-line surface: solve, classify, sweep and verify subcommands.

Exit codes, all assigned by the command group: 0 ok; 1 input problem, a
click usage message or one ``error:`` line (unreadable or invalid file,
tied roles, bad option value, grid too large); 2 solver failure, one
``solver failure: <Type>: <msg>`` line (``BracketFailure``: a searched
price misses ``PRICE_TOL``, as with a steep power cost at large money
scales, where no double meets it; ``OverflowError``: a price past
the largest double); 3 verification failure.  ``verify`` takes each grid
field from its flag, else from the file's ``solver.grid``, else from the
default: step 0.01, from 0 to past every candidate price, and
``GridSpec``'s menu size and analytic prices.  Numbers print with 12
significant digits in text and CSV output; JSON carries full doubles.
Only ``verify`` runs the grid search, and only it loads numpy.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import asdict

import click

from .instancefile import InstanceDocument, load_instance
from .oracle import GridSpec, grid_best_contract
from .solver import BracketFailure, Solution, classify_willpower_regime, optimal_contract
from .statics import sweep_willpower

EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class _ExitCodes(click.Group):
    """The one place where a failure becomes an exit code and one stderr line."""

    def make_context(self, info_name, args, parent=None, **extra):
        try:
            return super().make_context(info_name, args, parent=parent, **extra)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INPUT
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_INPUT
            raise
        except (BracketFailure, ArithmeticError) as exc:
            click.echo(f"solver failure: {type(exc).__name__}: {exc}", err=True)
            raise SystemExit(EXIT_SOLVER)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(EXIT_INPUT)


def _load(path: str) -> InstanceDocument:
    try:
        return load_instance(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


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


@click.group(cls=_ExitCodes)
@click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    help="Output format for solve/classify/verify.",
)
@click.pass_context
def main(ctx, fmt):
    """Price optimal menus against a consumer with costly self-control."""
    ctx.ensure_object(dict)
    ctx.obj["fmt"] = fmt


@main.command()
@click.argument("instance", type=click.Path())
@click.pass_context
def solve(ctx, instance):
    """Compute the profit-maximizing contract for an instance file."""
    doc = _load(instance)
    sol = optimal_contract(doc.instance)
    _print_solution(sol, ctx.obj["fmt"])


@main.command()
@click.argument("instance", type=click.Path())
@click.pass_context
def classify(ctx, instance):
    """Report the willpower regime: which product sells, at what price."""
    doc = _load(instance)
    reg = classify_willpower_regime(doc.instance)
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
        raise ValueError("need finite 0 <= --w-from <= --w-to and --w-steps >= 0, "
                         f"got {w_from!r}, {w_to!r} and {w_steps!r}")
    grid = _uniform_grid(w_from, w_to, w_steps)
    records = sweep_willpower(doc.instance, grid)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["w", "case", "sold", "e_sold", "price", "profit", "welfare", "kind"])
    for r in records:
        writer.writerow([
            _fmt(r.w), r.case_index, r.sold_id, _fmt(r.e_sold), _fmt(r.price),
            _fmt(r.profit), _fmt(r.welfare), r.kind.value,
        ])


@main.command()
@click.argument("instance", type=click.Path())
@click.option("--step", type=float, default=None,
              help="Price grid step (default: instance file grid, else 0.01).")
@click.option("--max-menu", type=int, default=None,
              help="Largest menu size, 1..3 (default: instance file grid, else 3).")
@click.option("--price-min", type=float, default=None,
              help="Grid lower bound (default: instance file grid, else 0).")
@click.option("--price-max", type=float, default=None,
              help="Grid upper bound (default: instance file grid, else past "
                   "every candidate price).")
@click.option("--include-analytic/--exclude-analytic", "analytic", default=None,
              help="Inject analytic candidate prices into the grid (default: "
                   "instance file grid, else on).")
@click.option("--assume-profit", type=float, default=None,
              help="Diagnostic: verify against this claimed optimal profit "
                   "instead of the solver's.")
@click.pass_context
def verify(ctx, instance, step, max_menu, price_min, price_max, analytic, assume_profit):
    """Check the analytic optimum against brute-force grid enumeration.

    Passes when the grid-best profit is at most the target profit (plus
    1e-9 slack) and at least the target minus three grid steps.  The
    target is the analytic profit, or 0 when that is negative: the grid
    search may walk away, and then reports profit 0.
    """
    doc = _load(instance)
    if assume_profit is not None and not math.isfinite(assume_profit):
        raise ValueError(f"--assume-profit must be finite, got {assume_profit!r}")
    inst = doc.instance
    sol = optimal_contract(inst)
    analytic_profit = sol.profit if assume_profit is None else assume_profit

    if doc.grid is not None:
        fields = asdict(doc.grid)
    else:
        ceiling = max(
            max(a.u for a in inst.alternatives),
            max(o.price for o in sol.contract.offers),
        )
        fields = {"price_step": 0.01, "price_min": 0.0,
                  "price_max": float(math.ceil(ceiling) + 1)}
    flags = {"price_step": step, "price_min": price_min, "price_max": price_max,
             "max_menu_size": max_menu, "include_analytic_prices": analytic}
    fields.update((name, value) for name, value in flags.items() if value is not None)
    grid = GridSpec(**fields)
    best = grid_best_contract(inst, grid)
    grid_profit = best.profit if best is not None else 0.0
    target = max(analytic_profit, 0.0)
    lower = target - 3.0 * grid.price_step
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
