"""Command-line front end.

Subcommands
-----------
compute : f(n, rho) over a grid by a chosen method
bounds  : rate bounds, sandwich verdicts, and scaled ratios over a grid
simplex : vertex / union maximum experiments for random polynomials
verify  : run the invariant suites, emit a JSON summary

Numeric output uses shortest round-trip float formatting, so identical
configs produce byte-identical files; wall time goes to stderr only.
Exit codes: 0 success, 1 domain error, 2 resource or usage error,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import math
import sys
import time
from functools import lru_cache

from . import orthant, simplex, verify
from .equicorrelated import ResourceBudgetError

NA = "NA"
MAX_GRID_POINTS = 10**6
# grid values and range points are exact decimals: one that 1000 digits and
# exponents of +-999 cannot hold raises instead of rounding
_EXACT = decimal.Context(prec=1000, Emax=999, Emin=-999, traps=[
    decimal.InvalidOperation, decimal.Inexact, decimal.Overflow, decimal.DivisionByZero])


def _grid(text: str) -> list:
    """Exact decimals of 'a,b,c' lists and 'start:stop:step' ranges (stop inclusive)."""
    try:
        with decimal.localcontext(_EXACT):
            values = [+decimal.Decimal(p) for p in text.split(":" if ":" in text else ",")]
            if ":" not in text:
                return values
            start, stop, step = values
            # also rejects nan; with these bounds the grid holds at least start
            if not (all(v.is_finite() for v in values) and step > 0 and start <= stop):
                raise argparse.ArgumentTypeError(
                    f"range {text!r} needs finite start <= stop and step > 0")
            # size the range before building it: it has floor((stop - start) / step) + 1 points
            if (stop - start) / MAX_GRID_POINTS >= step:
                raise argparse.ArgumentTypeError(
                    f"range {text!r} needs at most {MAX_GRID_POINTS} points")
            return [start + i * step for i in range(int((stop - start) // step) + 1)]
    except decimal.DecimalException:
        raise ValueError(text) from None


def _float_grid(text: str):
    return [float(value) for value in _grid(text)]


def _int_grid(text: str):
    values = _grid(text)
    for value in values:
        if not (value.is_finite() and value == value.to_integral_value()):
            raise argparse.ArgumentTypeError(f"{value} is not an integer")
    return [int(value) for value in values]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _fmt(value):
    if value is None:
        return NA
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(rows, fmt, out, command, config):
    """Write rows in fmt; the columns are the keys of a row but _plot, in order."""
    columns = [c for c in rows[0] if c != "_plot"]
    if fmt == "json":
        doc = {
            "command": command,
            "config": config,
            "columns": columns,
            "rows": [{c: row.get(c) for c in columns} for row in rows],
        }
        out.write(json.dumps(doc, indent=2))
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])
    else:  # plotdata; argparse admits no other format
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["x", "y", "series"])
        for row in rows:
            for x, y, series in row["_plot"]:
                writer.writerow([_fmt(x), _fmt(y), series])


def cmd_compute(args) -> list[dict]:
    rows = []
    for n in args.n:
        for rho in args.rho:
            if args.method == "closed":
                est = orthant.closed_form(n, rho)
                if est is None:
                    raise ValueError(f"no closed form for (n={n}, rho={rho})")
            elif args.method == "steck":
                est = orthant.steck_quadrature(n, rho)
            elif args.method == "density":
                est = orthant.density_integral(n, rho)
            else:
                est = orthant.monte_carlo(
                    n, rho, args.trials, args.seed, threads=args.threads
                )
            rows.append(
                {
                    "n": n,
                    "rho": rho,
                    "method": est.method,
                    "value": est.value,
                    "std_error": est.std_error,
                    "count": est.count,
                    "_plot": [(n, est.value, f"rho={rho}")],
                }
            )
    return rows


def cmd_bounds(args) -> list[dict]:
    rows = []
    for n in args.n:
        for rho in args.rho:
            est = orthant.best_estimate(n, rho)
            report = orthant.theorem_bounds(n, rho)
            # n^(1 - 1/rho) has no meaning at rho = 0, so neither has the ratio
            ratio = orthant.scaled_ratio(n, rho, est.value) if 0 < est.value < 1 and rho else None
            rows.append(
                {
                    "n": n,
                    "rho": rho,
                    "f": est.value,
                    "method": est.method,
                    "scale": report.scale if not math.isnan(report.scale) else None,
                    "lower": report.lower,
                    "upper": report.upper,
                    "lower_applicable": report.lower_applicable,
                    "upper_applicable": report.upper_applicable,
                    "upper_asymptotic": report.upper_asymptotic,
                    "sandwich_ok": report.contains(est.value),
                    "scaled_ratio": ratio,
                    "_plot": [
                        (n, est.value, f"f rho={rho}"),
                        (n, report.lower, f"lower rho={rho}"),
                        (n, report.upper, f"upper rho={rho}"),
                    ],
                }
            )
    return rows


def cmd_simplex(args) -> list[dict]:
    rows = []
    for n in args.n:
        union = simplex.estimate_union_probability(
            n, args.k, args.trials, args.seed, threads=args.threads
        )
        rows.append(
            {
                "n": n,
                "k": args.k,
                "trials": args.trials,
                "seed": args.seed,
                "rho_n": simplex.rho_n(n, args.k),
                "vertex_estimate": union.vertex_estimate,
                "vertex_std_error": union.vertex_std_error,
                "union_estimate": union.estimate,
                "union_std_error": union.std_error,
                "analytic_f": union.analytic_f,
                "independence_approx": union.independence_approx,
                "tv_paper_literal": union.tv_paper_literal,
                "tv_corrected": union.tv_corrected,
                "tv_exact": union.tv_exact,
                "envelope": union.envelope,
                "_plot": [
                    (n, union.vertex_estimate, "vertex"),
                    (n, union.estimate, "union"),
                    (n, union.independence_approx, "independence"),
                ],
            }
        )
    return rows


COMMANDS = {"compute": cmd_compute, "bounds": cmd_bounds, "simplex": cmd_simplex}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="simplex-orthant",
        description="Orthant probabilities and vertex maxima of random polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json", "plotdata"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=_positive_int, default=1)

    p = sub.add_parser("compute", help="f(n, rho) over a grid")
    common(p)
    p.add_argument("--n", type=_int_grid, required=True)
    p.add_argument("--rho", type=_float_grid, required=True)
    p.add_argument("--method", choices=("closed", "steck", "density", "mc"), default="steck")
    p.add_argument("--trials", type=_positive_int, default=1_000_000)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(_parser=p)  # run() reports a missing mc seed with its usage line

    p = sub.add_parser("bounds", help="rate bounds and sandwich verdicts")
    common(p)
    p.add_argument("--n", type=_int_grid, required=True)
    p.add_argument("--rho", type=_float_grid, required=True)

    p = sub.add_parser("simplex", help="vertex / union maximum experiments")
    common(p)
    p.add_argument("--n", type=_int_grid, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, required=True)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--output", default=None)
    p.add_argument("--suite", action="append", choices=verify.SUITES, default=None,
                   help="restrict to one or more named suites")
    return parser


def _config_dict(args) -> dict:
    skip = {"command", "format", "output"}
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in skip and not key.startswith("_")
    }


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compute" and args.method == "mc" and args.seed is None:
        args._parser.error("--seed is required for --method mc")
    started = time.monotonic()
    buffer = io.StringIO()
    code = 0
    if args.command == "verify":
        summary = verify.run_all(only=args.suite)
        buffer.write(json.dumps(summary, indent=2) + "\n")
        code = 0 if summary["all_passed"] else 3
    else:
        rows = COMMANDS[args.command](args)
        _emit(rows, args.format, buffer, args.command, _config_dict(args))
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())
    print(f"{args.command}: {time.monotonic() - started:.1f}s", file=sys.stderr)
    return code


def main(argv=None) -> None:
    try:
        sys.exit(run(argv))
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
