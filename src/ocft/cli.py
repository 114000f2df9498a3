"""Command-line front end.

Subcommands map one-to-one onto the library modules:

    pfaffian      Pfaffian of a skew matrix given as JSON
    haar-moment   Monte-Carlo Haar moment of entry products
    moment        <|z - GO|^{2m}> by closed form, Pfaffian integral or MC
    jacobi        Jacobi-ensemble average ratio (Pfaffian, or Selberg closed form)
    ginibre-check Gaussian-weight consistency check (closed vs pipeline vs MC)
    verify-cft    coefficient/probe verification of a colour-flavour identity

``--method`` (``moment``, ``jacobi``) or ``--variant`` (``verify-cft``)
selects a subcommand's route.  ``_RUNNERS`` has one row per (subcommand,
route): the parser takes its choices from it, :func:`run` dispatches
through it, and every route of a subcommand prints the same fields.

Results are serialised to stdout as JSON (default) or CSV with stable field
order, so identical run configurations produce byte-identical output;
timing goes to stderr.  Exit codes: 0 success, 2 invalid configuration,
3 verification failed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import cft, jacobi, moments
from .errors import ConfigError, OcftError
from .haar import Estimate, RngStream, mc_expectation
from .jacobi import JacobiQuery, check_ginibre_n, ginibre_closed, ginibre_mc, ginibre_pipeline
from .linalg import determinant, pfaffian
from .moments import MomentQuery

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3


class Route(NamedTuple):
    """One row of ``_RUNNERS``.  ``runner(args, route)`` returns the record and
    exit code, and evaluates the route's value by ``call``, which looks its
    library function up on the module when it runs.  ``draws`` marks a
    Monte-Carlo route, the only kind whose output depends on ``--seed``."""

    runner: Callable
    call: Callable | None = None
    draws: bool = False


def _routes(command: str) -> list[str]:
    """The routes of ``command``, in table order."""
    return [route for name, route in _RUNNERS if name == command]


def parse_complex(text: str) -> complex:
    """Parse 're,im' (or plain 'x' meaning 'x,0') into a complex number."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex value from {text!r}")


def _cnum(value: complex) -> dict:
    value = complex(value)
    return {"re": value.real, "im": value.imag}


def _estimate_fields(est: Estimate) -> dict:
    return {
        "value": _cnum(est.mean),
        "std_error": est.std_error,
        "samples": est.samples,
    }


def _flatten(record: dict, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    for key, val in record.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            items.extend(_flatten(val, name + "."))
        elif isinstance(val, list):
            items.append((name, json.dumps(val)))
        else:
            items.append((name, val))
    return items


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        # strict JSON: a non-finite float raises ValueError before any output
        out.write(json.dumps(record, allow_nan=False) + "\n")
        return
    rows = record.pop("rows", None)
    writer = csv.writer(out, lineterminator="\n")
    if rows is None:
        flat = _flatten(record)
        writer.writerow([k for k, _ in flat])
        writer.writerow([v for _, v in flat])
        return
    flat_rows = [_flatten(r) for r in rows]
    writer.writerow([k for k, _ in flat_rows[0]] if flat_rows else [])
    for fr in flat_rows:
        writer.writerow([v for _, v in fr])


def _matrix_entry(cell) -> complex:
    """A JSON number or [re, im] pair that is finite in float64, else ``ConfigError``."""
    parts = cell if isinstance(cell, list) and len(cell) == 2 else [cell]
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        raise ConfigError(f"matrix entry {cell!r} is not a number or an [re, im] pair")
    try:
        value = complex(*(float(x) for x in parts))
    except OverflowError:  # an integer beyond float64
        value = complex(math.inf)
    if not np.isfinite(value):
        raise ConfigError(f"matrix entry {cell!r} is not finite in float64")
    return value


def _parse_matrix(text: str) -> np.ndarray:
    """JSON list of equal-length rows; entries are numbers or [re, im] pairs."""
    rows = json.loads(text)
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ConfigError("--matrix must be a JSON list of rows")
    if len({len(row) for row in rows}) > 1:
        raise ConfigError("--matrix rows must have equal length")
    return np.array([[_matrix_entry(cell) for cell in row] for row in rows], dtype=complex)


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _threshold(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help="RNG shards for haar-moment, moment --method mc and verify-cft, each "
        "on its own substream and run one after another (default 1); the draws, "
        "and so the output, depend on this count; the other subcommands and "
        "methods accept it and ignore it",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``ocft`` argument parser, built once per process and shared.

    Building it takes about 0.8 ms, and 2.1-2.2 ms on the first call (2
    vCPUs), as long as a small query.  ``parse_args`` leaves the parser
    unchanged, and argparse writes its usage errors to ``sys.stderr`` as it
    is when they happen, so :func:`run`'s redirection still catches them.
    Callers must not add arguments to the shared parser.
    """
    parser = argparse.ArgumentParser(
        prog="ocft",
        description="Pfaffian closed forms and Monte-Carlo verification of "
        "orthogonal-group colour-flavour identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pfaffian", help="Pfaffian of a skew matrix")
    p.add_argument("--matrix", required=True, help="JSON rows; entries x or [re,im]")
    p.add_argument("--tol", type=float, default=None, help="skew check tolerance")
    _add_common(p)

    p = sub.add_parser("haar-moment", help="Haar moment of entry products")
    p.add_argument("--n", type=int, required=True, help="group dimension")
    p.add_argument(
        "--entries",
        required=True,
        help="semicolon-separated 1-based index pairs, e.g. '1,1;2,2'",
    )
    p.add_argument("--group", choices=("O", "SO"), default="O")
    p.add_argument("--samples", type=int, default=100_000)
    _add_common(p)

    p = sub.add_parser("moment", help="averaged |z - GO|^{2m}")
    p.add_argument("--n", type=int, required=True, help="matrix dimension")
    p.add_argument("--m", type=int, default=1, help="moment order")
    p.add_argument("--z", required=True, help="complex point 're,im' or 'x'")
    p.add_argument("--g", required=True, help="comma-separated singular values")
    p.add_argument("--method", dest="route", choices=_routes("moment"), default="closed")
    p.add_argument(
        "--samples",
        type=int,
        default=200_000,
        help="Haar draws for --method mc only (default 200000); the other "
        "methods are deterministic",
    )
    _add_common(p)

    p = sub.add_parser("jacobi", help="Jacobi-ensemble average ratio")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="'re,im' or 'x'")
    p.add_argument("--gamma", dest="gam", required=True, help="'re,im' or 'x'")
    p.add_argument("--method", dest="route", choices=_routes("jacobi"), default="pfaffian",
                   help="quadrature: the Selberg integral in closed form and the "
                   "r-integral by its exact Beta rule")
    _add_common(p)

    p = sub.add_parser("ginibre-check", help="Gaussian-weight consistency check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--gamma", dest="gam", required=True)
    p.add_argument("--samples", type=int, default=200_000)
    p.add_argument("--threshold", type=_threshold, default=3.0, help="MC z-score bound")
    _add_common(p)

    p = sub.add_parser("verify-cft", help="verify a colour-flavour identity")
    p.add_argument("--variant", dest="route", choices=_routes("verify-cft"), required=True)
    p.add_argument("--colors", type=int, required=True, help="colour count N")
    p.add_argument("--flavors", type=int, required=True, help="flavour count n")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--probes", type=int, default=10, help="bosonic probe points")
    p.add_argument(
        "--threshold",
        type=_threshold,
        default=cft.DEFAULT_THRESHOLD,
        help="single-row |z| level (default %(default)s); each row is held to its "
        "Sidak correction over the rows with a nonzero standard error",
    )
    _add_common(p)

    return parser


def _run_pfaffian(args, route: Route) -> tuple[dict, int]:
    matrix = _parse_matrix(args.matrix)
    # an overflow reaches the values as inf or nan, with numpy's warnings
    # off, or raises OverflowError in Python's complex arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        value = pfaffian(matrix, args.tol)
        det = determinant(matrix)
    try:
        residual = abs(value**2 - det) / max(abs(det), 1e-300)
    except OverflowError:
        residual = math.inf
    if not (np.isfinite(value) and np.isfinite(det) and math.isfinite(residual)):
        raise ConfigError("Pfaffian or determinant overflows float64")
    record = {
        "command": "pfaffian",
        "dimension": matrix.shape[0],
        "value": _cnum(value),
        "det_residual": residual,
    }
    return record, EXIT_OK


def _run_haar_moment(args, route: Route) -> tuple[dict, int]:
    idx = []
    for chunk in args.entries.split(";"):
        i, j = (int(x) for x in chunk.split(","))
        if not (1 <= i <= args.n and 1 <= j <= args.n):
            raise OcftError(f"entry ({i},{j}) outside a {args.n}x{args.n} matrix")
        idx.append((i - 1, j - 1))
    # draw only the columns read: Haar O(N) and SO(N) are invariant under
    # transposition, so read rows where they are fewer, and any k < N
    # distinct columns have the law of the first k; k = N, in order, is the
    # whole draw
    rows, cols = {i for i, _ in idx}, {j for _, j in idx}
    if len(rows) < len(cols):
        idx, cols = [(j, i) for i, j in idx], rows
    column = {j: c for c, j in enumerate(sorted(cols))}
    idx = [(i, column[j]) for i, j in idx]

    def f(o):
        out = np.ones(o.shape[0])
        for i, j in idx:
            out = out * o[:, i, j]
        return out

    est = mc_expectation(
        f,
        args.n,
        args.samples,
        RngStream(args.seed),
        group=args.group,
        workers=args.workers,
        columns=len(cols),
    )
    record = {
        "command": "haar-moment",
        "n": args.n,
        "group": args.group,
        "entries": args.entries,
        "seed": args.seed,
        "workers": args.workers,
        **_estimate_fields(est),
    }
    return record, EXIT_OK


def _run_moment(args, route: Route) -> tuple[dict, int]:
    g = tuple(float(x) for x in args.g.split(","))
    if len(g) != args.n:
        raise OcftError(f"--g lists {len(g)} values but --n is {args.n}")
    query = MomentQuery(z=parse_complex(args.z), g=g, m=args.m)
    record = {
        "command": "moment",
        "n": args.n,
        "m": args.m,
        "z": _cnum(query.z),
        "g": list(g),
        "method": args.route,
    }
    if route.draws:  # only the Monte Carlo reads the seed and the shard count
        record.update(seed=args.seed, workers=args.workers)
    record.update(_estimate_fields(route.call(query, args)))
    return record, EXIT_OK


def _run_jacobi(args, route: Route) -> tuple[dict, int]:
    query = JacobiQuery(
        parse_complex(args.lam), parse_complex(args.gam), args.a, args.b, args.n
    )
    value = route.call(query)
    record = {
        "command": "jacobi",
        "n": args.n,
        "a": args.a,
        "b": args.b,
        "lambda": _cnum(query.lam),
        "gamma": _cnum(query.gam),
        "method": args.route,
        "reference_lg": _cnum(1.0),
        "value": _cnum(value),
    }
    return record, EXIT_OK


def _run_ginibre(args, route: Route) -> tuple[dict, int]:
    lam, gam = parse_complex(args.lam), parse_complex(args.gam)
    # every check that can refuse the query without sampling runs before the
    # Monte Carlo: the size cap first, then the two exact routes, which refuse
    # a value that overflows float64; the Monte Carlo refuses an estimate that
    # overflows
    check_ginibre_n(args.n)
    closed = ginibre_closed(lam, gam, args.n)
    pipeline = ginibre_pipeline(lam, gam, args.n)
    est = ginibre_mc(lam, gam, args.n, args.samples, RngStream(args.seed))
    z_mc = est.z_score(closed)
    # both exact routes round one rational once, so they agree to the bit;
    # relative error, or absolute where the closed form is 0 (N = 1, lg = -1)
    pipeline_err = abs(pipeline - closed) / (abs(closed) or 1.0)
    passed = bool(z_mc <= args.threshold and pipeline == closed)
    record = {
        "command": "ginibre-check",
        "n": args.n,
        "lambda": _cnum(lam),
        "gamma": _cnum(gam),
        "seed": args.seed,
        "closed_ratio": _cnum(closed),
        "pipeline_ratio": _cnum(pipeline),
        "pipeline_rel_err": pipeline_err,
        "mc_ratio": _cnum(est.mean),
        "mc_std_error": est.std_error,
        "samples": est.samples,
        "mc_z_score": z_mc if np.isfinite(z_mc) else None,
        "threshold": args.threshold,
        "passed": passed,
    }
    return record, EXIT_OK if passed else EXIT_VERIFICATION


def _run_verify(args, route: Route) -> tuple[dict, int]:
    report = route.call(args, RngStream(args.seed), args.threshold, args.workers)
    columns = (report.lhs, report.lhs_se, report.rhs, report.rhs_se, report.z_scores)
    rows = [
        {
            "mask": mask,
            "label": label,
            "lhs": _cnum(lhs),
            "lhs_se": lhs_se,
            "rhs": _cnum(rhs),
            "rhs_se": rhs_se,
            "z_score": z if math.isfinite(z) else 1e308,
        }
        for mask, label, lhs, lhs_se, rhs, rhs_se, z in zip(
            report.masks.tolist(), report.labels, *(c.tolist() for c in columns)
        )
    ]
    record = {
        "command": "verify-cft",
        "variant": report.variant,
        "colors": report.n_colour,
        "flavors": report.n_flavour,
        "samples": report.samples,
        "seed": args.seed,
        "workers": args.workers,
        "threshold": report.threshold,
        "rows_tested": report.rows_tested,
        "row_threshold": report.row_threshold,
        "max_abs_z": report.max_abs_z,
        "passed": bool(report.passed),
        "extras": report.extras,
        "rows": rows,
    }
    return record, EXIT_OK if report.passed else EXIT_VERIFICATION


# (subcommand, route) -> Route; the route is None for a subcommand with one
_RUNNERS = {
    ("pfaffian", None): Route(_run_pfaffian),
    ("haar-moment", None): Route(_run_haar_moment, draws=True),
    ("moment", "closed"): Route(
        _run_moment, lambda q, a: Estimate(moments.moment_m1_closed(q), 0.0, 0)),
    ("moment", "pfaffian"): Route(_run_moment, lambda q, a: moments.moment_pfaffian_integral(q)),
    ("moment", "mc"): Route(_run_moment, lambda q, a: moments.moment_mc(
        q, a.samples, RngStream(a.seed), a.workers), draws=True),
    ("jacobi", "pfaffian"): Route(_run_jacobi, lambda q: jacobi.jacobi_pfaffian(q)),
    ("jacobi", "quadrature"): Route(_run_jacobi, lambda q: jacobi.jacobi_quadrature(q)),
    ("ginibre-check", None): Route(_run_ginibre, draws=True),
    ("verify-cft", "fermionic"): Route(_run_verify, lambda a, *rest: cft.verify_fermionic_cft(
        a.colors, a.flavors, a.samples, *rest), draws=True),
    ("verify-cft", "bosonic"): Route(_run_verify, lambda a, *rest: cft.verify_bosonic_cft(
        a.colors, a.flavors, a.probes, a.samples, *rest), draws=True),
    ("verify-cft", "son"): Route(_run_verify, lambda a, *rest: cft.verify_son_cft(
        a.colors, a.flavors, a.samples, *rest), draws=True),
}


def run(argv, out=None, err=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        with contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.perf_counter()
    try:
        route = _RUNNERS[args.command, getattr(args, "route", None)]
        record, code = route.runner(args, route)
        _emit(record, args.format, out)
    except (OcftError, ValueError, json.JSONDecodeError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    err.write(f"elapsed: {time.perf_counter() - started:.3f}s\n")
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
