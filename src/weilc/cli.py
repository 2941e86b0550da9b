"""Command-line front end.

Each flag is declared on the one parser whose command reads it: the top
level takes only ``--config`` (and ``--version``); ``--json`` belongs to
``algebra-show``, ``eval`` and ``check``; ``--seed``, ``--trials`` and
``--tol`` to ``check``.  A flag anywhere else is an argparse usage error.

Exit codes: 0 success, 1 config error, 2 resolution or usage error,
3 domain error, 4 check failure.  ``main`` maps every ``WeilcError`` to
one of 1-3: ``ConfigError`` to 1, ``DomainError`` to 3, any other to 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .algebra import render_element
from .config import ProjectConfig, load_config
from .errors import ConfigError, DomainError, WeilcError, cut_repr
from .expr import eval_weil, to_string
from .poisson import bracket
from .prolongation import APoint, apply_field
from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RESOLVE = 2
EXIT_DOMAIN = 3
EXIT_CHECK_FAILED = 4


# built on the first call, not at import, and kept: parse_args leaves the
# parser as it was, so every in-process main call can share it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilc",
        description="Evaluate prolonged functions and run identity check suites.",
    )
    parser.add_argument("--version", action="version", version=f"weilc {__version__}")
    parser.add_argument(
        "--config",
        help="project config path (falls back to the WEILC_CONFIG variable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra-show", help="print basis, height, and products")
    p.add_argument("name")
    p.add_argument("--json", metavar="PATH", help="write the basis as JSON")

    p = sub.add_parser("eval", help="evaluate a named expression at an algebra point")
    p.add_argument("expression")
    p.add_argument("algebra")
    p.add_argument(
        "--point",
        required=True,
        help="JSON list of per-coordinate coefficient vectors in basis order",
    )
    p.add_argument("--json", metavar="PATH", help="write the value as JSON")

    p = sub.add_parser("bracket", help="Poisson bracket of two named expressions")
    p.add_argument("bivector")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--algebra", help="evaluate the prolonged bracket over this algebra")
    p.add_argument("--point", help="JSON point (goes with --algebra)")

    p = sub.add_parser("prolong", help="apply a prolonged field to a prolonged function")
    p.add_argument("field")
    p.add_argument("expression")
    p.add_argument("--algebra", required=True)
    p.add_argument("--point", required=True)

    p = sub.add_parser("check", help="run a registered check suite")
    p.add_argument("suite")
    p.add_argument("--pi", help="bivector name (poisson_full only)")
    p.add_argument("--algebra", help="algebra name (poisson_full only)")
    p.add_argument("--seed", type=int, help="override the configured suite seed")
    p.add_argument("--trials", type=int, help="override the configured trials")
    p.add_argument("--tol", type=float, help="override the configured tolerance")
    p.add_argument("--json", metavar="PATH", help="write a machine-readable report")
    return parser


def _load(args) -> ProjectConfig:
    path = args.config if args.config is not None else os.environ.get("WEILC_CONFIG")
    if not path:
        raise ConfigError("no config given (use --config or WEILC_CONFIG)")
    return load_config(path)


def _resolve(table: dict, name: str, what: str):
    if name not in table:
        known = ", ".join(sorted(table)) or "none defined"
        raise WeilcError(f"unknown {what} {name!r} ({known})")
    return table[name]


def _parse_point(text: str, algebra, n: int) -> APoint:
    try:
        raw = json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise WeilcError(f"--point is not valid JSON: {exc}") from exc
    except RecursionError:
        raise WeilcError("--point nests its lists too deeply") from None
    if not isinstance(raw, list) or len(raw) != n:
        raise WeilcError(f"--point needs {n} coordinate vectors, got {cut_repr(raw)}")
    coords = []
    for i, vec in enumerate(raw, 1):
        if not isinstance(vec, list) or len(vec) != algebra.dim:
            raise WeilcError(
                f"each coordinate needs {algebra.dim} coefficients "
                f"(basis {algebra.basis_names()}), got {cut_repr(vec)}"
            )
        # with parse_int=float every JSON number loads as a float, and a
        # bool, string or null does not
        if not all(type(v) is float for v in vec):
            raise WeilcError(f"--point coordinate x{i} has a non-number in {cut_repr(vec)}")
        # JSON reads NaN, Infinity and -Infinity, and 1e400 as inf
        if not all(map(math.isfinite, vec)):
            raise WeilcError(f"--point coordinate x{i} has a non-finite number in {cut_repr(vec)}")
        coords.append(algebra.element(vec))
    return APoint(algebra, tuple(coords))


def _write_json(path: str | None, data: dict):
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
        except OSError as exc:
            raise WeilcError(f"cannot write --json {path}: {exc.strerror}") from exc


def _cmd_algebra_show(cfg: ProjectConfig, args) -> int:
    algebra = _resolve(cfg.algebras, args.name, "algebra")
    names = algebra.basis_names()
    print(f"{args.name}: {algebra.describe()}")
    print(f"dim={algebra.dim} height={algebra.height} basis=[{', '.join(names)}]")
    width = max(len(s) for s in names + ["0"]) + 2
    print("products:")
    header = " " * width + "".join(s.ljust(width) for s in names)
    print(f"  {header}")
    products = {}
    for i, j, k in algebra.product_plan:
        products[i, j] = products[j, i] = names[k]
    for i, row_name in enumerate(names):
        cells = [products.get((i, j), "0").ljust(width) for j in range(algebra.dim)]
        print(f"  {row_name.ljust(width)}{''.join(cells)}")
    _write_json(
        args.json,
        {"name": args.name, "dim": algebra.dim, "height": algebra.height, "basis": names},
    )
    return EXIT_OK


def _cmd_eval(cfg: ProjectConfig, args) -> int:
    expr = _resolve(cfg.expressions, args.expression, "expression")
    algebra = _resolve(cfg.algebras, args.algebra, "algebra")
    point = _parse_point(args.point, algebra, cfg.chart_dim)
    value = eval_weil(expr, point)
    print(render_element(value))
    _write_json(
        args.json,
        {
            "expression": args.expression,
            "algebra": args.algebra,
            "coefficients": value.coeffs,
            "rendering": render_element(value, sig=17),
        },
    )
    return EXIT_OK


def _cmd_bracket(cfg: ProjectConfig, args) -> int:
    if (args.algebra is None) != (args.point is None):
        raise WeilcError("--algebra and --point go together: give both or neither")
    pi = _resolve(cfg.bivectors, args.bivector, "bivector")
    f = _resolve(cfg.expressions, args.f, "expression")
    g = _resolve(cfg.expressions, args.g, "expression")
    result = bracket(pi, f, g)
    print(to_string(result))
    if args.algebra is not None:
        algebra = _resolve(cfg.algebras, args.algebra, "algebra")
        point = _parse_point(args.point, algebra, cfg.chart_dim)
        print(render_element(eval_weil(result, point)))
    return EXIT_OK


def _cmd_prolong(cfg: ProjectConfig, args) -> int:
    theta = _resolve(cfg.vector_fields, args.field, "vector field")
    f = _resolve(cfg.expressions, args.expression, "expression")
    algebra = _resolve(cfg.algebras, args.algebra, "algebra")
    point = _parse_point(args.point, algebra, cfg.chart_dim)
    action = apply_field(theta, f)
    print(to_string(action))
    print(render_element(eval_weil(action, point)))
    return EXIT_OK


def _cmd_check(cfg: ProjectConfig, args) -> int:
    # the suites load here, on the first check, not with the CLI
    from .oracle import run_suite

    seed = args.seed if args.seed is not None else cfg.suites.seed
    trials = args.trials if args.trials is not None else cfg.suites.trials
    tol = args.tol if args.tol is not None else cfg.suites.tol
    pi, algebra = args.pi, args.algebra
    # names are looked up only for the suite that takes them: run_suite
    # refuses a pi or algebra given to another suite before reading it
    if args.suite == "poisson_full":
        pi = pi if pi is None else _resolve(cfg.bivectors, pi, "bivector")
        algebra = algebra if algebra is None else _resolve(cfg.algebras, algebra, "algebra")
    report = run_suite(args.suite, seed, trials, tol, pi=pi, algebra=algebra)
    print(report.summary())
    for w in report.witnesses:
        print(f"  witness residual={w.residual:.3e}")
        for key, val in sorted(w.inputs.items()):
            print(f"    {key}: {val}")
    if report.warning:
        print(f"  warning: {report.warning}")
    _write_json(args.json, report.to_dict())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "algebra-show": _cmd_algebra_show,
    "eval": _cmd_eval,
    "bracket": _cmd_bracket,
    "prolong": _cmd_prolong,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # argparse reads "--flag=--" as an empty list, not as a value
    for dest, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{dest}: expected one argument")
    try:
        return _COMMANDS[args.command](_load(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except WeilcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOLVE


if __name__ == "__main__":
    sys.exit(main())
