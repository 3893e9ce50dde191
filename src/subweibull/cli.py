"""Command-line driver.

Every computation is exposed as a subcommand taking flat flags.  A JSON
config file (``--config``) is one more way to give the same flags: each key
is a flag's name with ``_`` for ``-``, becomes that flag's tokens and is
placed ahead of the command line's own flags before the arguments are parsed
again, so flags win over config keys, which win over the built-in defaults,
and a config value gets its flag's type conversion and choices check.
Results are written as JSON or CSV, with all floats printed to 17
significant digits so runs are diffable; output files are written to a temp
file and renamed, so a failed run never leaves a partial file behind.

Exit codes: 0 ok, 1 verification failure, 2 config error (a method with no
closed form for the given inputs included), 3 numeric error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
import tempfile
from dataclasses import fields, is_dataclass

from . import dist, montecarlo, orlicz, tau, verify
from .concentration import VectorModel, psi_tail_bound
from .errors import NoClosedFormError, NumericalError, ParameterError, SubweibullError
from .streams import RandomStream

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# output formatting


def dumps17(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits.

    Floats are tested first, as most values are floats.  A dataclass is
    written as the object of its fields, nested dataclasses included, which
    gives the bytes of writing ``dataclasses.asdict(obj)`` without its deep
    copy.  A list or tuple of equal-length, non-empty rows of finite Python
    floats (such as a margin profile) is written by one ``%``-format over a
    template of its shape, with the bytes the element-wise recursion gives.
    """
    if isinstance(obj, float):
        # JSON spells the non-finite floats NaN, Infinity and -Infinity
        return montecarlo.format_cell(obj) if math.isfinite(obj) else json.dumps(obj)
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {dumps17(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        cells = _float_table_cells(obj)
        if cells is not None:
            cell = f"{inner}  %{montecarlo._FLOAT_SPEC}"
            row = f"{inner}[\n" + ",\n".join([cell] * len(obj[0])) + f"\n{inner}]"
            return ("[\n" + ",\n".join([row] * len(obj)) + f"\n{pad}]") % cells
        items = [f"{inner}{dumps17(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _float_table_cells(rows) -> tuple | None:
    """The cells, row by row, of a table of equal-length, non-empty list or
    tuple rows of finite Python floats; else None."""
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    width = len(rows[0])
    if not width or set(map(len, rows)) != {width}:
        return None
    cells = tuple([x for row in rows for x in row])
    # exactly float: an np.float64 or a bool goes the element-wise way
    if set(map(type, cells)) == {float} and all(map(math.isfinite, cells)):
        return cells
    return None


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over ``path``.

    The file gets the mode of the file it replaces, or 0o666 less the umask
    when it is new, as ``open`` would give it; mkstemp's 0o600 would survive
    the rename.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".subweibull-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: str | None) -> None:
    if output:
        _atomic_write(output, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _payload_text(payload: dict, fmt: str) -> str:
    """One JSON object, or a CSV header and row from its keys and values."""
    if fmt == "csv":
        return montecarlo.csv_text(payload, [payload.values()])
    return dumps17(payload) + "\n"


# ---------------------------------------------------------------------------
# config handling


def _config_tokens(args: argparse.Namespace) -> list[str]:
    """The --config JSON object as flag tokens; each key must name a flag of the subcommand."""
    try:
        with open(args.config) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise ParameterError("config file must hold a JSON object")
    unknown = sorted(set(config) - (set(vars(args)) - {"config", "command", "fn"}))
    if unknown:
        raise ParameterError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool) and isinstance(getattr(args, key), bool):
            tokens += [flag] if value else []  # a store-true flag
        elif key == "param" and isinstance(value, dict):
            tokens += [f"{flag}={name}={v}" for name, v in value.items()]
        elif key == "param" and isinstance(value, list):
            tokens += [f"{flag}={item}" for item in value]
        elif key == "t_grid" and isinstance(value, list):
            tokens.append(f"{flag}={','.join(map(str, value))}")
        elif value is not None:
            # one token, so a value starting with '-' is not read as a flag
            tokens.append(f"{flag}={value}")
    return tokens


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise ParameterError(f"{args.command} needs {', '.join(missing)}")


def _parse_params(raw: list[str] | None) -> dict[str, float]:
    params = {}
    for item in raw or ():
        if "=" not in item:
            raise ParameterError(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            params[name.strip()] = float(value)
        except ValueError as exc:
            raise ParameterError(f"--param value must be numeric, got {item!r}") from exc
    return params


def _build_spec(args: argparse.Namespace) -> dist.DistributionSpec:
    return dist.spec_from_json({"family": args.family, "params": _parse_params(args.param)})


def _parse_grid(raw: str | None) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in (raw or "").split(",") if v.strip())
    except ValueError as exc:
        raise ParameterError(f"--t-grid expects comma-separated numbers, got {raw!r}") from exc


# ---------------------------------------------------------------------------
# subcommands


def cmd_norm(args: argparse.Namespace) -> int:
    _require(args, "family", "p")
    spec = _build_spec(args)
    default_tol = 1e-8 if args.method == "quadrature" else orlicz.DEFAULT_TOL
    tol = default_tol if args.tol is None else args.tol
    if args.method == "analytic":
        result = orlicz.psi_norm_analytic(spec, args.p)
    elif args.method == "quadrature":
        result = orlicz.psi_norm_quadrature(spec, args.p, tol)
    else:
        _require(args, "samples", "seed")
        draws = dist.sample(spec, RandomStream(args.seed, 0), args.samples)
        result = orlicz.psi_norm_empirical(draws, args.p, tol)
    if args.format == "csv":
        text = montecarlo.csv_text(
            ["value", "p", "method", "bracket_lo", "bracket_hi", "residual"],
            [[result.value, result.p, result.method, *result.bracket, result.residual]],
        )
    else:
        text = dumps17(result) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_tau(args: argparse.Namespace) -> int:
    _require(args, "cumulant")
    if args.cumulant == "exp_centered":
        cumulant = tau.exp_centered()
    elif args.cumulant == "exp_centered_sum":
        cumulant = tau.iid_sum(tau.exp_centered(), args.n)
    else:
        cumulant = tau.gaussian(args.sigma)
    result = tau.tau_norm(cumulant, args.tol)
    if args.format == "csv":
        rows = [[result.value, t, s] for t, s in result.margin_profile]
        text = montecarlo.csv_text(["value", "t", "slack"], rows)
    else:
        text = dumps17(result) + "\n"
    _emit(text, args.output)
    return EXIT_OK


_CONJUGANDS = {
    "phi_inf": tau.phi_inf,
    "phi1": tau.phi1,
    "quadratic": lambda u: 0.5 * u * u,
}


def cmd_conjugate(args: argparse.Namespace) -> int:
    _require(args, "t")
    value = tau.convex_conjugate(_CONJUGANDS[args.f], args.t, args.search_bound)
    payload = {"f": args.f, "t": args.t, "search_bound": args.search_bound, "value": value}
    _emit(_payload_text(payload, args.format), args.output)
    return EXIT_OK


def cmd_tailbound(args: argparse.Namespace) -> int:
    _require(args, "norm", "p", "t")
    value = psi_tail_bound(args.norm, args.p, args.t, clamp=args.clamp)
    payload = {"norm": args.norm, "p": args.p, "t": args.t, "clamp": args.clamp, "value": value}
    _emit(_payload_text(payload, args.format), args.output)
    return EXIT_OK


def cmd_bernstein(args: argparse.Namespace) -> int:
    _require(args, "n", "t", "k")
    bound = tau.bernstein_bound(args.n, args.t, args.k, args.c1)
    payload = {
        "n": args.n, "t": args.t, "k": args.k, "c1": args.c1,
        "value": bound.value, "min_form": bound.min_form,
    }
    _emit(_payload_text(payload, args.format), args.output)
    return EXIT_OK


def cmd_concentrate(args: argparse.Namespace) -> int:
    _require(args, "family", "p", "n", "trials", "seed")
    plan = montecarlo.ExperimentPlan(
        model=VectorModel(_build_spec(args), args.n, args.p),
        trials=args.trials,
        seed=args.seed,
        t_grid=_parse_grid(args.t_grid),
    )
    report = montecarlo.run_report(plan)
    if args.format == "csv":
        _emit(montecarlo.reports_to_csv([report]), args.output)
    else:
        _emit(dumps17(report) + "\n", args.output)
    if args.tails_output:
        _atomic_write(args.tails_output, montecarlo.tails_to_csv([report]))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    budget = verify.FULL_TRIALS if args.full else verify.TRIALS
    trials = args.trials if args.trials is not None else budget
    results = verify.run_all(trials=trials, seed=args.seed)
    width = max(len(r.name) for r in results)
    lines = []
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  {r.detail}")
        failed += 0 if r.passed else 1
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subweibull",
        description="Stretched-exponential norms, conjugates and concentration experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags override its keys")
        sp.add_argument("--output", help="output path (default: stdout)")

    def formatted(sp):
        common(sp)
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("norm", help="Luxemburg-type norm of a family")
    formatted(sp)
    sp.add_argument("--family", choices=dist.FAMILIES)
    sp.add_argument("--param", action="append", metavar="NAME=VALUE")
    sp.add_argument("--p", type=float, help="norm order")
    sp.add_argument("--method", choices=("analytic", "quadrature", "empirical"),
                    default="quadrature")
    sp.add_argument("--tol", type=float,
                    help="bracket width: for quadrature (default 1e-8) only a bound on the "
                         "reported width in units of the law's scale, which is at most "
                         "1e-12 relative anyway; for empirical (default 1e-6) the "
                         "bisection's stopping width")
    sp.add_argument("--samples", type=int, help="draw count for --method empirical")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("tau", help="cumulant-domination norm")
    formatted(sp)
    sp.add_argument("--cumulant", choices=("exp_centered", "exp_centered_sum", "gaussian"))
    sp.add_argument("--n", type=int, default=1, help="summand count for exp_centered_sum")
    sp.add_argument("--sigma", type=float, default=1.0, help="std deviation for gaussian")
    sp.add_argument("--tol", type=float, default=1e-6,
                    help="bound on the reported bracket's width in units of sqrt C''(0), "
                         "the standard deviation; the width is about 1e-12 relative "
                         "anyway (default 1e-6)")
    sp.set_defaults(fn=cmd_tau)

    sp = sub.add_parser("conjugate", help="numerical convex conjugate")
    formatted(sp)
    sp.add_argument("--f", choices=tuple(_CONJUGANDS), default="phi_inf")
    sp.add_argument("--t", type=float)
    sp.add_argument("--search-bound", dest="search_bound", type=float, default=16.0)
    sp.set_defaults(fn=cmd_conjugate)

    sp = sub.add_parser("tailbound", help="two-sided tail bound from a norm")
    formatted(sp)
    sp.add_argument("--norm", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--t", type=float)
    sp.add_argument("--clamp", action="store_true")
    sp.set_defaults(fn=cmd_tailbound)

    sp = sub.add_parser("bernstein", help="Bernstein-type bound for averages")
    formatted(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--t", type=float)
    sp.add_argument("--k", type=float, help="largest order-1 coordinate norm")
    sp.add_argument("--c1", type=float, default=2.0)
    sp.set_defaults(fn=cmd_bernstein)

    sp = sub.add_parser("concentrate", help="Monte Carlo concentration report")
    formatted(sp)
    sp.add_argument("--family", choices=dist.FAMILIES)
    sp.add_argument("--param", action="append", metavar="NAME=VALUE")
    sp.add_argument("--p", type=float)
    sp.add_argument("--n", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--t-grid", dest="t_grid", help="comma-separated tail checkpoints")
    sp.add_argument("--tails-output", dest="tails_output", help="CSV path for tail rows")
    sp.set_defaults(fn=cmd_concentrate)

    sp = sub.add_parser("verify", help="run the full invariant suite")
    common(sp)
    sp.add_argument("--trials", type=int, help="Monte Carlo budget per experiment")
    sp.add_argument("--seed", type=int, default=verify.SEED)
    sp.add_argument("--full", action="store_true", help="acceptance-strength trial count")
    sp.set_defaults(fn=cmd_verify)

    return parser


# parsing leaves no state in the parser, so one per process serves every call
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # argv[0] is the subcommand; config flags precede the user's, so the user's win
            args = parser.parse_args(argv[:1] + _config_tokens(args) + argv[1:])
        return args.fn(args)
    except (ParameterError, NoClosedFormError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except SubweibullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
