"""Command-line driver.

Every computation is exposed as a subcommand taking either flat flags or a
JSON config file (flags win).  Results are written as JSON or CSV, with all
floats printed to 17 significant digits so runs are diffable; output files
are written to a temp file and renamed, so a failed run never leaves a
partial file behind.

Exit codes: 0 ok, 1 verification failure, 2 config error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

from . import dist, montecarlo, orlicz, tau, verify
from .concentration import VectorModel, psi_tail_bound
from .errors import NumericalError, ParameterError, SubweibullError
from .streams import RandomStream

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# output formatting


def dumps17(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits."""
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
        items = [f"{inner}{dumps17(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        # JSON spells the non-finite floats NaN, Infinity and -Infinity
        return montecarlo.format_cell(obj) if math.isfinite(obj) else json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".subweibull-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
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


def _load_config(args: argparse.Namespace) -> dict:
    """The --config JSON object; every key must name one of the subcommand's flags."""
    if not args.config:
        return {}
    try:
        with open(args.config) as handle:
            cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError("config file must hold a JSON object")
    unknown = sorted(set(cfg) - set(vars(args)))
    if unknown:
        raise ParameterError(f"unknown config keys for {args.command}: {', '.join(unknown)}")
    return cfg


def _merge(args: argparse.Namespace, cfg: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in cfg:
        return cfg[key]
    return default


def _parse_params(raw) -> dict[str, float]:
    if raw is None:
        return {}
    if isinstance(raw, dict):
        return {str(k): float(v) for k, v in raw.items()}
    params = {}
    for item in raw:
        if "=" not in item:
            raise ParameterError(f"--param expects name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            params[name.strip()] = float(value)
        except ValueError as exc:
            raise ParameterError(f"--param value must be numeric, got {item!r}") from exc
    return params


def _build_spec(family: str | None, params: dict[str, float]) -> dist.DistributionSpec:
    if not family:
        raise ParameterError("a distribution family is required (--family)")
    return dist.spec_from_json({"family": family, "params": params})


def _parse_grid(raw) -> tuple[float, ...]:
    if raw is None:
        return ()
    if isinstance(raw, (list, tuple)):
        return tuple(float(v) for v in raw)
    return tuple(float(v) for v in str(raw).split(",") if v.strip())


# ---------------------------------------------------------------------------
# subcommands


def cmd_norm(args: argparse.Namespace, cfg: dict) -> int:
    spec = _build_spec(_merge(args, cfg, "family"), _parse_params(_merge(args, cfg, "param")))
    p = _merge(args, cfg, "p")
    if p is None:
        raise ParameterError("norm order --p is required")
    p = float(p)
    method = _merge(args, cfg, "method", "quadrature")
    default_tol = 1e-8 if method == "quadrature" else orlicz.DEFAULT_TOL
    tol = float(_merge(args, cfg, "tol", default_tol))
    if method == "analytic":
        result = orlicz.psi_norm_analytic(spec, p)
    elif method == "quadrature":
        result = orlicz.psi_norm_quadrature(spec, p, tol)
    elif method == "empirical":
        count = _merge(args, cfg, "samples")
        seed = _merge(args, cfg, "seed")
        if count is None or seed is None:
            raise ParameterError("empirical norms need --samples and --seed")
        draws = dist.sample(spec, RandomStream(int(seed), 0), int(count))
        result = orlicz.psi_norm_empirical(draws, p, tol)
    else:
        raise ParameterError(f"unknown method {method!r}")
    if args.format == "csv":
        text = montecarlo.csv_text(
            ["value", "p", "method", "bracket_lo", "bracket_hi", "residual"],
            [[result.value, result.p, result.method, *result.bracket, result.residual]],
        )
    else:
        text = dumps17(asdict(result)) + "\n"
    _emit(text, args.output)
    return EXIT_OK


_CUMULANTS = ("exp_centered", "exp_centered_sum", "gaussian")


def _build_cumulant(name: str | None, n, sigma) -> tau.Cumulant:
    if name == "exp_centered":
        return tau.exp_centered()
    if name == "exp_centered_sum":
        return tau.iid_sum(tau.exp_centered(), int(n if n is not None else 1))
    if name == "gaussian":
        return tau.gaussian(float(sigma if sigma is not None else 1.0))
    raise ParameterError(f"--cumulant must be one of {_CUMULANTS}, got {name!r}")


def cmd_tau(args: argparse.Namespace, cfg: dict) -> int:
    cumulant = _build_cumulant(
        _merge(args, cfg, "cumulant"), _merge(args, cfg, "n"), _merge(args, cfg, "sigma")
    )
    tol = float(_merge(args, cfg, "tol", 1e-6))
    result = tau.tau_norm(cumulant, tol)
    if args.format == "csv":
        rows = [[result.value, t, s] for t, s in result.margin_profile]
        text = montecarlo.csv_text(["value", "t", "slack"], rows)
    else:
        text = dumps17(asdict(result)) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_conjugate(args: argparse.Namespace, cfg: dict) -> int:
    fname = _merge(args, cfg, "f", "phi_inf")
    t = _merge(args, cfg, "t")
    if t is None:
        raise ParameterError("--t is required")
    t = float(t)
    bound = float(_merge(args, cfg, "search_bound", 16.0))
    table = {
        "phi_inf": tau.phi_inf,
        "phi1": tau.phi1,
        "quadratic": lambda u: 0.5 * u * u,
    }
    if fname not in table:
        raise ParameterError(f"--f must be one of {sorted(table)}, got {fname!r}")
    value = tau.convex_conjugate(table[fname], t, bound)
    payload = {"f": fname, "t": t, "search_bound": bound, "value": value}
    _emit(_payload_text(payload, args.format), args.output)
    return EXIT_OK


def cmd_tailbound(args: argparse.Namespace, cfg: dict) -> int:
    norm = _merge(args, cfg, "norm")
    p = _merge(args, cfg, "p")
    t = _merge(args, cfg, "t")
    if norm is None or p is None or t is None:
        raise ParameterError("--norm, --p and --t are required")
    clamp = bool(_merge(args, cfg, "clamp", False))
    value = psi_tail_bound(float(norm), float(p), float(t), clamp=clamp)
    payload = {"norm": float(norm), "p": float(p), "t": float(t), "clamp": clamp, "value": value}
    _emit(_payload_text(payload, args.format), args.output)
    return EXIT_OK


def cmd_bernstein(args: argparse.Namespace, cfg: dict) -> int:
    n = _merge(args, cfg, "n")
    t = _merge(args, cfg, "t")
    k = _merge(args, cfg, "k")
    if n is None or t is None or k is None:
        raise ParameterError("--n, --t and --k are required")
    c1 = float(_merge(args, cfg, "c1", 2.0))
    bound = tau.bernstein_bound(int(n), float(t), float(k), c1)
    payload = {
        "n": int(n), "t": float(t), "k": float(k), "c1": c1,
        "value": bound.value, "min_form": bound.min_form,
    }
    _emit(_payload_text(payload, args.format), args.output)
    return EXIT_OK


def cmd_concentrate(args: argparse.Namespace, cfg: dict) -> int:
    spec = _build_spec(_merge(args, cfg, "family"), _parse_params(_merge(args, cfg, "param")))
    p = _merge(args, cfg, "p")
    n = _merge(args, cfg, "n")
    trials = _merge(args, cfg, "trials")
    seed = _merge(args, cfg, "seed")
    if p is None or n is None or trials is None or seed is None:
        raise ParameterError("--p, --n, --trials and --seed are required")
    plan = montecarlo.ExperimentPlan(
        model=VectorModel(spec, int(n), float(p)),
        trials=int(trials),
        seed=int(seed),
        t_grid=_parse_grid(_merge(args, cfg, "t_grid")),
    )
    report = montecarlo.run_report(plan)
    if args.format == "csv":
        _emit(montecarlo.reports_to_csv([report]), args.output)
        if args.tails_output:
            _atomic_write(args.tails_output, montecarlo.tails_to_csv([report]))
    else:
        _emit(dumps17(asdict(report)) + "\n", args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, cfg: dict) -> int:
    trials = int(_merge(args, cfg, "trials", 100_000 if args.full else 20_000))
    seed = int(_merge(args, cfg, "seed", 777))
    results = verify.run_all(trials=trials, seed=seed)
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
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("norm", help="Luxemburg-type norm of a family")
    common(sp)
    sp.add_argument("--family", choices=("exp", "weibull", "pnormal", "halfgauss_pow"))
    sp.add_argument("--param", action="append", metavar="NAME=VALUE")
    sp.add_argument("--p", type=float, help="norm order")
    sp.add_argument("--method", choices=("analytic", "quadrature", "empirical"))
    sp.add_argument("--tol", type=float)
    sp.add_argument("--samples", type=int, help="draw count for --method empirical")
    sp.add_argument("--seed", type=int)
    sp.set_defaults(fn=cmd_norm)

    sp = sub.add_parser("tau", help="cumulant-domination norm")
    common(sp)
    sp.add_argument("--cumulant", choices=_CUMULANTS)
    sp.add_argument("--n", type=int, help="summand count for exp_centered_sum")
    sp.add_argument("--sigma", type=float, help="std deviation for gaussian")
    sp.add_argument("--tol", type=float)
    sp.set_defaults(fn=cmd_tau)

    sp = sub.add_parser("conjugate", help="numerical convex conjugate")
    common(sp)
    sp.add_argument("--f", choices=("phi_inf", "phi1", "quadratic"))
    sp.add_argument("--t", type=float)
    sp.add_argument("--search-bound", dest="search_bound", type=float)
    sp.set_defaults(fn=cmd_conjugate)

    sp = sub.add_parser("tailbound", help="two-sided tail bound from a norm")
    common(sp)
    sp.add_argument("--norm", type=float)
    sp.add_argument("--p", type=float)
    sp.add_argument("--t", type=float)
    sp.add_argument("--clamp", action="store_true", default=None)
    sp.set_defaults(fn=cmd_tailbound)

    sp = sub.add_parser("bernstein", help="Bernstein-type bound for averages")
    common(sp)
    sp.add_argument("--n", type=int)
    sp.add_argument("--t", type=float)
    sp.add_argument("--k", type=float, help="largest order-1 coordinate norm")
    sp.add_argument("--c1", type=float)
    sp.set_defaults(fn=cmd_bernstein)

    sp = sub.add_parser("concentrate", help="Monte Carlo concentration report")
    common(sp)
    sp.add_argument("--family", choices=("exp", "weibull", "pnormal", "halfgauss_pow"))
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
    sp.add_argument("--seed", type=int)
    sp.add_argument("--full", action="store_true", help="acceptance-strength trial count")
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, _load_config(args))
    except (ParameterError, OSError) as exc:
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
