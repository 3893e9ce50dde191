"""The benchmark's four workloads: inputs from a seed, timed calls, output checks.

Each workload is one closed-loop client.  A pass is a fixed list of calls
into the package's public functions; the runner times each call, then checks
the pass's outputs outside the timed region.  The package must already be
importable (see ``run.activate``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from subweibull import cli, concentration, dist, montecarlo, orlicz, tau

DEFAULT_SEED = 20240817  # the acceptance suite's SEED
HELD_OUT_SEED = 19090677  # reserved for confirming a claimed gain; never tune on it
WORKLOADS = ("growth", "tail_small_n", "cli_numerics", "verify")

N_GRID = (16, 64, 256, 1024, 4096)  # the acceptance growth sweep's dimensions

# Sizes per workload.  SMOKE sizes keep every layer reachable at a fraction of
# the cost; the smoke test uses them.
SIZES = {
    "growth": {"trials": 1_000},
    "tail_small_n": {"trials": 20_000},
    "cli_numerics": {"samples": 100_000},
    "verify": {"trials": None},  # None: the command's default budget
}
SMOKE_SIZES = {
    "growth": {"trials": 1_000},
    "tail_small_n": {"trials": 10_000},
    "cli_numerics": {"samples": 1_000},
    "verify": {"trials": 1_000},
}


@dataclass(frozen=True)
class Call:
    """One operation of the closed loop: a timed call into the package."""

    label: str
    invoke: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # the problems found in each call's output, given every output of a pass
    check: Callable[[list], list[list[str]]]
    # sha256 digests of the reproducible outputs of one pass, or None
    digest: Callable[[list], dict[str, str] | None] = lambda results: None
    # every call runs on the calling thread alone (no Monte Carlo pool)
    single_threaded: bool = False


def _per_call(checks: list[Callable[[object], list[str]]]):
    return lambda results: [check(result) for check, result in zip(checks, results)]


def build(name: str, seed: int, out_dir: str, sizes: dict | None = None) -> Workload:
    """The workload ``name`` with inputs made from ``seed``."""
    size = (sizes or SIZES)[name]
    if name == "growth":
        return _growth(seed, size["trials"])
    if name == "tail_small_n":
        return _tail_small_n(seed, size["trials"])
    if name == "cli_numerics":
        return _cli_numerics(seed, size["samples"], out_dir)
    if name == "verify":
        return _verify(seed, size["trials"], out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _csv_digests(reports: list) -> dict[str, str]:
    return {
        "report_csv_sha256": _sha256(montecarlo.reports_to_csv(reports)),
        "tails_csv_sha256": _sha256(montecarlo.tails_to_csv(reports)),
    }


# ---------------------------------------------------------------------------
# growth: the acceptance growth sweep at a reduced trial count


def _check_dimension_free(spec, p: float, reports) -> list[str]:
    """Criterion 7 for the gaussian-type family, without its time gate."""
    problems = []
    ns = [r.n for r in reports]
    slope = montecarlo.loglog_slope(ns, [r.emp_dev_norm for r in reports])
    if not -0.1 <= slope <= 0.1:
        problems.append(f"dimension-free slope {slope:.4f} outside [-0.1, 0.1]")
    single_c = max(r.thm14_C for r in reports)
    if not single_c <= 8.0:
        problems.append(f"single thm14 C = {single_c:g} > 8")
    k_p = orlicz.psi_norm_analytic(spec, p).value
    l_p = dist.moment_abs(spec, p) ** (1.0 / p)
    beaten = [
        r.n for r in reports
        if concentration.thm14_bound(p, k_p, l_p, single_c) < r.emp_dev_norm
    ]
    if beaten:
        problems.append(f"thm14 bound at C = {single_c:g} fails to dominate n = {beaten}")
    return problems


def _check_sqrt_law(reports) -> list[str]:
    ns = [r.n for r in reports]
    slope = montecarlo.loglog_slope(ns, [r.emp_dev_norm for r in reports])
    if not 0.4 <= slope <= 0.6:
        return [f"sqrt-law slope {slope:.4f} outside [0.4, 0.6]"]
    return []


def _growth(seed: int, trials: int) -> Workload:
    """One growth_suite call over the whole grid per family."""
    gauss = dist.DistributionSpec.pnormal(2.0)
    expo = dist.DistributionSpec.exponential()
    families = ((gauss, 2.0, functools.partial(_check_dimension_free, gauss, 2.0)),
                (expo, 1.0, _check_sqrt_law))
    calls = tuple(
        Call(f"growth_suite {spec.family} p={p:g}",
             functools.partial(montecarlo.growth_suite, spec, p, N_GRID, trials, seed,
                               bootstrap=True))
        for spec, p, _ in families
    )

    def check(results) -> list[list[str]]:
        return [family_check(reports)
                for (_, _, family_check), reports in zip(families, results)]

    return Workload(
        "growth",
        calls,
        check,
        lambda results: _csv_digests([r for reports in results for r in reports]),
    )


# ---------------------------------------------------------------------------
# tail_small_n: one report with many short rows


def _check_tail_report(report) -> list[str]:
    problems = []
    rows = report.tail_rows
    freqs = [row.freq for row in rows]
    if len(rows) != 12:
        problems.append(f"{len(rows)} tail rows, expected 12")
    if not freqs or freqs[0] != 1.0:
        problems.append(f"first frequency {freqs[:1]}, expected 1")
    if any(b > a for a, b in zip(freqs, freqs[1:])):
        problems.append("tail frequencies increase")
    over = [row.t for row in rows if row.freq > row.bound + 3.0 * row.se]
    if over:
        problems.append(f"frequency above bound + 3 se at t = {over}")
    if not report.boot_lo <= report.emp_dev_norm <= report.boot_hi:
        problems.append(
            f"empirical norm {report.emp_dev_norm!r} outside its bootstrap interval "
            f"[{report.boot_lo!r}, {report.boot_hi!r}]"
        )
    return problems


def _tail_small_n(seed: int, trials: int) -> Workload:
    model = concentration.VectorModel(dist.DistributionSpec.exponential(), 16, 1.0)
    plan = montecarlo.ExperimentPlan(model, trials, seed)
    return Workload(
        "tail_small_n",
        (Call("run_report exp n=16 p=1", lambda: montecarlo.run_report(plan)),),
        _per_call([_check_tail_report]),
        _csv_digests,
    )


# ---------------------------------------------------------------------------
# cli_numerics: in-process CLI calls with no Monte Carlo trials


def _cli_call(label: str, argv: list[str], out_dir: str, index: int,
              expected_rc: int = 0, value_check=None) -> tuple[Call, Callable]:
    path = os.path.join(out_dir, f"call{index}.json")
    argv = argv + ["--output", path]

    def check(rc) -> list[str]:
        if rc != expected_rc:
            return [f"exit code {rc}, expected {expected_rc}"]
        if expected_rc != 0:
            return [f"output written on exit {rc}"] if os.path.exists(path) else []
        try:
            with open(path) as handle:
                value = float(json.load(handle)["value"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]
        finally:
            if os.path.exists(path):
                os.unlink(path)
        if not math.isfinite(value):
            return [f"value {value!r} is not finite"]
        return value_check(value) if value_check else []

    return Call(label, lambda: cli.main(argv)), check


def _near(expected: float, rel: float = 0.0, abs_tol: float = 0.0):
    def check(value: float) -> list[str]:
        if math.isclose(value, expected, rel_tol=rel, abs_tol=abs_tol):
            return []
        return [f"value {value!r}, expected {expected!r} (rel {rel:g}, abs {abs_tol:g})"]

    return check


def _cli_numerics(seed: int, samples: int, out_dir: str) -> Workload:
    quad = ["norm", "--method", "quadrature"]
    table = [
        ("norm exp p=0.5", quad + ["--family", "exp", "--p", "0.5"], 0, None),
        ("norm weibull(1.5) p=1",
         quad + ["--family", "weibull", "--param", "shape=1.5", "--param", "scale=1",
                 "--p", "1"], 0, None),
        ("norm pnormal(3) p=2",
         quad + ["--family", "pnormal", "--param", "p=3", "--p", "2"], 0, None),
        ("norm pnormal(3) p=3",
         quad + ["--family", "pnormal", "--param", "p=3", "--p", "3"], 0,
         _near((8.0 / 3.0) ** (1.0 / 3.0), rel=1e-6)),
        ("norm exp p=2 (divergent)", quad + ["--family", "exp", "--p", "2"],
         3, None),
        ("norm empirical weibull(2) p=2",
         ["norm", "--method", "empirical", "--family", "weibull", "--param", "shape=2",
          "--param", "scale=1", "--p", "2", "--samples", str(samples),
          "--seed", str(seed)], 0, None),
        ("tau exp_centered", ["tau", "--cumulant", "exp_centered"], 0,
         _near(2.0, abs_tol=1e-6)),
        ("tau exp_centered_sum n=100",
         ["tau", "--cumulant", "exp_centered_sum", "--n", "100"], 0,
         _near(11.0, abs_tol=1e-4)),
        ("conjugate phi_inf t=3", ["conjugate", "--f", "phi_inf", "--t", "3"], 0,
         _near(float(tau.phi1(3.0)), abs_tol=1e-9)),
        ("tailbound", ["tailbound", "--norm", "2", "--p", "1", "--t",
                       "2.772588722239781"], 0, None),
        ("bernstein", ["bernstein", "--n", "100", "--t", "0.5", "--k", "2", "--c1", "2"],
         0, None),
    ]
    calls, checks = zip(*(
        _cli_call(label, argv, out_dir, i, rc, value_check)
        for i, (label, argv, rc, value_check) in enumerate(table)
    ))
    return Workload("cli_numerics", calls, _per_call(checks), single_threaded=True)


# ---------------------------------------------------------------------------
# verify: the built-in invariant suite, in process


def _verify(seed: int, trials: int | None, out_dir: str) -> Workload:
    path = os.path.join(out_dir, "verify.txt")
    argv = ["verify", "--seed", str(seed), "--output", path]
    if trials is not None:
        argv += ["--trials", str(trials)]

    def check(rc) -> list[str]:
        problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
        try:
            with open(path) as handle:
                lines = handle.read().splitlines()
            os.unlink(path)
        except OSError as exc:
            return problems + [f"unreadable output: {exc!r}"]
        problems += [line for line in lines if line.startswith("FAIL")]
        passed, _, total = lines[-1].partition(" ")[0].partition("/") if lines else ("", "", "")
        if passed != total or not total.isdigit():
            problems.append(f"summary line {lines[-1:]!r}")
        return problems

    return Workload("verify", (Call("cli verify", lambda: cli.main(argv)),),
                    _per_call([check]))
