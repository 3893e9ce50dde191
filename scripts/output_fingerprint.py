#!/usr/bin/env python3
"""Print one sha256 per reproducible output, so two checkouts can be diffed.

Covers ``subweibull verify`` stdout at its default seed and at 20240817, the
output file of each call of the benchmark's ``cli_numerics`` workload,
``subweibull concentrate`` for exp at n = 16, p = 1, 10 000 trials and seed
20240817 in JSON (the one output written from nested dataclasses) and in CSV,
``subweibull concentrate`` for pnormal(3) at n = 256, p = 3, 10 000 trials in
CSV (a bootstrap whose resample norms are skewed left),
``subweibull norm`` of four laws at extreme scales (weibull(2) at 1e10 and
1e200, p = 2; weibull(5) and halfgauss_pow(5) at 1e80, p = 4), ``subweibull
tau --cumulant gaussian`` at sigma 1.3, 1e-12, 1e155 and 1e-200 (the last two
outside gaussian's range, exit 2), ``subweibull conjugate --f
quadratic --t -3 --search-bound 16`` (a scalar t below 0), and the report and
tail CSVs of the benchmark's ``growth`` and ``tail_small_n`` workloads at
20240817 and 19090677, each digested by the workload itself; workloads are
built from ``perfbench/workloads.py`` at their default sizes.  A grid of norms follows:
one line per quadrature law (p in 0.5, 1, 2, 3, 4 and two tols), per sample
row (p in 0.5, 1, 2, 3 and two tols) plus the batch of the rows with a
finite norm, and per tau cumulant (three tols, which leave its bits alone),
each the digest of the reprs of its results, an exception as its class and
message, one line of the canonical laws' closed-form facts (see
``law_facts``) and one of large moments by quadrature (see
``large_moments``).  Each line is ``<sha256 or "-" when nothing was
written>  exit <code>  <label>``, with ``exit -`` for the CSVs and the grid,
which come from in-process calls.  That is 68 lines.  Run it in each
checkout and compare the lists:

    python3 scripts/output_fingerprint.py > fingerprint.txt
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from subweibull import DistributionSpec, RandomStream, cli, dist, orlicz, sample, tau  # noqa: E402
import workloads  # noqa: E402

VERIFY_SEEDS = (None, 20_240_817)  # None: the command's default seed
CONCENTRATE_ARGV = ("concentrate", "--family", "exp", "--p", "1", "--n", "16",
                    "--trials", "10000", "--seed", "20240817")
SKEWED_CONCENTRATE_ARGV = ("concentrate", "--family", "pnormal", "--param", "p=3", "--p", "3",
                           "--n", "256", "--trials", "10000", "--seed", "20240817",
                           "--format", "csv")
EXTREME_NORM_ARGV = tuple(
    ("norm", "--family", family, "--p", p, "--param", shape, "--param", scale)
    for family, p, shape, scale in (
        ("weibull", "2", "shape=2", "scale=1e10"), ("weibull", "2", "shape=2", "scale=1e200"),
        ("weibull", "4", "shape=5", "scale=1e80"), ("halfgauss_pow", "4", "p=5", "scale=1e80"),
    )
)
TAU_ARGV = tuple(("tau", "--cumulant", "gaussian", "--sigma", sigma)
                 for sigma in ("1.3", "1e-12", "1e155", "1e-200"))
CONJUGATE_ARGV = ("conjugate", "--f", "quadratic", "--t", "-3", "--search-bound", "16")
CSV_SEEDS = (20_240_817, 19_090_677)  # the seeds of perfbench/reference_digests.json

_W, _P, _H = DistributionSpec.weibull, DistributionSpec.pnormal, DistributionSpec.halfgauss_pow
QUADRATURE_LAWS = (
    DistributionSpec.exponential(), _W(0.5), _W(1.5), _W(2.5, 1.5), _W(3.0), _P(1.0), _P(2.0),
    _P(3.0), _P(4.0), _H(1.0, 1.7), _H(2.0, 0.5), _H(2.5),
    # K**-p, (scale/K)**p or the integrand's y**p overflows
    _W(2.0, 1e200), _W(2.0, 1e-160), _W(5.0, 1e80), _H(5.0, 1e80),
    # divergent, with (scale/K)**p underflowing to 0
    _H(2.0, 1e-100), _W(1.0, 1e-200),
)
QUADRATURE_P = (0.5, 1.0, 2.0, 3.0, 4.0)
QUADRATURE_TOLS = (1e-6, 1e-8)
SAMPLE_P = (0.5, 1.0, 2.0, 3.0)
SAMPLE_TOLS = (1e-4, 1e-6)
TAU_TOLS = (1e-4, 1e-6, 1e-8)
FACT_LAWS = (DistributionSpec.exponential(), _W(0.7, 1.5), _P(1.0), _P(2.0), _P(3.0), _P(4.0),
             _H(2.5))
FACT_SCALES = (1.0, 1e80, 1e-160)
FACT_ALPHAS = (0.25, 0.5, 1.0, 1.7, 2.0, 3.0, 8.0)
# growth rates a and exponents r of E exp(a * B**r), on and around both bases' boundaries
FACT_RATES = (0.25, 0.5, 0.75, 1.0, 2.0)
FACT_EXPONENTS = (0.5, 1.0 - 2e-9, 1.0, 1.0 + 2e-9, 1.5, 2.0 - 2e-9, 2.0, 2.0 + 2e-9, 4.0)
FACT_T = (-2.0, -0.5, 0.0, 0.1, 0.25, 0.375, 0.5, 0.75, 1.0, 3.0)
FACT_TAIL_T = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0)
# E|X|**alpha up to and past the integrator's 1e150 ceiling: alpha! for exp, (2 alpha)! for
# weibull(0.5)
LARGE_MOMENTS = ((DistributionSpec.exponential(), (60.0, 70.0, 80.0, 90.0, 100.0)),
                 (_W(0.5), (30.0, 35.0, 40.0, 45.0, 50.0)))


def _sample_rows() -> dict[str, np.ndarray]:
    """Eight rows of 1000 values: draws, a point mass, tiny values and spikes."""
    draws = {
        f"sample {name}": np.abs(sample(spec, RandomStream(7, 0), 1000))
        for name, spec in (("exp", DistributionSpec.exponential()), ("pnormal(2)", _P(2.0)),
                           ("weibull(0.5)", _W(0.5)))
    }
    return draws | {
        "zeros": np.zeros(1000),
        "1e-300 x 1000": np.full(1000, 1e-300),
        "1 among 999 zeros": np.r_[1.0, np.zeros(999)],
        "1e300 among 999 zeros": np.r_[1e300, np.zeros(999)],
        "1e300 x 1000": np.full(1000, 1e300),
    }


def _tau_cumulants() -> dict[str, tau.Cumulant]:
    exp = tau.exp_centered()
    return {
        "exp_centered": exp,
        "gaussian(1.3)": tau.gaussian(1.3),
        "exp_centered x 2.5": tau.scaled(exp, 2.5),
        "exp_centered x 0.3": tau.scaled(exp, 0.3),
        "exp_centered sum 3": tau.iid_sum(exp, 3),
        "exp_centered + gaussian(0.7)": tau.sum_of([exp, tau.gaussian(0.7)]),
    }


def _results_digest(calls) -> str:
    """sha256 of the reprs of each call's result, or of its exception's class and message."""
    parts = []
    for call in calls:
        try:
            parts.append(repr(call()))
        except Exception as exc:  # noqa: BLE001 - an error is an output too
            parts.append(f"{type(exc).__name__}: {exc}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def norm_grid() -> list[tuple[str, str]]:
    """(digest, label) per quadrature law, sample row, batch of rows and tau cumulant."""
    lines = []
    for spec in QUADRATURE_LAWS:
        calls = [functools.partial(orlicz.psi_norm_quadrature, spec, p, tol)
                 for p in QUADRATURE_P for tol in QUADRATURE_TOLS]
        label = f"quadrature {spec.family}({spec.shape:g}, {spec.scale:g})"
        lines.append((_results_digest(calls), label))
    rows = _sample_rows()
    for name, row in rows.items():
        calls = [functools.partial(orlicz.psi_norm_empirical, row, p, tol)
                 for p in SAMPLE_P for tol in SAMPLE_TOLS]
        lines.append((_results_digest(calls), f"empirical {name}"))
    batch = np.stack([row for name, row in rows.items() if "1e300" not in name])
    calls = [functools.partial(orlicz.psi_norm_empirical, batch, p, tol)
             for p in SAMPLE_P for tol in SAMPLE_TOLS]
    lines.append((_results_digest(calls), "empirical batch of the rows without 1e300"))
    for name, cumulant in _tau_cumulants().items():
        calls = [functools.partial(tau.tau_norm, cumulant, tol) for tol in TAU_TOLS]
        lines.append((_results_digest(calls), f"tau {name}"))
    return lines


def law_facts() -> tuple[str, str]:
    """(digest, label) of the closed-form facts of the canonical laws.

    Each law of ``FACT_LAWS`` at each scale of ``FACT_SCALES`` gives its
    exponents, ``e``, its absolute moments and its convergence verdicts; each
    family at the scales it admits gives its analytic norm, its MGF table and
    its exact upper tail.
    """
    calls = []
    for spec in FACT_LAWS:
        for scale in FACT_SCALES:
            law = replace(dist.canonical(spec), scale=scale)
            calls += [functools.partial(law.exponent, p) for p in QUADRATURE_P]
            calls.append(lambda law=law: law.e)
            calls += [functools.partial(law.moment_abs, alpha) for alpha in FACT_ALPHAS]
            calls += [functools.partial(law.exp_moment_converges, a, r)
                      for a in FACT_RATES for r in FACT_EXPONENTS]
            if spec.family in ("exp", "pnormal") and scale != 1.0:
                continue
            scaled = replace(spec, scale=scale)
            calls.append(functools.partial(orlicz.psi_norm_analytic, scaled, spec.order))
            calls += [functools.partial(dist.mgf, scaled, t, power)
                      for power in (None, spec.order, 2.0 * spec.order) for t in FACT_T]
            calls += [functools.partial(dist.exact_upper_tail, scaled, scale * t)
                      for t in FACT_TAIL_T]
    return _results_digest(calls), "law facts"


def large_moments() -> tuple[str, str]:
    """(digest, label) of ``moment_abs_quadrature`` on ``LARGE_MOMENTS``."""
    calls = [functools.partial(dist.moment_abs_quadrature, spec, alpha)
             for spec, alphas in LARGE_MOMENTS for alpha in alphas]
    return _results_digest(calls), "large moments"


def _digest(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    os.unlink(path)
    return digest


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as out_dir:
        path = os.path.join(out_dir, "verify.txt")
        for seed in VERIFY_SEEDS:
            argv = ["verify", "--output", path] + ([] if seed is None else ["--seed", str(seed)])
            rc = cli.main(argv)
            label = "verify" + ("" if seed is None else f" --seed {seed}")
            print(f"{_digest(path)}  exit {rc}  {label}")
        workload = workloads.build("cli_numerics", workloads.DEFAULT_SEED, out_dir)
        for i, call in enumerate(workload.calls):
            rc = call.invoke()
            print(f"{_digest(os.path.join(out_dir, f'call{i}.json'))}  exit {rc}  {call.label}")
        for fmt in ("json", "csv"):
            rc = cli.main([*CONCENTRATE_ARGV, "--format", fmt, "--output", path])
            print(f"{_digest(path)}  exit {rc}  {' '.join(CONCENTRATE_ARGV)} --format {fmt}")
        for argv in (SKEWED_CONCENTRATE_ARGV, *EXTREME_NORM_ARGV, *TAU_ARGV, CONJUGATE_ARGV):
            rc = cli.main([*argv, "--output", path])
            print(f"{_digest(path)}  exit {rc}  {' '.join(argv)}")
        for name in ("growth", "tail_small_n"):
            for seed in CSV_SEEDS:
                workload = workloads.build(name, seed, out_dir)
                digests = workload.digest([call.invoke() for call in workload.calls])
                for key, digest in digests.items():
                    print(f"{digest}  exit -  {name} --seed {seed} {key}")
    for digest, label in (*norm_grid(), law_facts(), large_moments()):
        print(f"{digest}  exit -  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
