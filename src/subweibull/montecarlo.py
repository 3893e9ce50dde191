"""Monte Carlo harness: deviation norms, tail frequencies, constant fitting.

Reproducibility contract: trial j of a plan always draws from substream
``(seed, j)``, results are assembled into arrays indexed by trial before any
floating-point reduction, and bootstrap resample r uses substream
``(seed, BOOTSTRAP_STREAM_BASE + r)``.  Worker threads only decide who fills
which slot, so a plan's outputs are bitwise identical for any setting of
``SUBWEIBULL_THREADS``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .concentration import (
    VectorModel,
    lp_norm,
    prop13_bound,
    thm14_bound,
    thm14_tail_bound,
)
from .dist import DistributionSpec, moment_abs, sample_streams
from .errors import (
    NoClosedFormError,
    NoFeasibleConstantError,
    ParameterError,
)
from .orlicz import psi_norm_analytic, psi_norm_empirical, psi_norm_quadrature
from .streams import RandomStream
from .tau import bernstein_bound

BOOTSTRAP_STREAM_BASE = 1 << 40
BOOTSTRAP_RESAMPLES = 200
LOCKSTEP_VALUES = 16_384

MIN_TRIALS_NORM = 1_000
MIN_TRIALS_TAIL = 10_000

TARGET_PROP13 = "prop13"
TARGET_THM14 = "thm14"
TARGET_BERNSTEIN = "bernstein"

ENV_THREADS = "SUBWEIBULL_THREADS"


def worker_count() -> int:
    raw = os.environ.get(ENV_THREADS, "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError as exc:
            raise ParameterError(f"{ENV_THREADS} must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ParameterError(f"{ENV_THREADS} must be >= 1, got {n}")
        return n
    return os.cpu_count() or 1


@contextmanager
def worker_threads(count: int):
    """Run the body with ``SUBWEIBULL_THREADS`` set to ``count``, then restore it."""
    saved = os.environ.get(ENV_THREADS)
    os.environ[ENV_THREADS] = str(count)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(ENV_THREADS, None)
        else:
            os.environ[ENV_THREADS] = saved


def _indexed_blocks(
    fill: Callable[[int, int], np.ndarray | list[float]], count: int, block: int
) -> np.ndarray:
    """Assemble fill(j0, j1) for consecutive index blocks of size ``block`` into one array.

    Each block writes only its own slots, so the result depends on ``fill``
    and the block boundaries, never on which thread ran a block.  A caller
    that derives ``block`` from the worker count needs a ``fill`` whose value
    at j does not depend on the boundaries.
    """
    out = np.empty(count, dtype=float)
    starts = list(range(0, count, block))

    def run(j0: int) -> None:
        j1 = min(j0 + block, count)
        out[j0:j1] = fill(j0, j1)

    workers = min(worker_count(), len(starts))
    if workers <= 1:
        for j0 in starts:
            run(j0)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, starts))
    return out


def default_constant_grid() -> tuple[float, ...]:
    return tuple(np.geomspace(0.5, 32.0, 40))


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce one experiment, seeds included."""

    model: VectorModel
    trials: int
    seed: int
    t_grid: tuple[float, ...] = ()
    constant_grid: tuple[float, ...] = field(default_factory=default_constant_grid)

    def __post_init__(self) -> None:
        if not isinstance(self.trials, (int, np.integer)) or self.trials < MIN_TRIALS_NORM:
            raise ParameterError(
                f"trials must be an integer >= {MIN_TRIALS_NORM}, got {self.trials}"
            )
        grid = tuple(float(t) for t in self.t_grid)
        if any(t < 0.0 for t in grid) or any(
            b <= a for a, b in zip(grid, grid[1:])
        ):
            raise ParameterError("t_grid must be nonnegative and strictly increasing")
        object.__setattr__(self, "t_grid", grid)
        cg = tuple(float(c) for c in self.constant_grid)
        if not cg or any(c <= 0.0 for c in cg):
            raise ParameterError("constant_grid must be nonempty and positive")
        object.__setattr__(self, "constant_grid", tuple(sorted(cg)))

    def effective_t_grid(self) -> tuple[float, ...]:
        return self.t_grid if self.t_grid else default_t_grid(self.model)


def center_value(model: VectorModel) -> float:
    """L^p center (n * E|X_1|**p)**(1/p) from exact coordinate moments."""
    return (model.n * moment_abs(model.coordinate_spec, model.p)) ** (1.0 / model.p)


def default_t_grid(model: VectorModel, points: int = 12) -> tuple[float, ...]:
    """Grid spanning six CLT standard deviations of the norm deviation."""
    p, n = model.p, model.n
    mp = moment_abs(model.coordinate_spec, p)
    var_p = moment_abs(model.coordinate_spec, 2.0 * p) - mp * mp
    center = (n * mp) ** (1.0 / p)
    sigma = math.sqrt(max(n * var_p, 1e-300)) / (p * center ** (p - 1.0))
    return tuple(np.linspace(0.0, 6.0 * sigma, points))


def deviations(plan: ExperimentPlan) -> np.ndarray:
    """| |X|_p - center | per trial; trial j draws from substream (seed, j)."""
    model = plan.model
    spec = model.coordinate_spec
    center = center_value(model)
    # amortize stream setup without spilling the block out of cache
    block = max(8, min(1024, 65_536 // max(model.n, 1)))

    def fill(j0: int, j1: int) -> np.ndarray:
        rows = sample_streams(spec, plan.seed, j0, j1, model.n)
        return np.abs(lp_norm(rows, model.p) - center)

    return _indexed_blocks(fill, plan.trials, block)


def deviation_norm_estimate(plan: ExperimentPlan, *, devs: np.ndarray | None = None) -> float:
    """Empirical order-p norm of the absolute norm deviations."""
    if devs is None:
        devs = deviations(plan)
    return psi_norm_empirical(devs, plan.model.p).value


def bootstrap_interval(
    devs: np.ndarray, p: float, seed: int, resamples: int = BOOTSTRAP_RESAMPLES
) -> tuple[float, float]:
    """95% percentile bootstrap interval for the empirical deviation norm."""
    n = devs.size
    # resamples bisected in lockstep: about LOCKSTEP_VALUES sample values at a time
    chunk = max(1, LOCKSTEP_VALUES // n)

    def fill(r0: int, r1: int) -> list[float]:
        norms = []
        for c0 in range(r0, r1, chunk):
            idx = np.stack([
                RandomStream(seed, BOOTSTRAP_STREAM_BASE + r).generator().integers(0, n, size=n)
                for r in range(c0, min(c0 + chunk, r1))
            ])
            norms += [result.value for result in psi_norm_empirical(devs[idx], p, tol=1e-4)]
        return norms

    # resample r keys its own stream, so one block per worker is safe
    norms = _indexed_blocks(fill, resamples, -(-resamples // worker_count()))
    return float(np.quantile(norms, 0.025)), float(np.quantile(norms, 0.975))


@dataclass(frozen=True)
class TailRow:
    t: float
    freq: float
    se: float
    bound: float
    C: float


def _binomial_se(count: int, trials: int) -> float:
    # +0.5 continuity floor keeps the SE positive at freq in {0, 1}
    c = min(max(count, 0.5), trials - 0.5)
    phat = c / trials
    return math.sqrt(phat * (1.0 - phat) / trials)


def tail_exceedance(
    plan: ExperimentPlan, *, devs: np.ndarray | None = None
) -> list[tuple[float, float, float]]:
    """(t, empirical frequency of deviation >= t, binomial SE) per grid point."""
    if plan.trials < MIN_TRIALS_TAIL:
        raise ParameterError(
            f"tail estimation needs trials >= {MIN_TRIALS_TAIL}, got {plan.trials}"
        )
    if devs is None:
        devs = deviations(plan)
    rows = []
    for t in plan.effective_t_grid():
        count = int(np.count_nonzero(devs >= t))
        rows.append((t, count / plan.trials, _binomial_se(count, plan.trials)))
    return rows


def coordinate_norm(spec: DistributionSpec, p: float) -> float:
    """Order-p norm of one coordinate: closed form, else quadrature."""
    try:
        return psi_norm_analytic(spec, p).value
    except NoClosedFormError:
        return psi_norm_quadrature(spec, p).value


def _bound_fn(plan: ExperimentPlan, target: str) -> Callable[[float, float], float]:
    """bound(C, t) for the calibration target; t ignored for norm targets."""
    model = plan.model
    spec = model.coordinate_spec
    k_p = coordinate_norm(spec, model.p)
    if target == TARGET_PROP13:
        return lambda C, _t: prop13_bound(model.n, model.p, k_p, C)
    if target == TARGET_THM14:
        l_p = moment_abs(spec, model.p) ** (1.0 / model.p)
        return lambda C, _t: thm14_bound(model.p, k_p, l_p, C)
    if target == TARGET_BERNSTEIN:
        k_1 = coordinate_norm(spec, 1.0)
        n = model.n
        # the plan's t grid lives on the sum scale; the bound is for averages
        return lambda C, t: bernstein_bound(n, t / n, k_1, C).value
    raise ParameterError(f"unknown calibration target {target!r}")


def calibrate_constant(
    plan: ExperimentPlan,
    target: str,
    *,
    devs: np.ndarray | None = None,
    emp_norm: float | None = None,
    rows: Sequence[tuple[float, float, float]] | None = None,
) -> float:
    """Smallest grid constant whose bound dominates the empirical evidence.

    Norm targets require bound(C) >= empirical deviation norm; the tail
    target requires bound(C, t) >= freq - 3*SE at every grid t.  Raises
    ``NoFeasibleConstantError`` when even the largest candidate fails, which
    flags either a bug or an undersized grid.
    """
    bound = _bound_fn(plan, target)
    if target in (TARGET_PROP13, TARGET_THM14):
        if emp_norm is None:
            emp_norm = deviation_norm_estimate(plan, devs=devs)
        feasible = lambda C: bound(C, 0.0) >= emp_norm
    else:
        if rows is None:
            rows = tail_exceedance(plan, devs=devs)
        feasible = lambda C: all(
            bound(C, t) >= freq - 3.0 * se for t, freq, se in rows
        )
    for C in plan.constant_grid:
        try:
            if feasible(C):
                return C
        except ParameterError:
            continue  # candidate outside the bound's own domain (e.g. C1 < 1)
    raise NoFeasibleConstantError(
        f"no constant in [{plan.constant_grid[0]:g}, {plan.constant_grid[-1]:g}] "
        f"dominates the {target} evidence"
    )


# ---------------------------------------------------------------------------
# assembled reports


@dataclass(frozen=True)
class ConcentrationReport:
    family: str
    p: float
    n: int
    trials: int
    seed: int
    center: float
    emp_dev_norm: float
    boot_lo: float
    boot_hi: float
    prop13_C: float
    prop13_bound: float
    thm14_C: float
    thm14_bound: float
    tail_rows: tuple[TailRow, ...]


def run_report(plan: ExperimentPlan, *, bootstrap: bool = True) -> ConcentrationReport:
    """Full per-(family, n) record: norms, fitted constants, tail comparison.

    Tail rows are included whenever trials allows; for p >= 2 they carry the
    dimension-free tail bound at its fitted constant, otherwise the average
    Bernstein bound at its fitted constant.
    """
    model = plan.model
    spec = model.coordinate_spec
    devs = deviations(plan)
    emp = psi_norm_empirical(devs, model.p).value
    if bootstrap:
        boot_lo, boot_hi = bootstrap_interval(devs, model.p, plan.seed)
    else:
        boot_lo = boot_hi = math.nan

    p13_c = calibrate_constant(plan, TARGET_PROP13, emp_norm=emp)
    k_p = coordinate_norm(spec, model.p)
    p13_val = prop13_bound(model.n, model.p, k_p, p13_c)

    if model.p >= 2.0 and model.iid:
        t14_c = calibrate_constant(plan, TARGET_THM14, emp_norm=emp)
        l_p = moment_abs(spec, model.p) ** (1.0 / model.p)
        t14_val = thm14_bound(model.p, k_p, l_p, t14_c)
    else:
        t14_c = t14_val = math.nan

    rows: tuple[TailRow, ...] = ()
    if plan.trials >= MIN_TRIALS_TAIL:
        freq_rows = tail_exceedance(plan, devs=devs)
        if model.p >= 2.0 and model.iid:
            l_p = moment_abs(spec, model.p) ** (1.0 / model.p)
            tail_c = t14_c
            tail_bound = lambda t: thm14_tail_bound(model.p, k_p, l_p, t, tail_c)
        else:
            tail_c = calibrate_constant(plan, TARGET_BERNSTEIN, rows=freq_rows)
            k_1 = coordinate_norm(spec, 1.0)
            tail_bound = lambda t: bernstein_bound(
                model.n, t / model.n, k_1, tail_c
            ).value
        rows = tuple(
            TailRow(t=t, freq=freq, se=se, bound=tail_bound(t), C=tail_c)
            for t, freq, se in freq_rows
        )

    return ConcentrationReport(
        family=spec.family,
        p=model.p,
        n=model.n,
        trials=plan.trials,
        seed=plan.seed,
        center=center_value(model),
        emp_dev_norm=emp,
        boot_lo=boot_lo,
        boot_hi=boot_hi,
        prop13_C=p13_c,
        prop13_bound=p13_val,
        thm14_C=t14_c,
        thm14_bound=t14_val,
        tail_rows=rows,
    )


def growth_suite(
    spec: DistributionSpec,
    p: float,
    n_grid: Sequence[int],
    trials: int,
    seed: int,
    *,
    bootstrap: bool = True,
) -> list[ConcentrationReport]:
    """One report per dimension in ``n_grid``, all from the same seed."""
    reports = []
    for n in n_grid:
        plan = ExperimentPlan(VectorModel(spec, int(n), p), trials, seed)
        reports.append(run_report(plan, bootstrap=bootstrap))
    return reports


def loglog_slope(ns: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against log(ns)."""
    return float(np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(values, float)), 1)[0])


# ---------------------------------------------------------------------------
# serialization

REPORT_COLUMNS = (
    "family", "p", "n", "trials", "seed", "center", "emp_dev_norm", "boot_lo", "boot_hi",
    "prop13_C", "prop13_bound", "thm14_C", "thm14_bound",
)
TAIL_COLUMNS = ("family", "p", "n", "t", "freq", "se", "bound", "C")


def format_cell(value) -> str:
    """Floats at 17 significant digits (``nan``, ``inf`` when not finite), else str."""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def csv_text(header: Sequence[str], rows) -> str:
    """Comma-separated text: the header line, then one line per row."""
    lines = [",".join(header)] + [",".join(map(format_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: Sequence[ConcentrationReport]) -> str:
    return csv_text(REPORT_COLUMNS, ([getattr(r, c) for c in REPORT_COLUMNS] for r in reports))


def tails_to_csv(reports: Sequence[ConcentrationReport]) -> str:
    return csv_text(
        TAIL_COLUMNS,
        (
            (r.family, r.p, r.n, row.t, row.freq, row.se, row.bound, row.C)
            for r in reports
            for row in r.tail_rows
        ),
    )
