"""Monte Carlo harness: deviation norms, tail frequencies, constant fitting.

Reproducibility contract: trial j of a plan always draws from stream
``(seed, j)``, results are assembled into arrays indexed by trial before any
floating-point reduction, and bootstrap resample r uses stream
``(seed, BOOTSTRAP_STREAM_BASE + r)``.  Worker threads only decide who fills
which slot, so a plan's outputs are bitwise identical for any setting of
``SUBWEIBULL_THREADS``.

Draws are nested prefixes: the first n draws of stream ``(seed, j)`` do not
depend on how many draws follow.  So the sample of trial j at dimension n is
the first n coordinates of its sample at any larger dimension, and a growth
suite draws each trial once, at the largest n of its grid, with every report
bitwise equal to the one its plan gives alone.

The index vector of bootstrap resample r depends only on (seed, r, trials).
Every plan of a growth suite shares those, so the suite draws each vector
once and every dimension resamples its deviations with it.  The vectors of
a chunk of resamples come from one re-keyed generator
(``streams.keyed_generators``), with the bits of a fresh generator per
stream, and each chunk's empirical norms come from one
``psi_norm_empirical`` call, which certifies the bisections of all its
resamples with one batched evaluation.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .concentration import (
    VectorModel,
    lp_norm,
    prop13_bound,
    thm14_bound,
    thm14_tail_bound,
)
from .dist import BLOCK_DRAWS, DistributionSpec, moment_abs, sample_streams
from .errors import (
    NoClosedFormError,
    NoFeasibleConstantError,
    ParameterError,
)
from .orlicz import psi_norm_analytic, psi_norm_empirical, psi_norm_quadrature
from .streams import keyed_generators
from .tau import bernstein_bound

BOOTSTRAP_STREAM_BASE = 1 << 40
BOOTSTRAP_RESAMPLES = 200
_NO_INTERVAL = (math.nan, math.nan)  # boot_lo, boot_hi when the bootstrap is off
# sample values one batch of empirical norms holds (resamples x trials).  On 2
# cores a 20k-trial n=16 exp tail report took 158, 110 and 96 ms at 16 384,
# 65 536 and 262 144, and a 1k-trial growth sweep 0.34, 0.31 and 0.30 s; 262 144
# raised the tail report's peak RSS from 48 MB to 65 MB
BATCH_VALUES = 65_536

MIN_TRIALS_NORM = 1_000
MIN_TRIALS_TAIL = 10_000
TAIL_POINTS = 12  # rows of the default tail grid

# candidate universal constants, ascending
CONSTANT_GRID = tuple(np.geomspace(0.5, 32.0, 40).tolist())

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
    # the CPUs this process may run on, not the host's
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
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
    fill: Callable[[int, int], np.ndarray | list[float]],
    count: int,
    block: int,
    row_shape: tuple[int, ...] = (),
) -> np.ndarray:
    """Assemble fill(j0, j1) for consecutive index blocks of size ``block`` into one array.

    The result has shape ``(count, *row_shape)``; fill(j0, j1) gives its rows
    j0..j1-1.  Each block writes only its own slots, so the result depends on
    ``fill`` and the block boundaries, never on which thread ran a block.  A
    caller that derives ``block`` from the worker count needs a ``fill`` whose
    value at j does not depend on the boundaries.
    """
    out = np.empty((count, *row_shape), dtype=float)
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


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce one experiment, seeds included."""

    model: VectorModel
    trials: int
    seed: int
    t_grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.trials, (int, np.integer)) or self.trials < MIN_TRIALS_NORM:
            raise ParameterError(
                f"trials must be an integer >= {MIN_TRIALS_NORM}, got {self.trials}"
            )
        grid = tuple(float(t) for t in self.t_grid)
        if any(not t >= 0.0 for t in grid) or any(
            b <= a for a, b in zip(grid, grid[1:])
        ):
            raise ParameterError("t_grid must be nonnegative and strictly increasing")
        object.__setattr__(self, "t_grid", grid)

    def effective_t_grid(self) -> tuple[float, ...]:
        return self.t_grid if self.t_grid else default_t_grid(self.model)


def center_value(model: VectorModel) -> float:
    """L^p center (n * E|X_1|**p)**(1/p) from exact coordinate moments."""
    return (model.n * moment_abs(model.coordinate_spec, model.p)) ** (1.0 / model.p)


def default_t_grid(model: VectorModel) -> tuple[float, ...]:
    """Grid spanning six CLT standard deviations of the norm deviation."""
    p, n = model.p, model.n
    mp = moment_abs(model.coordinate_spec, p)
    var_p = moment_abs(model.coordinate_spec, 2.0 * p) - mp * mp
    center = center_value(model)
    sigma = math.sqrt(max(n * var_p, 1e-300)) / (p * center ** (p - 1.0))
    return tuple(np.linspace(0.0, 6.0 * sigma, TAIL_POINTS))


def deviations(plans: ExperimentPlan | Sequence[ExperimentPlan]) -> np.ndarray:
    """| |X|_p - center | per trial; trial j draws from stream (seed, j).

    One plan gives shape (trials,).  A sequence of plans that differ only in
    n gives shape (trials, len(plans)), column i for plans[i]: trial j is
    drawn once, at the largest n, and each column reduces its prefix, so every
    column equals the one its plan gives alone, bit for bit.
    """
    one = isinstance(plans, ExperimentPlan)
    plans = [plans] if one else list(plans)
    first = plans[0]
    spec, p = first.model.coordinate_spec, first.model.p
    if any(
        (q.model.coordinate_spec, q.model.p, q.trials, q.seed)
        != (spec, p, first.trials, first.seed)
        for q in plans
    ):
        raise ParameterError("deviations needs plans that differ only in n")
    dims = [(q.model.n, center_value(q.model)) for q in plans]
    top = max(n for n, _ in dims)
    # blocks of about BLOCK_DRAWS draws, the same number for every worker:
    # each outlasts a handoff between workers and stays in cache
    workers = worker_count()
    parts = workers * -(-first.trials * top // (workers * BLOCK_DRAWS))
    block = -(-first.trials // parts)

    def fill(j0: int, j1: int) -> np.ndarray:
        rows = sample_streams(spec, first.seed, j0, j1, top)
        return np.stack([np.abs(lp_norm(rows[:, :n], p) - c) for n, c in dims], axis=1)

    devs = _indexed_blocks(fill, first.trials, block, (len(dims),))
    return devs[:, 0] if one else devs


def bootstrap_interval(
    devs: np.ndarray, p: float, seed: int
) -> tuple[float, float] | list[tuple[float, float]]:
    """95% percentile bootstrap interval for the empirical deviation norm.

    ``devs`` of shape (trials,) gives one (lo, hi).  Shape (dims, trials)
    gives a list with one (lo, hi) per row, each equal to the 1-D call on
    that row: resample r's indices depend only on (seed, r, trials), so they
    are drawn once and every row is resampled with them.
    """
    rows = np.atleast_2d(devs)
    trials = rows.shape[1]
    # resamples normed together: about BATCH_VALUES sample values at a time
    chunk = max(1, BATCH_VALUES // trials)

    def fill(r0: int, r1: int) -> np.ndarray:
        norms = np.empty((r1 - r0, len(rows)))
        for c0 in range(r0, r1, chunk):
            c1 = min(c0 + chunk, r1)
            # resample r draws from stream (seed, BOOTSTRAP_STREAM_BASE + r)
            streams = keyed_generators(
                seed, BOOTSTRAP_STREAM_BASE + c0, BOOTSTRAP_STREAM_BASE + c1
            )
            idx = np.stack([gen.integers(0, trials, trials) for gen in streams])
            for d, row in enumerate(rows):
                found = psi_norm_empirical(row[idx], p, tol=1e-4)
                norms[c0 - r0:c1 - r0, d] = [result.value for result in found]
        return norms

    # resample r keys its own stream, so one block per worker is safe
    norms = _indexed_blocks(
        fill, BOOTSTRAP_RESAMPLES, -(-BOOTSTRAP_RESAMPLES // worker_count()), (len(rows),)
    )
    intervals = [
        (float(np.quantile(column, 0.025)), float(np.quantile(column, 0.975)))
        for column in norms.T
    ]
    return intervals if np.ndim(devs) == 2 else intervals[0]


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


@functools.cache
def coordinate_norm(spec: DistributionSpec, p: float) -> float:
    """Order-p norm of one coordinate: closed form, else quadrature.

    Cached: it depends only on (spec, p), so the reports of a growth suite,
    one per dimension, share one computation.
    """
    try:
        return psi_norm_analytic(spec, p).value
    except NoClosedFormError:
        return psi_norm_quadrature(spec, p).value


class ModelBounds(NamedTuple):
    """A model's bounds as functions of the universal constant C."""

    prop13: Callable[[float], float]
    thm14: Callable[[float], float] | None  # None unless p >= 2
    tail: Callable[[float, float], float]  # tail(t, C)


def model_bounds(model: VectorModel) -> ModelBounds:
    """The model's deviation and tail bounds, with each coordinate norm computed once.

    The tail bound is the dimension-free one when p >= 2, else the Bernstein
    bound for averages of the terms |X_i|**p, whose order-1 norm is K_p**p
    (the power identity).  At p = 1 it is taken at t / n.  For 1 < p < 2,
    with c the L^p center, a deviation D >= t forces |S - c**p| >= s(t) =
    c**p - (c - t)_+**p for the sum S of the terms, as x**p is convex, so
    the bound is taken at s(t) / n.
    """
    spec, n, p = model.coordinate_spec, model.n, model.p
    k_p = coordinate_norm(spec, p)
    prop13 = lambda C: prop13_bound(n, p, k_p, C)
    if p >= 2.0:
        l_p = moment_abs(spec, p) ** (1.0 / p)
        return ModelBounds(
            prop13,
            lambda C: thm14_bound(p, k_p, l_p, C),
            lambda t, C: thm14_tail_bound(p, k_p, l_p, t, C),
        )
    if p == 1.0:
        # the plan's t grid lives on the sum scale; the bound is for averages
        return ModelBounds(prop13, None, lambda t, C: bernstein_bound(n, t / n, k_p, C).value)
    c = center_value(model)
    s = lambda t: c**p - max(c - t, 0.0) ** p
    return ModelBounds(prop13, None, lambda t, C: bernstein_bound(n, s(t) / n, k_p**p, C).value)


def calibrate_constant(dominates: Callable[[float], bool], floor: float = 0.0) -> float:
    """Smallest ``CONSTANT_GRID`` point C >= ``floor`` with ``dominates(C)``.

    ``floor`` keeps the scan inside a bound's own domain.  Raises
    ``NoFeasibleConstantError`` when no such point dominates, which flags
    either a bug or an undersized grid.
    """
    for C in CONSTANT_GRID:
        if C >= floor and dominates(C):
            return C
    raise NoFeasibleConstantError(
        f"no constant in [{max(floor, CONSTANT_GRID[0]):g}, {CONSTANT_GRID[-1]:g}] "
        "dominates the evidence"
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
    devs = deviations(plan)
    interval = bootstrap_interval(devs, plan.model.p, plan.seed) if bootstrap else _NO_INTERVAL
    return _report(plan, devs, interval)


def _report(
    plan: ExperimentPlan, devs: np.ndarray, interval: tuple[float, float]
) -> ConcentrationReport:
    """The report of ``plan`` from its per-trial deviations and bootstrap interval."""
    model = plan.model
    bounds = model_bounds(model)
    emp = psi_norm_empirical(devs, model.p).value
    boot_lo, boot_hi = interval

    p13_c = calibrate_constant(lambda C: bounds.prop13(C) >= emp)
    if bounds.thm14 is None:
        t14_c = t14_val = math.nan
    else:
        t14_c = calibrate_constant(lambda C: bounds.thm14(C) >= emp)
        t14_val = bounds.thm14(t14_c)

    rows: tuple[TailRow, ...] = ()
    if plan.trials >= MIN_TRIALS_TAIL:
        freq_rows = tail_exceedance(plan, devs=devs)
        if bounds.thm14 is None:
            # the Bernstein bound needs C1 >= 1
            tail_c = calibrate_constant(
                lambda C: all(bounds.tail(t, C) >= freq - 3.0 * se for t, freq, se in freq_rows),
                floor=1.0,
            )
        else:
            tail_c = t14_c
        rows = tuple(
            TailRow(t=t, freq=freq, se=se, bound=bounds.tail(t, tail_c), C=tail_c)
            for t, freq, se in freq_rows
        )

    return ConcentrationReport(
        family=model.coordinate_spec.family,
        p=model.p,
        n=model.n,
        trials=plan.trials,
        seed=plan.seed,
        center=center_value(model),
        emp_dev_norm=emp,
        boot_lo=boot_lo,
        boot_hi=boot_hi,
        prop13_C=p13_c,
        prop13_bound=bounds.prop13(p13_c),
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
    """One report per dimension in ``n_grid``, all from the same seed.

    Each trial is drawn once, at the largest n, and each bootstrap index
    vector once for the whole grid; every report equals ``run_report`` of its
    own plan, bit for bit.
    """
    plans = [ExperimentPlan(VectorModel(spec, int(n), p), trials, seed) for n in n_grid]
    if not plans:
        return []
    rows = np.ascontiguousarray(deviations(plans).T)
    intervals = bootstrap_interval(rows, p, seed) if bootstrap else [_NO_INTERVAL] * len(plans)
    return [_report(plan, devs, interval) for plan, devs, interval in zip(plans, rows, intervals)]


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


_FLOAT_SPEC = ".17g"  # 17 significant digits read back as the same double


def format_cell(value) -> str:
    """Floats at 17 significant digits (``nan``, ``inf`` when not finite), else str."""
    return format(value, _FLOAT_SPEC) if isinstance(value, float) else str(value)


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
