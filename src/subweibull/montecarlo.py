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
stream, drawn as int32, which gives the int64 draw's values.  The interval's
quantiles read only the 6 smallest and the 6 largest of the 200 resample
norms.  So each resample is first tested against two levels around its
row's norm, by one gather of a table of Phi's terms at each, and only the
resamples the tests cannot place between the levels are normed by
``psi_norm_empirical``, one call per chunk (see ``bootstrap_interval``).
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
from .orlicz import (
    _EMPIRICAL_K_MAX,
    _exp_terms,
    psi_norm_analytic,
    psi_norm_empirical,
    psi_norm_quadrature,
)
from .streams import keyed_generators
from .tau import bernstein_bound

BOOTSTRAP_STREAM_BASE = 1 << 40
BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_TOL = 1e-4  # bracket width of a resample's norm
_QUANTILES = (0.025, 0.975)  # the levels of the percentile interval
# np.quantile's linear rule reads sorted positions floor(q (R - 1)) and the
# next, so the interval needs the 6 smallest and the 6 largest of R = 200 norms
_ORDER_STATISTICS = max(
    math.floor(_QUANTILES[0] * (BOOTSTRAP_RESAMPLES - 1)) + 2,
    BOOTSTRAP_RESAMPLES - math.floor(_QUANTILES[1] * (BOOTSTRAP_RESAMPLES - 1)),
)
# delta-method sigmas below and above a row's norm at which bootstrap levels
# sit.  The resample law is skewed left: over 24 rows the 6th largest norm
# lay 1.27 to 1.97 sigma above it, the 6th smallest 1.78 to 4.77 below
_LEVEL_SPREADS = (1.3, 0.9)
_NO_INTERVAL = (math.nan, math.nan)  # boot_lo, boot_hi when the bootstrap is off
# sample values one chunk of bootstrap resamples holds (resamples x trials).
# On 2 vCPUs a 20k-trial n=16 exp tail report took 73-81, 51-59 and 57-62 ms
# (median of 15, two rounds) at 16 384, 65 536 and 262 144, and both 1k-trial
# growth sweeps 200, 177 and 168 ms (median of 7); 262 144 raised the tail
# report's peak RSS from 45 MB to 52 MB
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

    The interval is ``np.quantile`` of the resamples' ``psi_norm_empirical``
    values at tol 1e-4, bit for bit, with only the norms its quantiles read
    computed exactly.  Each row gets levels L < U around its own norm (see
    ``_levels``).  Phi of a resample at a level is the mean of one gather of
    the level's terms, the bits ``psi_norm_empirical`` would get.  A
    resample with Phi(L) > 2 and Phi(U) <= 2 has its norm in (L, U + tol],
    by the monotonicity the norm's certificate assumes (its final bracket has
    Phi(lo) > 2 and is at most tol wide), and the row's norm stands in for
    it; every other resample is normed.  With ``_ORDER_STATISTICS`` normed
    values at or below L and as many above U + tol, the sorted positions the
    quantiles read hold exact values.  A row short on a side has that side's
    level moved to +inf (low) or 0 (high), which empties its band, and a
    second pass norms its stand-ins.
    """
    rows = np.abs(np.atleast_2d(devs))  # the values psi_norm_empirical takes
    trials = rows.shape[1]
    # resamples gathered together: about BATCH_VALUES sample values at a time
    chunk = max(1, BATCH_VALUES // trials)
    bases = [result.value for result in psi_norm_empirical(rows, p, tol=_BOOTSTRAP_TOL)]
    levels = [_levels(row, base, p) for row, base in zip(rows, bases)]
    norms = np.full((BOOTSTRAP_RESAMPLES, len(rows)), math.nan)  # nan: a stand-in
    todo = list(range(len(rows)))
    while todo:
        # each level's terms, once per row; none where the band is empty, or
        # where a stand-in's norm could come near the ceiling, past which the
        # norm raises
        tables = {
            d: [_exp_terms(rows[d].copy(), level, p) for level in levels[d]]
            for d in todo
            if 0.0 < levels[d][0] < levels[d][1] < 0.25 * _EMPIRICAL_K_MAX
        }

        def fill(r0: int, r1: int) -> np.ndarray:
            block = norms[r0:r1, todo]
            for c0 in range(r0, r1, chunk):
                c1 = min(c0 + chunk, r1)
                # resample r draws from stream (seed, BOOTSTRAP_STREAM_BASE + r)
                streams = keyed_generators(
                    seed, BOOTSTRAP_STREAM_BASE + c0, BOOTSTRAP_STREAM_BASE + c1
                )
                idx = np.stack([gen.integers(0, trials, trials, dtype=np.int32) for gen in streams])
                for j, d in enumerate(todo):
                    exact = np.isnan(block[c0 - r0:c1 - r0, j])
                    if d in tables:
                        # Phi of each resample at both levels, as psi_norm_empirical takes it
                        with np.errstate(over="ignore"):
                            low, high = (np.add.reduce(np.take(table, idx), axis=1) / trials
                                         for table in tables[d])
                        exact &= ~((low > 2.0) & (high <= 2.0))
                    picked = np.flatnonzero(exact)
                    if len(picked):
                        found = psi_norm_empirical(
                            np.take(rows[d], idx[picked]), p, tol=_BOOTSTRAP_TOL
                        )
                        block[c0 - r0 + picked, j] = [result.value for result in found]
            return block

        # resample r keys its own stream, so one block per worker is safe
        norms[:, todo] = _indexed_blocks(
            fill, BOOTSTRAP_RESAMPLES, -(-BOOTSTRAP_RESAMPLES // worker_count()), (len(todo),)
        )
        short = []
        for d in tables:
            low, high = levels[d]
            known = norms[:, d][~np.isnan(norms[:, d])]
            below = np.count_nonzero(known <= low) >= _ORDER_STATISTICS
            above = np.count_nonzero(known > high + _BOOTSTRAP_TOL) >= _ORDER_STATISTICS
            if not (below and above):
                levels[d] = (low if below else math.inf, high if above else 0.0)
                short.append(d)
        todo = short
    # a stand-in lies in (L, U + tol], as does the row's norm (L <= base <= U)
    filled = np.where(np.isnan(norms), bases, norms)
    intervals = [
        (float(np.quantile(column, _QUANTILES[0])), float(np.quantile(column, _QUANTILES[1])))
        for column in filled.T
    ]
    return intervals if np.ndim(devs) == 2 else intervals[0]


def _levels(x: np.ndarray, base: float, p: float) -> tuple[float, float]:
    """(L, U) around ``base``, the norm of the sample ``x`` >= 0, for ``bootstrap_interval``.

    The spread of a resample norm is taken by the delta method: with
    u = (x/base)**p and e = exp(u), Phi's mean moves by sd(e)/sqrt(T) and its
    slope in K is -p/base * mean(u e), so sigma = sd(e) / (sqrt(T) p/base
    mean(u e)).  The levels sit ``_LEVEL_SPREADS`` sigmas below and above
    base.  A zero norm gives the empty band (0, 0).
    """
    if base == 0.0:
        return 0.0, 0.0
    u = x / base
    if p != 1.0:  # x**1.0 is x
        u **= p
    # mean exp(u) <= 2 at the norm, so no term overflows
    e = np.exp(u)
    sigma = float(np.std(e)) / (math.sqrt(len(x)) * p / base * float(np.mean(u * e)))
    below, above = _LEVEL_SPREADS
    return base - below * sigma, base + above * sigma


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


def bound_dominates(bound: float, freq: float, se: float) -> bool:
    """Whether a tail bound dominates a row's frequency: within 3 SE of it or above."""
    return bound >= freq - 3.0 * se


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
                lambda C: all(bound_dominates(bounds.tail(t, C), f, se) for t, f, se in freq_rows),
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
