import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from subweibull import (
    ConcentrationReport,
    DistributionSpec,
    ExperimentPlan,
    NoFeasibleConstantError,
    ParameterError,
    RandomStream,
    VectorModel,
    bernstein_bound,
    calibrate_constant,
    center_value,
    lp_norm,
    prop13_bound,
    psi_norm_empirical,
    run_report,
    sample,
    tail_exceedance,
)
from subweibull import montecarlo
from subweibull.dist import moment_abs_quadrature
from subweibull.montecarlo import (
    BOOTSTRAP_RESAMPLES,
    BOOTSTRAP_STREAM_BASE,
    CONSTANT_GRID,
    ENV_THREADS,
    bootstrap_interval,
    deviations,
    growth_suite,
    loglog_slope,
    model_bounds,
    reports_to_csv,
    tails_to_csv,
)

EXP = DistributionSpec.exponential()


@pytest.fixture
def threads(monkeypatch):
    def set_workers(n):
        monkeypatch.setenv(ENV_THREADS, str(n))

    return set_workers


# ---------------------------------------------------------------------------
# plans and centers


def test_plan_validation():
    model = VectorModel(EXP, 8, 1.0)
    with pytest.raises(ParameterError):
        ExperimentPlan(model, 10, 0)  # too few trials
    with pytest.raises(ParameterError):
        ExperimentPlan(model, 2000, 0, t_grid=(1.0, 0.5))
    with pytest.raises(ParameterError):
        ExperimentPlan(model, 2000, 0, t_grid=(-1.0, 0.5))


def test_degenerate_coordinate_rejected_at_construction():
    with pytest.raises(ParameterError):
        VectorModel(DistributionSpec.weibull(1.0, 0.0), 4, 1.0)


def test_center_pnormal_is_nth_root():
    for p, n in ((1.0, 10), (2.0, 64), (3.0, 17)):
        model = VectorModel(DistributionSpec.pnormal(p), n, p)
        assert center_value(model) == pytest.approx(n ** (1.0 / p), rel=1e-14)


def test_center_exp_linear():
    assert center_value(VectorModel(EXP, 25, 1.0)) == pytest.approx(25.0, rel=1e-14)


def test_center_weibull_scale_law():
    # theta * n**(1/p), cross-checked against the quadrature moment
    spec = DistributionSpec.weibull(2.0, 1.5)
    model = VectorModel(spec, 9, 2.0)
    assert center_value(model) == pytest.approx(1.5 * 3.0, rel=1e-12)
    quad_center = (9 * moment_abs_quadrature(spec, 2.0)) ** 0.5
    assert center_value(model) == pytest.approx(quad_center, rel=1e-9)


# ---------------------------------------------------------------------------
# deviations and reproducibility


def test_deviations_match_direct_sampling():
    plan = ExperimentPlan(VectorModel(DistributionSpec.pnormal(2.0), 32, 2.0), 1000, 5)
    devs = deviations(plan)
    center = center_value(plan.model)
    for j in (0, 17, 999):
        x = sample(plan.model.coordinate_spec, RandomStream(5, j), 32)
        assert devs[j] == abs(lp_norm(x, 2.0) - center)


def test_reproducible_across_worker_counts(threads):
    plan = ExperimentPlan(VectorModel(DistributionSpec.pnormal(2.0), 16, 2.0), 2000, 99)
    outputs = []
    for workers in (1, 3, 8):
        threads(workers)
        outputs.append(run_report(plan))
    assert outputs[0] == outputs[1] == outputs[2]
    assert reports_to_csv([outputs[0]]) == reports_to_csv([outputs[2]])


def _digests(reports):
    return {
        "report_csv_sha256": hashlib.sha256(reports_to_csv(reports).encode()).hexdigest(),
        "tails_csv_sha256": hashlib.sha256(tails_to_csv(reports).encode()).hexdigest(),
    }


def test_csv_bits_match_reference_digests():
    # the benchmark's recorded outputs at the acceptance seed; read, never written
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference_digests.json"
    reference = json.loads(path.read_text())
    seed = 20_240_817
    grid = (16, 64, 256, 1024, 4096)
    growth = growth_suite(DistributionSpec.pnormal(2.0), 2.0, grid, 1_000, seed) + growth_suite(
        EXP, 1.0, grid, 1_000, seed
    )
    assert _digests(growth) == reference["growth"][str(seed)]["digest"]
    tail = run_report(ExperimentPlan(VectorModel(EXP, 16, 1.0), 20_000, seed))
    assert _digests([tail]) == reference["tail_small_n"][str(seed)]["digest"]


def _benchmark_outputs(seed):
    """The growth and tail_small_n CSVs at ``seed``, and a hash of each one's raw deviations."""
    import hashlib

    from subweibull import DistributionSpec, ExperimentPlan, VectorModel
    from subweibull import montecarlo as mc

    grid = (16, 64, 256, 1024, 4096)
    growth, raw = [], {}
    for spec, p in ((DistributionSpec.pnormal(2.0), 2.0), (DistributionSpec.exponential(), 1.0)):
        growth += mc.growth_suite(spec, p, grid, 1_000, seed)
        plans = [ExperimentPlan(VectorModel(spec, n, p), 1_000, seed) for n in grid]
        raw[f"growth {spec.family}"] = mc.deviations(plans)
    tail = ExperimentPlan(VectorModel(DistributionSpec.exponential(), 16, 1.0), 20_000, seed)
    raw["tail_small_n"] = mc.deviations(tail)
    tails = [mc.run_report(tail)]
    return {
        "csv": [mc.reports_to_csv(growth), mc.reports_to_csv(tails), mc.tails_to_csv(tails)],
        "deviations": {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in raw.items()},
    }


def test_csv_bits_do_not_depend_on_simd_dispatch(without_avx512):
    # every reported number comes from comparisons and counts of the draws, so
    # the CSVs survive numpy's AVX-512 paths changing the bits of log1p and exp
    seed = 20_240_817
    here, there = _benchmark_outputs(seed), without_avx512(_benchmark_outputs, seed)
    assert there["deviations"] != here["deviations"], "the draws did not change: nothing tested"
    assert there["csv"] == here["csv"]


SUITE_FAMILIES = pytest.mark.parametrize(
    "spec, p",
    [
        (DistributionSpec.pnormal(3.0), 3.0),
        (DistributionSpec.weibull(1.5, 2.0), 1.0),
        (DistributionSpec.halfgauss_pow(3.0, 1.5), 2.0),
    ],
    ids=["pnormal", "weibull", "halfgauss_pow"],
)


def _assert_suite_equals_per_n_reports(spec, p, trials, bootstrap):
    # one draw per trial at the largest n; an unsorted grid with a repeated n
    grid = (64, 16, 64, 200)
    suite = growth_suite(spec, p, grid, trials, 31, bootstrap=bootstrap)
    alone = [
        run_report(ExperimentPlan(VectorModel(spec, n, p), trials, 31), bootstrap=bootstrap)
        for n in grid
    ]
    assert suite == alone
    assert reports_to_csv(suite) == reports_to_csv(alone)
    assert tails_to_csv(suite) == tails_to_csv(alone)


@SUITE_FAMILIES
@pytest.mark.parametrize("workers", [1, 3])
def test_growth_suite_equals_per_n_reports(threads, spec, p, workers):
    threads(workers)
    _assert_suite_equals_per_n_reports(spec, p, 10_000, bootstrap=False)


@SUITE_FAMILIES
@pytest.mark.parametrize("workers", [1, 3])
def test_growth_suite_bootstrap_equals_per_n_reports(threads, spec, p, workers):
    # one set of resample indices for the whole grid
    threads(workers)
    _assert_suite_equals_per_n_reports(spec, p, 1_000, bootstrap=True)


@pytest.mark.parametrize("workers", [1, 3])
def test_bootstrap_rows_equal_one_dimensional_calls(threads, workers):
    # at 3 workers, blocks of 67 resamples split into chunks of 65 and 2
    threads(workers)
    plans = [ExperimentPlan(VectorModel(EXP, n, 1.0), 1_000, 8) for n in (16, 64, 256)]
    rows = np.ascontiguousarray(deviations(plans).T)
    assert bootstrap_interval(rows, 1.0, 8) == [bootstrap_interval(row, 1.0, 8) for row in rows]


def test_bootstrap_is_the_percentile_interval_of_independent_resamples():
    devs = deviations(ExperimentPlan(VectorModel(EXP, 16, 1.0), 1_000, 8))
    norms = [
        psi_norm_empirical(
            devs[RandomStream(8, BOOTSTRAP_STREAM_BASE + r).generator().integers(0, 1_000, 1_000)],
            1.0,
            tol=1e-4,
        ).value
        for r in range(BOOTSTRAP_RESAMPLES)
    ]
    expected = (np.quantile(norms, 0.025), np.quantile(norms, 0.975))
    assert bootstrap_interval(devs, 1.0, 8) == expected


def test_growth_suite_draws_each_bootstrap_index_vector_once(monkeypatch):
    calls = []
    keyed = montecarlo.keyed_generators

    def counted(seed, start, stop):
        calls.extend(range(start, stop))
        return keyed(seed, start, stop)

    monkeypatch.setattr(montecarlo, "keyed_generators", counted)
    growth_suite(EXP, 1.0, (16, 32, 64, 128), 1_000, 0)
    assert sorted(calls) == [BOOTSTRAP_STREAM_BASE + r for r in range(BOOTSTRAP_RESAMPLES)]


@pytest.mark.parametrize("trials", [1_000, 1_001, 20_000, 65_537, 100_000, 2**31 - 1])
def test_int32_index_vectors_are_the_int64_draws(trials):
    # both draw numpy's buffered 32-bit Lemire integers for a range below
    # 2**32; the vector is capped at 100 000 values, which the range alone decides
    size = min(trials, 100_000)
    wide = RandomStream(5, BOOTSTRAP_STREAM_BASE).generator().integers(0, trials, size)
    narrow = RandomStream(5, BOOTSTRAP_STREAM_BASE).generator().integers(
        0, trials, size, dtype=np.int32
    )
    assert narrow.dtype == np.int32
    assert np.array_equal(narrow, wide)


def _per_resample_intervals(rows, p, seed):
    """Each row's interval by its definition: all 200 resamples normed, int64 indices."""
    rows = np.atleast_2d(rows)
    trials = rows.shape[1]
    idx = np.stack([
        RandomStream(seed, BOOTSTRAP_STREAM_BASE + r).generator().integers(0, trials, trials)
        for r in range(BOOTSTRAP_RESAMPLES)
    ])
    intervals = []
    for row in rows:
        norms = [
            result.value
            for r0 in range(0, BOOTSTRAP_RESAMPLES, 20)
            for result in psi_norm_empirical(row[idx[r0:r0 + 20]], p, tol=1e-4)
        ]
        intervals.append((np.quantile(norms, 0.025), np.quantile(norms, 0.975)))
    return intervals


@pytest.fixture
def bootstrap_passes(monkeypatch):
    """The list of every resample's bootstrap stream, once per time it is drawn."""
    drawn = []
    keyed = montecarlo.keyed_generators

    def counted(seed, start, stop):
        drawn.extend(range(start, stop))
        return keyed(seed, start, stop)

    monkeypatch.setattr(montecarlo, "keyed_generators", counted)
    return drawn


BOOTSTRAP_FAMILIES = pytest.mark.parametrize(
    "spec, p",
    [(EXP, 1.0), (DistributionSpec.pnormal(2.0), 2.0), (DistributionSpec.pnormal(3.0), 3.0)],
    ids=["exp", "pnormal2", "pnormal3"],
)


@BOOTSTRAP_FAMILIES
@pytest.mark.parametrize(
    "trials, grid", [(1_000, (16, 64, 256, 1024, 4096)), (20_000, (16, 256))], ids=["1k", "20k"]
)
@pytest.mark.parametrize("seed", [20_240_817, 19_090_677, 8, 31])
def test_bootstrap_is_the_per_resample_interval(bootstrap_passes, spec, p, trials, grid, seed):
    # the stand-ins never reach a quantile: every call is certified in one pass
    plans = [ExperimentPlan(VectorModel(spec, n, p), trials, seed) for n in grid]
    rows = np.ascontiguousarray(deviations(plans).T)
    assert bootstrap_interval(rows, p, seed) == _per_resample_intervals(rows, p, seed)
    assert len(bootstrap_passes) == BOOTSTRAP_RESAMPLES


@pytest.mark.parametrize("side", ["low", "high"])
def test_bootstrap_short_side_falls_back_to_exact_norms(monkeypatch, bootstrap_passes, side):
    # a level that certifies none of the 6 norms its side needs: a second pass
    # norms the stand-ins, and the interval is still the definition's
    levels = montecarlo._levels

    def off(x, base, p):
        low, high = levels(x, base, p)
        return (1e-3 * base, high) if side == "low" else (low, 10.0 * base)

    monkeypatch.setattr(montecarlo, "_levels", off)
    devs = deviations(ExperimentPlan(VectorModel(EXP, 16, 1.0), 1_000, 8))
    assert bootstrap_interval(devs, 1.0, 8) == _per_resample_intervals(devs, 1.0, 8)[0]
    assert len(bootstrap_passes) == 2 * BOOTSTRAP_RESAMPLES


def _degenerate_rows():
    spike = np.zeros(1_000)
    spike[417] = 3.0
    # a norm of about 3e17, whose stand-ins could come near the 1e18 ceiling
    near_ceiling = 5e16 * deviations(ExperimentPlan(VectorModel(EXP, 16, 1.0), 1_000, 8))
    return {"zeros": np.zeros(1_000), "constant": np.full(1_000, 0.7), "spike": spike,
            "near the ceiling": near_ceiling}


@pytest.mark.parametrize("name", ["zeros", "constant", "spike", "near the ceiling"])
def test_bootstrap_of_degenerate_rows_is_the_per_resample_interval(monkeypatch, name):
    normed = []
    norm = montecarlo.psi_norm_empirical

    def counted(samples, p, tol):
        normed.append(len(np.atleast_2d(samples)))
        return norm(samples, p, tol)

    monkeypatch.setattr(montecarlo, "psi_norm_empirical", counted)
    row = _degenerate_rows()[name]
    assert bootstrap_interval(row, 1.0, 8) == _per_resample_intervals(row, 1.0, 8)[0]
    # a zero norm, a constant row's zero spread, or a level past a quarter of
    # the ceiling leaves no band: every resample is normed, in one pass; the
    # spike's band holds stand-ins
    resamples = sum(normed) - 1
    assert resamples == BOOTSTRAP_RESAMPLES if name != "spike" else resamples < BOOTSTRAP_RESAMPLES


def test_growth_suite_computes_each_coordinate_norm_once(monkeypatch):
    computed = []
    quadrature = montecarlo.psi_norm_quadrature

    def counted(spec, p):
        computed.append((spec, p))
        return quadrature(spec, p)

    monkeypatch.setattr(montecarlo, "psi_norm_quadrature", counted)
    montecarlo.coordinate_norm.cache_clear()
    spec = DistributionSpec.weibull(1.5, 2.0)  # no closed form at p = 1
    reports = growth_suite(spec, 1.0, (16, 32, 64, 128, 256), 1_000, 0, bootstrap=False)
    assert len(reports) == 5
    assert computed == [(spec, 1.0)]


def test_worker_count_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv(ENV_THREADS, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert montecarlo.worker_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert montecarlo.worker_count() == 1


def test_growth_suite_of_an_empty_grid_is_empty():
    assert growth_suite(EXP, 1.0, [], 1_000, 0) == []


def test_growth_suite_rejects_a_zero_dimension_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before validating the grid")

    monkeypatch.setattr(montecarlo, "sample_streams", no_draws)
    with pytest.raises(ParameterError):
        growth_suite(EXP, 1.0, (16, 0, 64), 1_000, 0)


def test_deviations_rejects_plans_that_differ_beyond_n():
    plans = [ExperimentPlan(VectorModel(EXP, 16, 1.0), 1_000, 0),
             ExperimentPlan(VectorModel(EXP, 32, 1.0), 1_000, 1)]
    with pytest.raises(ParameterError):
        deviations(plans)


def test_deviation_norm_band_gaussian_case():
    plan = ExperimentPlan(VectorModel(DistributionSpec.pnormal(2.0), 256, 2.0), 20_000, 11)
    value = psi_norm_empirical(deviations(plan), 2.0).value
    assert 0.5 <= value <= 2.5


def test_single_coordinate_centering_ceiling():
    # deviation of a single absolute gaussian from its L2 norm
    plan = ExperimentPlan(VectorModel(DistributionSpec.pnormal(2.0), 1, 2.0), 20_000, 12)
    value = psi_norm_empirical(deviations(plan), 2.0).value
    assert value <= 2.0 * math.sqrt(8.0 / 3.0) + 1e-6


# ---------------------------------------------------------------------------
# tails


def test_tail_monotone_and_boundary_values():
    grid = tuple(np.linspace(0.0, 400.0, 14))
    plan = ExperimentPlan(VectorModel(EXP, 64, 1.0), 10_000, 3, t_grid=grid)
    rows = tail_exceedance(plan)
    freqs = [f for _, f, _ in rows]
    assert freqs[0] == 1.0  # t = 0 always exceeded
    assert freqs[-1] == 0.0  # beyond the largest observed deviation
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))
    assert all(se > 0.0 for _, _, se in rows)


def test_tail_requires_enough_trials():
    plan = ExperimentPlan(VectorModel(EXP, 8, 1.0), 2_000, 3)
    with pytest.raises(ParameterError):
        tail_exceedance(plan)


def test_exp_average_tail_below_bernstein():
    # frequency of |mean - 1| >= 0.5 for 100 exponentials, versus the bound
    n, t_avg = 100, 0.5
    plan = ExperimentPlan(
        VectorModel(EXP, n, 1.0), 10_000, 21, t_grid=(0.0, n * t_avg)
    )
    rows = tail_exceedance(plan)
    _, freq, se = rows[1]
    bound = bernstein_bound(n, t_avg, 2.0, 2.0).value
    assert freq <= bound + 3.0 * se


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_trivial_huge_constant():
    assert calibrate_constant(lambda C: C >= CONSTANT_GRID[-1]) == CONSTANT_GRID[-1]


def test_calibrate_infeasible_grid():
    with pytest.raises(NoFeasibleConstantError):
        calibrate_constant(lambda C: False)


def test_calibrate_propagates_parameter_error():
    def dominates(C):
        raise ParameterError("bad input")

    with pytest.raises(ParameterError):
        calibrate_constant(dominates)


def test_calibrate_returns_smallest_feasible():
    assert CONSTANT_GRID == tuple(np.geomspace(0.5, 32.0, 40))
    plan = ExperimentPlan(VectorModel(EXP, 64, 1.0), 2_000, 7)
    emp = psi_norm_empirical(deviations(plan), 1.0).value
    c = calibrate_constant(lambda C: prop13_bound(64, 1.0, 2.0, C) >= emp)
    i = CONSTANT_GRID.index(c)
    assert i > 0
    assert prop13_bound(64, 1.0, 2.0, c) >= emp
    assert prop13_bound(64, 1.0, 2.0, CONSTANT_GRID[i - 1]) < emp


def test_bernstein_fit_evaluates_no_constant_below_one(monkeypatch):
    seen = []

    def recording_bound(n, t, K, C1):
        seen.append(C1)
        return bernstein_bound(n, t, K, C1)

    monkeypatch.setattr(montecarlo, "bernstein_bound", recording_bound)
    report = run_report(ExperimentPlan(VectorModel(EXP, 16, 1.0), 10_000, 4), bootstrap=False)
    assert seen and min(seen) >= 1.0
    assert report.tail_rows[0].C >= 1.0


@pytest.mark.parametrize(
    "spec, p", [(DistributionSpec.pnormal(2.0), 2.0), (EXP, 1.0)], ids=["thm14", "bernstein"]
)
def test_report_bounds_are_model_bounds_at_fitted_constants(spec, p):
    model = VectorModel(spec, 16, p)
    report = run_report(ExperimentPlan(model, 10_000, 4), bootstrap=False)
    bounds = model_bounds(model)
    assert report.prop13_bound == bounds.prop13(report.prop13_C)
    if bounds.thm14 is not None:
        assert report.thm14_bound == bounds.thm14(report.thm14_C)
    assert report.tail_rows
    assert [r.bound for r in report.tail_rows] == [bounds.tail(r.t, r.C) for r in report.tail_rows]


@pytest.mark.parametrize(
    "spec, p, n",
    [(DistributionSpec.weibull(1.5, 2.0), 1.5, 64), (DistributionSpec.pnormal(1.5), 1.5, 256)],
    ids=["weibull(1.5, 2)", "pnormal(1.5)"],
)
def test_tail_rows_between_orders_one_and_two_bound_the_sum_of_powers(spec, p, n):
    # D >= t forces |S - c**p| >= c**p - (c - t)_+**p for S the sum of |X_i|**p,
    # whose terms have order-1 norm K_p**p
    model = VectorModel(spec, n, p)
    bound = model_bounds(model).tail
    c, k_1 = center_value(model), montecarlo.coordinate_norm(spec, p) ** p
    report = run_report(ExperimentPlan(model, 20_000, 20240817), bootstrap=False)
    for row in report.tail_rows:
        s = c**p - max(c - row.t, 0.0) ** p
        assert row.bound == bernstein_bound(n, s / n, k_1, row.C).value
        assert bound(row.t, 1.0) >= row.freq - 3.0 * row.se
    assert report.tail_rows[-1].bound < 1.0


def test_exp_tail_rows_are_the_bernstein_bound_at_t_over_n():
    model = VectorModel(EXP, 16, 1.0)
    bound = model_bounds(model).tail
    k_1 = montecarlo.coordinate_norm(EXP, 1.0)
    for t in montecarlo.default_t_grid(model):
        for C in (1.0, 1.5):
            assert bound(t, C) == bernstein_bound(16, t / 16, k_1, C).value


# ---------------------------------------------------------------------------
# reports and CSV wire format


def test_report_fields_and_csv_headers():
    plan = ExperimentPlan(VectorModel(DistributionSpec.pnormal(2.0), 16, 2.0), 10_000, 4)
    report = run_report(plan)
    assert isinstance(report, ConcentrationReport)
    assert report.family == "pnormal" and report.n == 16
    assert report.boot_lo <= report.emp_dev_norm <= report.boot_hi
    assert report.prop13_bound >= report.emp_dev_norm
    assert report.thm14_bound >= report.emp_dev_norm
    assert report.tail_rows
    csv_text = reports_to_csv([report])
    assert csv_text.splitlines()[0] == (
        "family,p,n,trials,seed,center,emp_dev_norm,boot_lo,boot_hi,"
        "prop13_C,prop13_bound,thm14_C,thm14_bound"
    )
    tails_text = tails_to_csv([report])
    assert tails_text.splitlines()[0] == "family,p,n,t,freq,se,bound,C"
    assert len(tails_text.splitlines()) == 1 + len(report.tail_rows)


def test_report_thm14_absent_below_order_two():
    plan = ExperimentPlan(VectorModel(EXP, 16, 1.0), 10_000, 4)
    report = run_report(plan, bootstrap=False)
    assert math.isnan(report.thm14_C) and math.isnan(report.thm14_bound)
    assert report.tail_rows  # Bernstein-form rows still present
    assert all(r.freq <= r.bound + 3.0 * r.se for r in report.tail_rows)


def test_csv_floats_are_17_digit_round_trippable():
    plan = ExperimentPlan(VectorModel(EXP, 16, 1.0), 2_000, 4)
    report = run_report(plan, bootstrap=False)
    text = reports_to_csv([report])
    row = text.splitlines()[1].split(",")
    assert float(row[6]) == report.emp_dev_norm


def test_loglog_slope_on_exact_power_law():
    ns = [16, 64, 256, 1024]
    assert loglog_slope(ns, [3.0 * n**0.5 for n in ns]) == pytest.approx(0.5, abs=1e-12)
