"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion calls the invariant's one definition in ``subweibull.verify``
and adds its time gate.  The expensive Monte Carlo experiments are produced
once per worker-thread setting by a module fixture and shared across
criteria 7, 8 and 9, which apply verify's predicates to them.
"""

import time

import pytest

from subweibull import DistributionSpec, ExperimentPlan, VectorModel, verify
from subweibull.montecarlo import growth_suite, run_report, worker_threads

TRIALS = 100_000
SEED = 20_240_817
PNORMAL2 = DistributionSpec.pnormal(2.0)
PNORMAL3 = DistributionSpec.pnormal(3.0)


def _report(num: int, results, elapsed: float | None = None, gate_s: float | None = None):
    ok = all(r.passed for r in results)
    detail = "; ".join(r.detail for r in results)
    if gate_s is not None:
        ok = ok and elapsed < gate_s
        detail += f", {elapsed:.2f}s (< {gate_s:g} s)"
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} | {detail}")
    assert ok, f"criterion {num}: {detail}"


def _timed(num: int, gate_s: float, *checks) -> None:
    t0 = time.perf_counter()
    results = [check() for check in checks]
    _report(num, results, time.perf_counter() - t0, gate_s)


# ---------------------------------------------------------------------------
# criteria 1-6: closed-form and structural reproduction


def test_criterion_1_closed_form_norms():
    _timed(1, 10.0, verify.check_closed_form_table)


def test_criterion_2_tau_norms():
    _timed(2, 5.0, verify.check_tau_values)


def test_criterion_3_conjugacy_suite():
    _timed(3, 1.0, verify.check_conjugacy)


def test_criterion_4_lemma_property_suite():
    _timed(4, 5.0, lambda: verify.check_lemma_batches(seed=SEED))


def test_criterion_5_power_norm_identity():
    _timed(5, 10.0, verify.check_power_identity)


def test_criterion_6_mgf_domination():
    _timed(6, 1.0, verify.check_tau_mgf_domination, verify.check_tau_tightness)


# ---------------------------------------------------------------------------
# criteria 7-9: Monte Carlo experiments, shared across thread settings


@pytest.fixture(scope="module")
def experiment_runs():
    runs = {}
    for workers in (8, 1):
        with worker_threads(workers):
            t0 = time.perf_counter()
            gauss = growth_suite(PNORMAL2, 2.0, verify.N_GRID, TRIALS, SEED)
            expo = growth_suite(DistributionSpec.exponential(), 1.0, verify.N_GRID, TRIALS, SEED)
            growth_elapsed = time.perf_counter() - t0
            t0 = time.perf_counter()
            tail = run_report(ExperimentPlan(VectorModel(PNORMAL3, 256, 3.0), TRIALS, SEED))
            runs[workers] = {
                "gauss": gauss,
                "expo": expo,
                "tail": tail,
                "growth_elapsed": growth_elapsed,
                "tail_elapsed": time.perf_counter() - t0,
            }
    return runs


def test_criterion_7_growth_contrast(experiment_runs):
    run = experiment_runs[8]
    result = verify.growth_contrast(PNORMAL2, run["gauss"], run["expo"])
    _report(7, [result], run["growth_elapsed"], 300.0)


def test_criterion_8_tail_domination(experiment_runs):
    run = experiment_runs[8]
    single_c = max(r.thm14_C for r in run["gauss"])  # calibrated in criterion 7
    result = verify.tail_domination([(PNORMAL3, run["tail"])], constant=single_c)
    _report(8, [result], run["tail_elapsed"], 120.0)


def test_criterion_9_thread_reproducibility(experiment_runs):
    reports = {w: run["gauss"] + run["expo"] + [run["tail"]] for w, run in experiment_runs.items()}
    _report(9, [verify.csv_reproducibility(reports)])
