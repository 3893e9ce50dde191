import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subweibull import (
    DistributionSpec,
    ParameterError,
    VectorModel,
    exact_upper_tail,
    lemma_concavity,
    lemma_phi1_power,
    lemma_xalfa,
    lp_norm,
    moment_abs,
    phi1_min_inequality,
    prop13_bound,
    psi_norm_analytic,
    psi_tail_bound,
    thm14_bound,
    thm14_tail_bound,
)

nonneg = st.floats(0.0, 100.0, allow_nan=False)
order_ge1 = st.floats(1.0, 8.0, allow_nan=False)
order_ge2 = st.floats(2.0, 8.0, allow_nan=False)


# ---------------------------------------------------------------------------
# lp_norm


def test_lp_norm_pythagorean():
    assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, rel=1e-15)


def test_lp_norm_constant_vector():
    for n, p in ((7, 1.0), (16, 2.0), (100, 3.0)):
        assert lp_norm(np.ones(n), p) == pytest.approx(n ** (1.0 / p), rel=1e-14)


def test_lp_norm_absolute_sum():
    assert lp_norm([-1.0, 2.0, -2.0], 1.0) == pytest.approx(5.0, rel=1e-15)


def test_lp_norm_overflow_guarded():
    x = np.array([1e200, 1e200])
    assert lp_norm(x, 2.0) == pytest.approx(1e200 * math.sqrt(2.0), rel=1e-14)


def _lp_norm_reference(x, p):
    """One vector at a time, as a plain 1-D reduction."""
    a = np.abs(np.asarray(x, dtype=float))
    top = float(a.max())
    if top == 0.0:
        return 0.0
    return top * float(np.sum((a / top) ** p)) ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [1, 5, 16, 1000, 10_000])
def test_lp_norm_rows_match_one_dimensional(n, p):
    rows = np.random.default_rng(n).standard_normal((6, n))
    rows[1] = 0.0
    rows[2] *= 1e200
    rows[3] = np.abs(rows[3]) * 1e-300
    norms = lp_norm(rows, p)
    assert norms.shape == (6,)
    for row, norm in zip(rows, norms):
        assert norm == lp_norm(row, p) == _lp_norm_reference(row, p)
    assert norms[1] == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_lp_norm_rows_finish_with_python_float_pow(p):
    # thousands of rows, where np.power and float pow part in the last bit
    rows = np.random.default_rng(16).standard_exponential((3334, 16))
    top = rows.max(axis=1)
    sums = np.add.reduce((rows / top[:, None]) ** p, axis=1)
    expected = [t * s ** (1.0 / p) for t, s in zip(top.tolist(), sums.tolist())]
    assert lp_norm(rows, p).tolist() == expected


def test_lp_norm_rows_reject_higher_rank():
    with pytest.raises(ParameterError):
        lp_norm(np.ones((2, 2, 2)), 2.0)


def test_lp_norm_rejects_small_p():
    with pytest.raises(ParameterError):
        lp_norm([1.0], 0.5)


@settings(max_examples=200)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
    order_ge1,
)
def test_lp_norm_subadditive(x, y, p):
    n = min(len(x), len(y))
    x, y = np.asarray(x[:n]), np.asarray(y[:n])
    assert lp_norm(x + y, p) <= lp_norm(x, p) + lp_norm(y, p) + 1e-9


# ---------------------------------------------------------------------------
# bound formulas


def test_prop13_values():
    assert prop13_bound(1, 1.0, 2.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert prop13_bound(16, 2.0, 1.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert prop13_bound(100, 1.0, 2.0, 4.0) == pytest.approx(80.0, rel=1e-15)


def test_thm14_values():
    assert thm14_bound(2.0, 1.0, 1.0, 1.0) == pytest.approx(math.sqrt(6.0), rel=1e-15)
    assert thm14_bound(3.0, 2.0, 1.0, 1.0) == pytest.approx(
        8.0 * 6.0 ** (1.0 / 3.0), rel=1e-15
    )


def test_thm14_pnormal_constant_form():
    # with unit L^p norm the bound collapses to 6**(1/p) C K_p**p
    for p in (2.0, 3.0):
        k = psi_norm_analytic(DistributionSpec.pnormal(p), p).value
        got = thm14_bound(p, k, 1.0, 1.0)
        assert got == pytest.approx(6.0 ** (1.0 / p) * (8.0 / 3.0), rel=1e-12)


def test_thm14_rejects_inconsistent_norms():
    with pytest.raises(ParameterError):
        thm14_bound(2.0, 0.5, 1.0, 1.0)
    with pytest.raises(ParameterError):
        thm14_bound(1.5, 2.0, 1.0, 1.0)


def test_thm14_tail_bound_formula():
    # p=2, K=1, L=1, C=1: 2 exp(-(t / sqrt(2))^2)
    got = thm14_tail_bound(2.0, 1.0, 1.0, 1.5, 1.0)
    assert got == pytest.approx(2.0 * math.exp(-((1.5 / math.sqrt(2.0)) ** 2)), rel=1e-12)
    assert thm14_tail_bound(2.0, 1.0, 1.0, 0.0, 1.0) == 2.0


def test_psi_tail_values():
    assert psi_tail_bound(2.0, 1.0, 0.0) == 2.0
    assert psi_tail_bound(2.0, 1.0, 0.0, clamp=True) == 1.0
    assert psi_tail_bound(2.0, 1.0, 2.0 * math.log(4.0)) == pytest.approx(0.5, rel=1e-12)


def test_psi_tail_dominates_exact_exp_tail():
    spec = DistributionSpec.exponential()
    for t in np.linspace(0.0, 40.0, 81):
        assert exact_upper_tail(spec, float(t)) <= psi_tail_bound(2.0, 1.0, float(t)) + 1e-15


def test_vector_model_validation():
    spec = DistributionSpec.exponential()
    with pytest.raises(ParameterError):
        VectorModel(spec, 0, 1.0)
    with pytest.raises(ParameterError):
        VectorModel(spec, 4, 0.5)


# ---------------------------------------------------------------------------
# scalar lemmas: pinned examples


def test_lemma_concavity_examples():
    assert lemma_concavity(4.0, 4.0, 3.0)
    assert lemma_concavity(4.0, 0.0, 2.0)
    assert lemma_concavity(9.0, 4.0, 2.0)


def test_lemma_xalfa_examples():
    assert lemma_xalfa(1.0, 0.0, 2.0)
    assert lemma_xalfa(3.0, 2.0, 2.0)
    assert lemma_xalfa(0.5, 0.5, 3.0)


def test_lemma_phi1_power_examples():
    assert lemma_phi1_power(1.0, 2.0)
    assert lemma_phi1_power(0.5, 2.0)
    assert lemma_phi1_power(2.0, 3.0)


# ---------------------------------------------------------------------------
# scalar lemmas: randomized


@settings(max_examples=300)
@given(nonneg, nonneg, order_ge1)
def test_lemma_concavity_random(a, b, p):
    assert lemma_concavity(a, b, p)


@settings(max_examples=300)
@given(nonneg, st.floats(0.0, 20.0), order_ge1)
def test_lemma_xalfa_random(x, delta, p):
    assert lemma_xalfa(x, delta, p)


@settings(max_examples=300)
@given(st.floats(0.0, 30.0), order_ge2)
def test_lemma_phi1_power_random(gamma, p):
    assert lemma_phi1_power(gamma, p)


@settings(max_examples=300)
@given(st.floats(0.0, 50.0))
def test_phi1_min_inequality_random(u):
    assert phi1_min_inequality(u)


def test_lemmas_vectorized():
    gen = np.random.default_rng(0)
    a, b = gen.uniform(0, 50, 1000), gen.uniform(0, 50, 1000)
    p = gen.uniform(1, 8, 1000)
    assert np.all(lemma_concavity(a, b, p))
    assert np.all(lemma_xalfa(a, b, p))
    assert np.all(lemma_phi1_power(a, np.maximum(p, 2.0)))
    assert np.all(phi1_min_inequality(a))


# ---------------------------------------------------------------------------
# norm-vs-moment facts feeding the dimension-free bound's precondition


def test_norm_power_dominates_moment():
    for p in (2.0, 3.0):
        spec = DistributionSpec.pnormal(p)
        assert psi_norm_analytic(spec, p).value ** p >= moment_abs(spec, p)
    for p, theta in ((2.0, 1.0), (3.0, 2.5)):
        spec = DistributionSpec.weibull(p, theta)
        k_pow = psi_norm_analytic(spec, p).value ** p
        assert k_pow == pytest.approx(2.0 * theta**p, rel=1e-12)
        assert k_pow >= moment_abs(spec, p)
