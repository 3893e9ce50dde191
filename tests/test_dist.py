import math
import tracemalloc
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.stats import ks_2samp

from subweibull import (
    DistributionSpec,
    NoClosedFormError,
    ParameterError,
    RandomStream,
    density,
    exact_upper_tail,
    mean,
    mgf,
    mgf_quadrature,
    moment_abs,
    moment_abs_quadrature,
    psi_norm_analytic,
    sample,
    spec_from_json,
)
from subweibull import dist, verify
from subweibull.dist import (
    BLOCK_DRAWS,
    _to_draws,
    canonical,
    sample_streams,
)
from subweibull.quadrature import improper_integral

EXP = DistributionSpec.exponential()


# ---------------------------------------------------------------------------
# construction and serialization


@pytest.mark.parametrize(
    "factory",
    [
        lambda: DistributionSpec.weibull(0.0, 1.0),
        lambda: DistributionSpec.weibull(1.0, -2.0),
        lambda: DistributionSpec.pnormal(-1.0),
        lambda: DistributionSpec.halfgauss_pow(2.0, 0.0),
        lambda: DistributionSpec("nope"),
        lambda: DistributionSpec.weibull(math.nan, 1.0),
    ],
)
def test_invalid_parameters_rejected(factory):
    with pytest.raises(ParameterError):
        factory()


# literal wire objects: the field names are part of the format
_WIRE = {
    EXP: {"family": "exp", "params": {}},
    DistributionSpec.weibull(2.5, 1.75): {
        "family": "weibull", "params": {"shape": 2.5, "scale": 1.75}
    },
    DistributionSpec.pnormal(3.0): {"family": "pnormal", "params": {"p": 3.0}},
    DistributionSpec.halfgauss_pow(1.5, 0.25): {
        "family": "halfgauss_pow", "params": {"p": 1.5, "scale": 0.25}
    },
}


@pytest.mark.parametrize("spec", list(_WIRE))
def test_json_round_trip(spec):
    assert spec_from_json(_WIRE[spec]) == spec


def test_json_rejects_wrong_params():
    with pytest.raises(ParameterError):
        spec_from_json({"family": "weibull", "params": {"shape": 1.0}})
    with pytest.raises(ParameterError):
        spec_from_json({"family": "exp", "params": {"rate": 2.0}})


# ---------------------------------------------------------------------------
# densities


def test_density_pnormal2_at_zero_is_standard_normal():
    assert density(DistributionSpec.pnormal(2.0), 0.0) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-15
    )


def test_density_exp_at_one():
    assert density(EXP, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_density_pnormal1_at_one():
    # direct formula evaluation, cross-checked below by integrating to 1
    assert density(DistributionSpec.pnormal(1.0), 1.0) == pytest.approx(
        0.12098536225957168, rel=1e-14
    )


def test_density_singularity_flags():
    assert density(DistributionSpec.pnormal(1.0), 0.0) == math.inf
    assert density(DistributionSpec.weibull(0.5, 1.0), 0.0) == math.inf
    assert density(DistributionSpec.pnormal(4.0), 0.0) == 0.0


@pytest.mark.parametrize(
    "spec",
    [
        EXP,
        DistributionSpec.weibull(0.8, 2.0),
        DistributionSpec.weibull(3.0, 1.0),
        DistributionSpec.pnormal(1.0),
        DistributionSpec.pnormal(2.0),
        DistributionSpec.pnormal(3.5),
        DistributionSpec.halfgauss_pow(1.2, 1.5),
    ],
)
def test_density_integrates_to_one(spec):
    # oracle: tanh-sinh quadrature, which absorbs the endpoint singularity
    mp.mp.dps = 25
    total = mp.quad(lambda x: density(spec, float(x)), [1e-30, 1.0, mp.inf])
    if spec.symmetric:
        total *= 2
    assert abs(float(total) - 1.0) <= 1e-8


def test_density_where_x_over_scale_underflows_is_its_value_at_zero():
    # 5e-324 / 2.5 rounds to 0: the pole below the base exponent, not a
    # ZeroDivisionError from 0.0 ** negative, and the value at 0 at the exponent
    for spec in (DistributionSpec.weibull(0.7, 2.5), DistributionSpec.halfgauss_pow(1.5, 2.5)):
        assert density(spec, 5e-324) == math.inf
    spec = DistributionSpec.halfgauss_pow(2.0, 2.5)
    assert density(spec, 5e-324) == density(spec, 0.0) == math.sqrt(2.0 / math.pi) / 2.5


def test_density_zero_off_support():
    assert density(EXP, -0.5) == 0.0
    assert density(DistributionSpec.weibull(2.0, 1.0), -1e-9) == 0.0
    assert density(DistributionSpec.halfgauss_pow(2.0, 1.0), -3.0) == 0.0


# ---------------------------------------------------------------------------
# moment generating functions


def test_mgf_exp_closed_forms():
    assert mgf(EXP, 0.5) == pytest.approx(2.0, rel=1e-15)
    assert mgf(EXP, 1.0) == math.inf
    assert mgf(EXP, 5.0) == math.inf
    assert mgf(EXP, -3.0) == pytest.approx(0.25, rel=1e-15)


def test_mgf_divergence_boundary_exact():
    for t in (1.0, 1.0 + 1e-12, 2.0):
        assert mgf(EXP, t) == math.inf
    for t in (1.0 - 1e-9, 0.999):
        assert math.isfinite(mgf(EXP, t))


def test_mgf_pnormal_abs_power():
    spec = DistributionSpec.pnormal(3.0)
    assert mgf(spec, 3.0 / 8.0, power=3.0) == pytest.approx(2.0, rel=1e-15)
    assert mgf(spec, 0.5, power=3.0) == math.inf


def test_mgf_weibull_abs_power():
    spec = DistributionSpec.weibull(2.0, 1.5)
    u = 1.5**2
    assert mgf(spec, 0.2, power=2.0) == pytest.approx(1.0 / (1.0 - u * 0.2), rel=1e-15)
    assert mgf(spec, 1.0 / u, power=2.0) == math.inf


def test_mgf_not_available_returns_none():
    assert mgf(DistributionSpec.pnormal(3.0), 0.1) is None
    assert mgf(DistributionSpec.weibull(2.0, 1.0), 0.1, power=1.0) is None


@pytest.mark.parametrize("t", [-1.0, 0.1, 0.25])
def test_mgf_halfgauss_pow_order_one_has_the_closed_form(t):
    # X = s * g**2 >= 0, so E exp(tX) is the order-1 table entry (1 - 2st)**-0.5
    spec = DistributionSpec.halfgauss_pow(1.0, 1.7)
    closed = mgf(spec, t)
    assert closed == mgf(spec, t, power=1.0)
    assert closed == pytest.approx(mgf_quadrature(spec, t), rel=1e-8)
    assert mgf(spec, 1.0 / 3.4) == math.inf


@pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 0.9])
def test_mgf_quadrature_matches_closed_form(t):
    # oracle: direct integral of e^{tx} e^{-x}
    oracle = quad(lambda x: math.exp(t * x - x), 0, math.inf, limit=200)[0]
    closed = mgf(EXP, t)
    numeric = mgf_quadrature(EXP, t)
    assert numeric == pytest.approx(closed, rel=1e-8)
    assert numeric == pytest.approx(oracle, rel=1e-8)


def test_mgf_quadrature_detects_divergence(monkeypatch):
    # the law decides, so the integrator is never called
    def refuse(*args, **kwargs):
        raise AssertionError("a moment the law calls divergent reached the integrator")

    monkeypatch.setattr(dist, "improper_integral", refuse)
    assert mgf_quadrature(EXP, 1.0) == math.inf
    assert mgf_quadrature(EXP, 1.5) == math.inf
    # E exp(t |X|**3) of pnormal(3) is (1 - 2t)**-0.5, divergent from t = 1/2
    assert mgf_quadrature(DistributionSpec.pnormal(3.0), 0.5, power=3.0) == math.inf
    # |X| of weibull(0.5) is B**2, above the exponential base's boundary at any t > 0
    assert mgf_quadrature(DistributionSpec.weibull(0.5), 1e-3, power=1.0) == math.inf


def test_mgf_quadrature_symmetric_identity():
    spec = DistributionSpec.pnormal(2.0)
    for t in (0.3, -1.1):
        assert mgf_quadrature(spec, t) == pytest.approx(math.exp(0.5 * t * t), rel=1e-8)
    # finite at t = 0 however heavy the tails
    assert mgf_quadrature(DistributionSpec.pnormal(0.5), 0.0) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# moments, means, tails


def test_moments_closed_vs_quadrature():
    for spec in (EXP, DistributionSpec.weibull(2.4, 1.3), DistributionSpec.pnormal(2.4)):
        for alpha in (0.5, 1.0, 3.7):
            assert moment_abs_quadrature(spec, alpha) == pytest.approx(
                moment_abs(spec, alpha), rel=1e-9
            )


def test_large_convergent_moments_are_not_read_as_divergent():
    # E X**a of exp is a!, and weibull(0.5) has E X**a = (2a)!: 1.2e100 to 1.5e138,
    # all below the integrator's 1e150 ceiling
    for spec, alphas in ((EXP, (70.0, 80.0, 90.0)),
                         (DistributionSpec.weibull(0.5), (35.0, 40.0, 45.0))):
        for alpha in alphas:
            got = moment_abs_quadrature(spec, alpha)
            assert got == pytest.approx(moment_abs(spec, alpha), rel=1e-12), (spec, alpha)


def test_pnormal_normalization_moment():
    for p in (1.0, 2.0, 3.0, 4.5):
        assert moment_abs(DistributionSpec.pnormal(p), p) == pytest.approx(1.0, rel=1e-12)


def test_means():
    assert mean(EXP) == pytest.approx(1.0, rel=1e-15)
    assert mean(DistributionSpec.pnormal(3.0)) == 0.0
    assert mean(DistributionSpec.weibull(2.0, 1.0)) == pytest.approx(
        math.gamma(1.5), rel=1e-12
    )


def test_exact_tails():
    assert exact_upper_tail(EXP, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    spec = DistributionSpec.weibull(3.0, 2.0)
    assert exact_upper_tail(spec, 1.0) == pytest.approx(math.exp(-0.125), rel=1e-15)
    spec = DistributionSpec.pnormal(2.0)
    assert exact_upper_tail(spec, 1.0) == pytest.approx(
        math.erfc(1.0 / math.sqrt(2.0)), rel=1e-15
    )
    assert exact_upper_tail(spec, 0.0) == 1.0


# ---------------------------------------------------------------------------
# sampling


def test_sample_is_pure():
    spec = DistributionSpec.pnormal(2.5)
    s = RandomStream(77, 3)
    assert np.array_equal(sample(spec, s, 500), sample(spec, s, 500))


def test_sample_prefix_stable():
    spec = DistributionSpec.pnormal(2.5)
    s = RandomStream(77, 3)
    assert np.array_equal(sample(spec, s, 500)[:200], sample(spec, s, 200))


@pytest.mark.parametrize(
    "spec",
    [
        EXP,
        DistributionSpec.weibull(1.5, 2.0),
        DistributionSpec.pnormal(3.0),
        DistributionSpec.halfgauss_pow(3.0, 1.5),
    ],
    ids=lambda spec: spec.family,
)
def test_short_sample_is_a_prefix_of_a_long_one(spec):
    # a growth suite reads dimension n as the first n draws of its longest sample
    s = RandomStream(20_240_817, 7)
    assert sample(spec, s, 4099)[:5].tobytes() == sample(spec, s, 5).tobytes()


def test_sample_streams_matches_per_stream_calls():
    spec = DistributionSpec.halfgauss_pow(1.5, 2.0)
    block = sample_streams(spec, 5, 10, 14, 50)
    for i, j in enumerate(range(10, 14)):
        assert np.array_equal(block[i], sample(spec, RandomStream(5, j), 50))


def test_sample_streams_builds_one_generator(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    block = sample_streams(EXP, 11, 0, 1000, 4)
    monkeypatch.setattr(np.random, "Philox", philox)
    assert len(built) <= 1
    assert np.array_equal(block[999], sample(EXP, RandomStream(11, 999), 4))


def test_sample_count_validation():
    # the rule of RandomStream.uniforms: an integer >= 1, and not a bool
    for count in (0, -1, 2.7, 2.0, "3", True):
        with pytest.raises(ParameterError):
            sample(EXP, RandomStream(0, 0), count)
        with pytest.raises(ParameterError):
            sample_streams(EXP, 0, 0, 2, count)


_FAMILIES = [
    EXP,
    DistributionSpec.weibull(0.7, 2.0),
    DistributionSpec.pnormal(3.0),
    DistributionSpec.halfgauss_pow(1.5, 0.5),
]


def _base_variates(spec, stream, count):
    """The stream's first ``count`` base variates, drawn at once: uniforms, or normals for |g|."""
    if spec.family in ("exp", "weibull"):
        return stream.uniforms(count)
    return stream.generator().standard_normal(count)


@pytest.mark.parametrize("spec", _FAMILIES, ids=lambda spec: spec.family)
@pytest.mark.parametrize(
    "count", [1, BLOCK_DRAWS - 1, BLOCK_DRAWS, BLOCK_DRAWS + 1, 2 * BLOCK_DRAWS + 3]
)
def test_streamed_sample_is_the_whole_stream_transformed(spec, count, monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    stream = RandomStream(20_240_817, 5)
    monkeypatch.setattr(np.random, "Philox", counting)
    got = sample(spec, stream, count)
    monkeypatch.setattr(np.random, "Philox", philox)
    assert len(built) == 1
    whole = _to_draws(spec, _base_variates(spec, stream, count))
    assert got.tobytes() == whole.tobytes()


def test_sample_validates_count_before_building_a_generator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "Philox", refuse)
    with pytest.raises(ParameterError):
        sample(EXP, RandomStream(0, 0), 0)


def _traced_peak(fn):
    """(result, peak traced bytes) of one call, numpy buffers included."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_scratch_is_one_block_whatever_the_count():
    spec = DistributionSpec.pnormal(3.0)
    sample(spec, RandomStream(3, 0), 10)  # first-call caches out of the trace
    scratch = {}
    for count in (1_000_000, 4_000_000):
        x, peak = _traced_peak(lambda: sample(spec, RandomStream(3, 0), count))
        scratch[count] = peak - x.nbytes
        del x
    assert scratch[1_000_000] < 0.5 * 8 * 1_000_000
    assert abs(scratch[4_000_000] - scratch[1_000_000]) <= 64 * 1024


def test_sampler_moment_check_holds_one_sample():
    verify.check_sampler_moments()  # first-call caches out of the trace
    result, peak = _traced_peak(verify.check_sampler_moments)
    assert result.passed
    assert peak < 1.5 * 8 * 1_000_000


def test_weibull_mean_one():
    x = sample(DistributionSpec.weibull(1.0, 1.0), RandomStream(8, 0), 1_000_000)
    assert abs(float(np.mean(x)) - 1.0) <= 0.005


def test_pnormal_pth_moment_one():
    p = 2.7
    x = sample(DistributionSpec.pnormal(p), RandomStream(8, 1), 1_000_000)
    assert abs(float(np.mean(np.abs(x) ** p)) - 1.0) <= 0.01


def test_pnormal_mean_zero():
    p = 3.0
    spec = DistributionSpec.pnormal(p)
    x = sample(spec, RandomStream(8, 2), 1_000_000)
    sigma = math.sqrt(moment_abs(spec, 2.0))
    assert abs(float(np.mean(x))) <= 3.0 * sigma / 1e3


def test_pnormal_symmetric_by_construction():
    x = sample(DistributionSpec.pnormal(1.5), RandomStream(8, 3), 40_000)
    assert np.array_equal(np.sort(np.abs(x)), np.sort(np.abs(-x)))
    assert 0.45 <= float(np.mean(x > 0)) <= 0.55


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_pnormal_sign_bit_is_the_stream_normals_sign_bit(q):
    stream = RandomStream(20_240_817, 9)
    g = stream.generator().standard_normal(4_000)
    x = sample(DistributionSpec.pnormal(q), stream, 4_000)
    assert np.array_equal(np.signbit(x), np.signbit(g))
    # signed zeros included: the map is copysign, not a mask
    signed = _to_draws(DistributionSpec.pnormal(q), np.array([0.0, -0.0, -1.5, 2.0]))
    assert np.array_equal(np.signbit(signed), [False, True, True, False])


def test_weibull_equals_powered_exponential_in_law():
    # two-sample KS between the family sampler and its defining transform
    shape, scale = 1.7, 1.3
    n = 100_000
    a = sample(DistributionSpec.weibull(shape, scale), RandomStream(411, 0), n)
    e = sample(EXP, RandomStream(411, 1), n)
    b = scale * e ** (1.0 / shape)
    assert ks_2samp(a, b).pvalue > 1e-3


def _verify_ks_samples():
    """The sample pairs that the two verify KS checks compare, as they build them."""
    shape, scale = 1.7, 1.3
    a = sample(DistributionSpec.weibull(shape, scale), RandomStream(411, 0), 100_000)
    b = scale * sample(EXP, RandomStream(411, 1), 100_000) ** (1.0 / shape)
    x = sample(DistributionSpec.pnormal(3.0), RandomStream(7, 0), 50_000)
    return [(a, b), (x[x > 0.0], -x[x < 0.0])]


def test_ks_helper_matches_scipy_on_the_verify_samples():
    for a, b in _verify_ks_samples():
        d, pvalue = verify._ks_2samp(a, b)
        reference = ks_2samp(a, b)
        assert min(a.size, b.size) > 10_000  # ks_2samp's asymptotic regime
        assert d == reference.statistic
        assert abs(pvalue - reference.pvalue) <= 0.01


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # ks_2samp at en < 0.5
@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=60),
    st.lists(st.integers(-5, 5), min_size=1, max_size=40),
)
def test_ks_helper_statistic_matches_scipy_with_ties(a, b):
    # ks_2samp's exact method (its default up to 10 000 draws) rounds D to a
    # multiple of 1/lcm(n1, n2); its asymptotic method keeps the raw counts
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    assert verify._ks_2samp(a, b)[0] == ks_2samp(a, b, method="asymp").statistic


def test_ks_helper_rejects_a_shifted_sample(monkeypatch):
    (a, b), _ = _verify_ks_samples()
    assert verify._ks_2samp(a, b + 0.05)[1] < 1e-3

    def shifted_exponential(spec, stream, count):
        x = sample(spec, stream, count)
        return x + 0.05 if spec.family == EXP.family else x

    monkeypatch.setattr(verify.dist, "sample", shifted_exponential)
    assert not verify.check_weibull_sampler_identity().passed


def test_sample_supports():
    assert np.all(sample(EXP, RandomStream(1, 0), 1000) >= 0.0)
    assert np.all(sample(DistributionSpec.halfgauss_pow(2.0, 1.0), RandomStream(1, 0), 1000) >= 0.0)


# ---------------------------------------------------------------------------
# the law-based forms carry the bits of the per-family expressions they replaced

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _ref_density(spec, x):
    q, theta = spec.shape, spec.scale
    if spec.family == "exp":
        return math.exp(-x) if x >= 0.0 else 0.0
    if spec.family == "weibull":
        if x < 0.0:
            return 0.0
        if x == 0.0:
            return math.inf if q < 1.0 else (1.0 / theta if q == 1.0 else 0.0)
        z = x / theta
        return (q / theta) * z ** (q - 1.0) * math.exp(-(z**q))
    if spec.family == "pnormal":
        z = abs(x)
        if z == 0.0:
            return math.inf if q < 2.0 else (1.0 / _SQRT_2PI if q == 2.0 else 0.0)
        return (q / (2.0 * _SQRT_2PI)) * z ** (0.5 * q - 1.0) * math.exp(-0.5 * z**q)
    if x < 0.0:
        return 0.0
    if x == 0.0:
        if q < 2.0:
            return math.inf
        return math.sqrt(2.0 / math.pi) / theta if q == 2.0 else 0.0
    z = x / theta
    return (q / (theta * _SQRT_2PI)) * z ** (0.5 * q - 1.0) * math.exp(-0.5 * z**q)


def _ref_tail(spec, t):
    if t <= 0.0:
        return 1.0
    q, theta = spec.order, spec.scale
    if spec.family in ("exp", "weibull"):
        return math.exp(-((t / theta) ** q))
    return math.erfc((t / theta) ** (0.5 * q) / math.sqrt(2.0))


def _ref_mgf(spec, t, power):
    fam = spec.family
    if fam == "exp" and (power is None or power == 1.0):
        return 1.0 / (1.0 - t) if t < 1.0 else math.inf
    if fam == "weibull":
        if power == spec.shape or (spec.shape == 1.0 and power is None):
            u = spec.scale**spec.shape * t if power == spec.shape else spec.scale * t
            return 1.0 / (1.0 - u) if u < 1.0 else math.inf
    if fam == "pnormal":
        if power == spec.shape:
            return (1.0 - 2.0 * t) ** -0.5 if t < 0.5 else math.inf
        if power is None and spec.shape == 2.0:
            return math.exp(0.5 * t * t)
    if fam == "halfgauss_pow" and power == spec.shape:
        u = spec.scale**spec.shape * t
        return (1.0 - 2.0 * u) ** -0.5 if u < 0.5 else math.inf
    # the one entry the law adds: X = s * g**2 >= 0 at order 1
    if fam == "halfgauss_pow" and power is None and spec.shape == 1.0:
        u = spec.scale * t
        return (1.0 - 2.0 * u) ** -0.5 if u < 0.5 else math.inf
    return None


def _ref_psi_norm_analytic(spec, p):
    fam = spec.family
    if fam == "exp" and p == 1.0:
        return 2.0
    if fam == "weibull" and p == spec.shape:
        return spec.scale * 2.0 ** (1.0 / p)
    if fam == "pnormal" and p == spec.shape:
        return (8.0 / 3.0) ** (1.0 / p)
    if fam == "halfgauss_pow" and p == spec.shape:
        return spec.scale * (8.0 / 3.0) ** (1.0 / p)
    return None


def _ref_transform(spec, v):
    """The draws of base variates ``v``: uniforms u for exp and weibull, else normals g."""
    if spec.family in ("exp", "weibull"):
        return spec.scale * (-np.log1p(-v)) ** (1.0 / spec.shape)
    x = np.abs(v) ** (2.0 / spec.shape)
    if spec.symmetric:
        return np.copysign(x, v)
    return spec.scale * x


# every family, with scale != 1 and shapes below, at and above the base exponent
# m (1 for exp and weibull, 2 for pnormal and halfgauss_pow); at halfgauss_pow(2,
# 2.5) 2/(scale sqrt(2 pi)) and sqrt(2/pi)/scale, the value at 0, differ in the
# last bit
_BITS_LAWS = [
    EXP,
    DistributionSpec.weibull(0.7, 1.5),
    DistributionSpec.weibull(1.0, 1.0),
    DistributionSpec.weibull(1.0, 2.5),
    DistributionSpec.weibull(3.3, 0.4),
    DistributionSpec.pnormal(0.6),
    DistributionSpec.pnormal(1.0),
    DistributionSpec.pnormal(2.0),
    DistributionSpec.pnormal(3.0),
    DistributionSpec.halfgauss_pow(1.0, 1.7),
    DistributionSpec.halfgauss_pow(1.5, 2.0),
    DistributionSpec.halfgauss_pow(2.0, 1.0),
    DistributionSpec.halfgauss_pow(2.0, 2.5),
    DistributionSpec.halfgauss_pow(4.0, 0.3),
]


@pytest.mark.parametrize("spec", _BITS_LAWS, ids=lambda s: f"{s.family}({s.shape:g},{s.scale:g})")
def test_law_based_forms_are_bitwise_the_family_expressions(spec):
    for x in (0.0, -0.0, 1e-320, 1e-300, 1e-10, 0.3, 1.0, 2.7, 15.0, 40.0, -1e-300, -0.4,
              -2.0):
        assert density(spec, x) == _ref_density(spec, x), x
    for t in (-1.0, 0.0, 1e-8, 0.5, 1.0, 3.0, 9.0):
        assert exact_upper_tail(spec, t) == _ref_tail(spec, t), t
    for power in (None, 0.5, 1.0, 2.0, spec.order):
        for t in (-2.0, -0.3, 0.0, 0.1, 0.2, 0.49, 0.5, 0.9, 1.0, 1.5):
            assert mgf(spec, t, power) == _ref_mgf(spec, t, power), (power, t)
    for p in (0.5, 1.0, 2.0, spec.order):
        ref = _ref_psi_norm_analytic(spec, p)
        if ref is None:
            with pytest.raises(NoClosedFormError):
                psi_norm_analytic(spec, p)
        else:
            assert psi_norm_analytic(spec, p).value == ref, p
    v = _base_variates(spec, RandomStream(3, 1), 999)
    assert _to_draws(spec, v.copy()).tobytes() == _ref_transform(spec, v).tobytes()


# ---------------------------------------------------------------------------
# the canonical law's facts, one formula in k, against each base's closed form

_FACT_LAWS = [EXP, DistributionSpec.weibull(0.7, 1.5),
              *(DistributionSpec.pnormal(p) for p in (1.0, 2.0, 3.0, 4.0)),
              DistributionSpec.halfgauss_pow(2.5)]


def _base_closed_forms(exp_base, scale, order):
    """(exponent, moment_abs, converges, analytic norm) as each base writes them."""

    def exponent(p):
        return p / order if exp_base else 2.0 * p / order

    def moment_abs(alpha):
        s = alpha / order
        if exp_base:
            return scale**alpha * math.gamma(s + 1.0)
        return scale**alpha * 2.0**s * math.gamma(s + 0.5) / math.sqrt(math.pi)

    boundary, critical = (1.0, 1.0) if exp_base else (2.0, 0.5)

    def converges(a, r):
        if r < boundary - 1e-9:
            return True
        if r > boundary + 1e-9:
            return False
        return a < critical

    def norm(p):
        return scale * (2.0 if exp_base else 8.0 / 3.0) ** (1.0 / p)

    return exponent, moment_abs, converges, norm


def _value_or_error(fn, *args):
    try:
        return fn(*args)
    except OverflowError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("scale", [1.0, 1e80, 1e-160])
@pytest.mark.parametrize("spec", _FACT_LAWS, ids=lambda s: f"{s.family}({s.shape:g},{s.scale:g})")
def test_canonical_law_facts_are_bitwise_the_base_closed_forms(spec, scale):
    exp_base = spec.family in ("exp", "weibull")
    law = replace(canonical(spec), scale=scale)
    assert law.k == (1.0 if exp_base else 0.5)
    exponent, moment_abs_ref, converges, norm = _base_closed_forms(exp_base, scale, spec.order)
    for p in (0.5, 1.0, 2.0, 3.0, spec.order):
        assert law.exponent(p) == exponent(p), p
    assert law.e == exponent(1.0)
    for alpha in (0.25, 0.5, 1.0, 1.7, 2.0, 3.0, 8.0):
        assert _value_or_error(law.moment_abs, alpha) == _value_or_error(moment_abs_ref, alpha)
    k = law.k
    for a in (0.5 * k, k, 2.0 * k):
        for r in (1.0 / k - 2e-9, 1.0 / k, 1.0 / k + 2e-9):
            assert law.exp_moment_converges(a, r) == converges(a, r), (a, r)
    assert law.exp_moment_converges(k, 1.0 / k - 2e-9)
    assert not law.exp_moment_converges(k, 1.0 / k)
    assert not law.exp_moment_converges(0.5 * k, 1.0 / k + 2e-9)
    if spec.family in ("weibull", "halfgauss_pow") or scale == 1.0:
        analytic = psi_norm_analytic(replace(spec, scale=scale), spec.order).value
        assert analytic == norm(spec.order)


def _reference_moment(spec, alpha):
    """moment_abs_quadrature with its integrand built by hand."""
    law = canonical(spec)
    r = law.exponent(alpha)
    log_c = alpha * math.log(law.scale)

    def integrand(x):
        if x <= 0.0:
            return 0.0
        val = log_c + r * math.log(x) + law.log_base_pdf(x)
        return math.exp(val) if val < 708.0 else math.inf

    return improper_integral(integrand)


def _reference_mgf(spec, t, power):
    """mgf_quadrature with its two integrands built by hand."""
    law = canonical(spec)
    e = law.e
    if power is None and spec.symmetric:
        r = law.exponent(1.0)
        a = abs(t) * law.scale
        divergent = a > 0.0 and not law.exp_moment_converges(a, r)

        def integrand(x):
            y = abs(t) * law.scale * x**e
            log_cosh = y + math.log1p(math.exp(-2.0 * y)) - math.log(2.0)
            val = log_cosh + law.log_base_pdf(x)
            return math.exp(val) if val < 708.0 else math.inf

        return math.inf if divergent else improper_integral(integrand)
    p_eff = 1.0 if power is None else float(power)
    r = law.exponent(p_eff)
    a = t * law.scale**p_eff
    divergent = a > 0.0 and not law.exp_moment_converges(a, r)

    def integrand(x):
        val = a * x**r + law.log_base_pdf(x)
        return math.exp(val) if val < 708.0 else math.inf

    return math.inf if divergent else improper_integral(integrand)


@pytest.mark.parametrize("spec", _FACT_LAWS, ids=lambda s: f"{s.family}({s.shape:g},{s.scale:g})")
def test_base_integral_quadratures_are_the_hand_built_integrands(spec):
    for alpha in (0.5, 1.0, 2.5):
        assert moment_abs_quadrature(spec, alpha) == _reference_moment(spec, alpha), alpha
    for power in (None, 1.0, spec.order):
        for t in (-1.0, 0.0, 0.3, 0.9):
            got = mgf_quadrature(spec, t, power)
            assert got == _reference_mgf(spec, t, power), (power, t)
