import contextlib
import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subweibull import (
    DistributionSpec,
    DivergenceError,
    InsufficientSamplesError,
    NoClosedFormError,
    ParameterError,
    RandomStream,
    VerificationError,
    centering_bound_check,
    check_equivalence,
    exp_moment,
    power_norm_identity,
    psi_norm_analytic,
    psi_norm_empirical,
    psi_norm_quadrature,
    sample,
)
from subweibull import ExperimentPlan, VectorModel, orlicz, verify
from subweibull.dist import canonical, mean
from subweibull.montecarlo import BOOTSTRAP_STREAM_BASE, deviations
from subweibull.orlicz import OrliczNormResult, psi_norm_quadrature_canonical
from subweibull.quadrature import improper_integral

EXP = DistributionSpec.exponential()


# ---------------------------------------------------------------------------
# analytic table


def test_analytic_exp():
    assert psi_norm_analytic(EXP, 1.0).value == 2.0


def test_analytic_pnormal():
    for p in (1.0, 2.0, 3.0, 4.0):
        got = psi_norm_analytic(DistributionSpec.pnormal(p), p).value
        assert got == pytest.approx((8.0 / 3.0) ** (1.0 / p), rel=1e-15)


def test_analytic_weibull():
    got = psi_norm_analytic(DistributionSpec.weibull(2.0, 1.0), 2.0).value
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-15)
    got = psi_norm_analytic(DistributionSpec.weibull(3.0, 2.0), 3.0).value
    assert got == pytest.approx(2.0 * 2.0 ** (1.0 / 3.0), rel=1e-15)


def test_analytic_halfgauss():
    got = psi_norm_analytic(DistributionSpec.halfgauss_pow(2.0, 3.0), 2.0).value
    assert got == pytest.approx(3.0 * math.sqrt(8.0 / 3.0), rel=1e-15)


def test_analytic_unsupported_pairs():
    with pytest.raises(NoClosedFormError):
        psi_norm_analytic(EXP, 2.0)
    with pytest.raises(NoClosedFormError):
        psi_norm_analytic(DistributionSpec.weibull(2.0, 1.0), 1.0)


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize(
    "spec, p, expected",
    [
        (EXP, 1.0, 2.0),
        (DistributionSpec.pnormal(2.0), 2.0, math.sqrt(8.0 / 3.0)),
        (DistributionSpec.weibull(1.5, 1.0), 1.5, 2.0 ** (1.0 / 1.5)),
    ],
)
def test_quadrature_matches_closed_form_tightly(spec, p, expected):
    result = psi_norm_quadrature(spec, p, tol=1e-8)
    assert result.value == pytest.approx(expected, abs=2e-8)
    lo, hi = result.bracket
    assert lo <= result.value <= hi
    assert hi - lo <= 1e-8
    assert result.residual <= 1e-6
    assert result.method == "quadrature"


def test_quadrature_divergent_norm():
    # the unit exponential has no finite order-2 norm
    with pytest.raises(DivergenceError):
        psi_norm_quadrature(EXP, 2.0)


# Ten laws by seven orders: 46 finite norms, of which 10 sit at the family's
# own order, where phi is infinite up to K = scale, and 24 divergent ones.
_GRID_LAWS = {
    "exp": EXP,
    "weibull(1.5)": DistributionSpec.weibull(1.5),
    "weibull(2)": DistributionSpec.weibull(2.0),
    "weibull(2.5,1.5)": DistributionSpec.weibull(2.5, 1.5),
    "weibull(3)": DistributionSpec.weibull(3.0),
    "pnormal(2)": DistributionSpec.pnormal(2.0),
    "pnormal(3)": DistributionSpec.pnormal(3.0),
    "pnormal(4)": DistributionSpec.pnormal(4.0),
    "halfgauss_pow(2,0.5)": DistributionSpec.halfgauss_pow(2.0, 0.5),
    "halfgauss_pow(2.5)": DistributionSpec.halfgauss_pow(2.5),
}
_GRID_ORDERS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except DivergenceError as exc:
        return type(exc), str(exc)


def _quadrature_reference(spec, p, tol, center=0.0):
    """The plain bisection on the real exponential moment, or its error."""
    law = canonical(spec)
    return _outcome(
        orlicz._bisect_norm, lambda K: orlicz.exp_moment(law, p, K, center), 1e-6, p, tol,
        orlicz.METHOD_QUADRATURE, orlicz.QUADRATURE_K_MAX,
    )


def _reference_norm(mpmath_norm, spec, p, guess, center=0.0):
    """The norm's closed form at the family's own order, else its mpmath root."""
    if p == spec.order and center == 0.0:
        return psi_norm_analytic(spec, p).value
    return mpmath_norm(canonical(spec), p, guess, center)


def _check_located(spec, p, tol, result, reference, center=0.0):
    """``result`` is ``reference`` to 1e-12 relative, on a bracket the bisection would decide.

    Its value is the bracket's top, where phi is at most 2, and phi is above
    2 at its bottom; the bracket is at most tol or 1e-12 relative wide.
    """
    law = canonical(spec)
    lo, hi = result.bracket
    assert result.value == hi == pytest.approx(reference, rel=1e-12, abs=0.0)
    assert hi - lo <= max(tol, 1e-12 * hi) * (1.0 + 1e-9)
    assert exp_moment(law, p, hi, center) <= 2.0 < exp_moment(law, p, lo, center)
    assert result.residual <= 1e-10
    assert result.method == "quadrature"


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("law", list(_GRID_LAWS))
def test_quadrature_norm_is_the_bisection_bit_for_bit(law, tol, mpmath_norm):
    # every finite norm is its reference on a bracket the bisection decides;
    # a divergent one raises, naming its ceiling in units of the law's scale
    spec = _GRID_LAWS[law]
    ceiling = spec.scale * orlicz.QUADRATURE_K_MAX
    for p in _GRID_ORDERS:
        if exp_moment(canonical(spec), p, ceiling) > 2.0:
            message = f"exponential moment stays above 2 for every K up to {ceiling:g}"
            assert _outcome(psi_norm_quadrature, spec, p, tol) == (DivergenceError, message)
            continue
        result = psi_norm_quadrature(spec, p, tol)
        _check_located(spec, p, tol, result, _reference_norm(mpmath_norm, spec, p, result.value))


_POLISHED = [
    (DistributionSpec.weibull(2.0), 1.5),
    (DistributionSpec.weibull(2.5, 1.5), 2.0),
    (DistributionSpec.pnormal(2.0), 1.5),
]


@pytest.mark.parametrize(
    "spec, p, tol",
    [(spec, p, 1e-6) for spec, p in _POLISHED]
    + [(EXP, 1.0, 1e-8)]  # the root lies next to the dyadic probe K = 2
    + [(spec, spec.order, 1e-8) for spec in _GRID_LAWS.values()],
)
def test_quadrature_norm_is_certified_without_a_bisection(bisected_rows, mpmath_norm, spec, p, tol):
    # the located bracket is the answer: no bisection from the floor runs
    bisected_rows[0] = 0
    result = psi_norm_quadrature(spec, p, tol)
    assert bisected_rows[0] == 0
    _check_located(spec, p, tol, result, _reference_norm(mpmath_norm, spec, p, result.value))


def test_certified_cases_cover_polish_and_infinite_phi():
    # at the family's own order the exponential moment diverges at K = scale
    for spec in _GRID_LAWS.values():
        assert exp_moment(canonical(spec), spec.order, spec.scale) == math.inf


@pytest.mark.parametrize(
    "spec, p",
    [(EXP, 1.0), (DistributionSpec.weibull(1.5), 1.0), (DistributionSpec.weibull(2.5, 1.5), 2.0)],
)
def test_centered_quadrature_norm_is_the_bisection(mpmath_norm, spec, p):
    lhs, rhs = centering_bound_check(spec, p)
    center = mean(spec)
    result = psi_norm_quadrature_canonical(canonical(spec), p, center=center)
    assert lhs == result.value
    _check_located(spec, p, orlicz.DEFAULT_TOL, result,
                   mpmath_norm(canonical(spec), p, lhs, center), center)
    assert rhs == pytest.approx(2.0 * _reference_norm(mpmath_norm, spec, p, rhs / 2.0),
                                rel=1e-12, abs=0.0)


def test_quadrature_divergence_raises_like_the_bisection():
    message = "exponential moment stays above 2 for every K up to 1e+09"
    assert _outcome(psi_norm_quadrature, EXP, 2.0, 1e-8) == (DivergenceError, message)


@pytest.mark.parametrize("factor", [1.0 + 1e-3, 1.0 - 1e-3])
def test_quadrature_falls_back_when_the_located_root_is_off(
    monkeypatch, bisected_rows, mpmath_norm, factor
):
    # phi at a pushed bracket's ends does not straddle 2: it is bisected from
    # the floor, here to a tol that leaves it within 1e-12 of the reference
    locate = orlicz._locate_root

    def pushed(*args):
        a, b = locate(*args)
        return factor * a, factor * b

    monkeypatch.setattr(orlicz, "_locate_root", pushed)
    for spec, p in [(DistributionSpec.pnormal(3.0), 2.0), *_POLISHED]:
        bisected_rows[0] = 0
        result = psi_norm_quadrature(spec, p, 1e-13)
        assert bisected_rows[0] == 1
        _check_located(spec, p, 1e-13, result,
                       _reference_norm(mpmath_norm, spec, p, result.value))


def test_quadrature_certifies_a_wide_but_right_located_bracket(
    monkeypatch, bisected_rows, mpmath_norm
):
    # a widened bracket still straddles the root, so it is taken and bisected
    # on down to tol, with no bisection from the floor
    locate = orlicz._locate_root
    widths = []

    def widened(*args):
        a, b = locate(*args)
        widths.append(1.1 * b - 0.9 * a)
        return 0.9 * a, 1.1 * b

    monkeypatch.setattr(orlicz, "_locate_root", widened)
    for spec, p in [(EXP, 1.0), (DistributionSpec.pnormal(3.0), 2.0), *_POLISHED]:
        bisected_rows[0] = 0
        result = psi_norm_quadrature(spec, p, 1e-13)
        assert bisected_rows[0] == 0
        assert widths[-1] > 0.1
        _check_located(spec, p, 1e-13, result,
                       _reference_norm(mpmath_norm, spec, p, result.value))


def test_locate_root_keeps_an_end_where_g_is_exactly_zero():
    # g = 0 exactly on [1.5, inf): the secant keeps landing on the b side, and
    # the Anderson-Bjorck weight of an end at g = 0 is a halving, not 0 / 0
    g = lambda K: 1.5 - K if K < 1.5 else 0.0
    a, b = orlicz._locate_root(g, 1e-6, 1e9)
    assert g(a) > 0.0 >= g(b) and a < 1.5 <= b


@pytest.mark.parametrize(
    "root, dip",
    [
        (6e-5, None),  # located root 3e-5 too low: 5e-5 is decided at most 2, phi says 2.4
    ],
)
def test_certificate_checks_the_points_inside_the_bracket(bisected_rows, root, dip):
    # phi = 2 root / K, located at 3e-5 below tol = 1e-4: the floor's last
    # halving 5e-5, asked before the bracket, is its hi, where phi is checked
    def phi_at(K):
        return dip if K == 5e-5 and dip is not None else 2.0 * root / K

    def phi(K, rows):
        return np.array([phi_at(k) for k in K.tolist()])

    expected = orlicz._bisect_norm(
        phi_at, 1e-4, 1.0, 1e-4, orlicz.METHOD_EMPIRICAL, orlicz._EMPIRICAL_K_MAX
    )
    bisected_rows[0] = 0
    (result,) = orlicz._located_bisection(phi, [3e-5], [1e-4], 1.0, 1e-4)
    assert result == expected
    assert bisected_rows[0] == 1


def test_quadrature_norm_takes_few_exponential_moments(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return exp_moment(*args)

    monkeypatch.setattr(orlicz, "exp_moment", counted)
    spec = DistributionSpec.pnormal(3.0)
    psi_norm_quadrature(spec, 2.0, 1e-8)
    located = len(calls)
    _quadrature_reference(spec, 2.0, 1e-8)
    assert located <= 16
    assert len(calls) - located == 30  # the plain bisection


def test_quadrature_order_below_family_order():
    # finite for every K once the growth exponent is subcritical
    got = psi_norm_quadrature(EXP, 0.5).value
    # oracle: E exp((x/K)^{1/2}) = 2 solved by direct root bracketing on the
    # closed-form series is unavailable; check the defining property instead
    law = canonical(EXP)
    assert exp_moment(law, 0.5, got) == pytest.approx(2.0, abs=1e-5)
    assert exp_moment(law, 0.5, 1.2 * got) < 2.0
    assert exp_moment(law, 0.5, 0.8 * got) > 2.0


def test_exp_moment_monotone_in_k():
    law = canonical(DistributionSpec.pnormal(3.0))
    ks = np.linspace(1.1, 6.0, 25)
    vals = [exp_moment(law, 3.0, float(k)) for k in ks]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_exp_moment_divergence_detection():
    law = canonical(EXP)
    assert exp_moment(law, 1.0, 1.0) == math.inf
    assert exp_moment(law, 1.0, 0.5) == math.inf
    assert exp_moment(law, 1.0, 1.5) == pytest.approx(3.0, rel=1e-9)
    assert exp_moment(law, 2.0, 10.0) == math.inf  # supercritical growth
    # supercritical growth where (scale/K)**p underflows to 0: r alone decides
    for spec, p, K in [
        (DistributionSpec.halfgauss_pow(2.0, 1e-100), 3.0, 1e9),
        (DistributionSpec.weibull(1.0, 1e-200), 2.0, 1.0),
        (DistributionSpec.weibull(2.0, 1e-160), 3.0, 1.0),
    ]:
        assert exp_moment(canonical(spec), p, K) == math.inf


def test_exp_moment_where_its_powers_overflow():
    # (scale/K)**p above the largest double: above 2 for every law
    assert exp_moment(canonical(DistributionSpec.weibull(2.0, 1e200)), 2.0, 1e-6) == math.inf
    # K**-p overflows: the moment is taken in units of K, where it is E exp(B/2) = 2
    law = canonical(DistributionSpec.weibull(2.0, 1e-160))
    assert exp_moment(law, 2.0, math.sqrt(2.0) * 1e-160) == pytest.approx(2.0, rel=1e-9)
    # the integrand's y**p overflows: it takes its cap there
    for spec in (DistributionSpec.weibull(5.0, 1e80), DistributionSpec.halfgauss_pow(5.0, 1e80)):
        assert exp_moment(canonical(spec), 4.0, 1e9) > 2.0


def test_exp_moment_where_k_to_the_minus_p_leaves_the_normal_floats():
    # in units of K this is E exp(B**0.8), whatever the scale
    unit = exp_moment(canonical(DistributionSpec.weibull(5.0, 1.0)), 4.0, 1.0)
    assert unit == 3.935490806420585
    # K**-p = 1e-320 is subnormal, and 1e-400 underflows to exactly 0
    for scale in (1e80, 1e100):
        assert 0.0 <= scale**-4.0 < sys.float_info.min
        assert exp_moment(canonical(DistributionSpec.weibull(5.0, scale)), 4.0, scale) == unit
    assert 1e100**-4.0 == 0.0


def _exp_moment_by_the_method_integrand(law, p, K, center):
    """exp_moment with the integrand written as it reads: y**p / K**p + law.log_base_pdf(x)."""
    a = (law.scale / K) ** p
    r = law.exponent(p)
    if not law.exp_moment_converges(a, r):
        return math.inf
    e, c, inv_kp = law.e, law.scale, K**-p
    boundary = 1.0 if law.k == 1.0 else 2.0

    def integrand(x):
        y = c * x**e - center
        y = -y if y < 0.0 else y
        if math.isinf(y):
            return 0.0 if r < boundary - 1e-9 else math.exp(708.0)
        val = y**p * inv_kp + law.log_base_pdf(x)
        if val > 708.0:
            return math.exp(708.0)
        return math.exp(val)

    breakpoints = ((center / c) ** (1.0 / e),) if center > 0.0 else ()
    return improper_integral(integrand, breakpoints=breakpoints)


@pytest.mark.parametrize(
    "spec",
    [
        EXP,
        DistributionSpec.weibull(3.0, 2.0),
        DistributionSpec.pnormal(3.0),
        DistributionSpec.halfgauss_pow(4.0, 0.5),
    ],
    ids=lambda spec: spec.family,
)
@pytest.mark.parametrize("center", [0.0, 0.7])
def test_exp_moment_has_the_bits_of_the_method_integrand(spec, center):
    law = canonical(spec)
    for p in (0.5, 1.0, 2.0, 3.0):
        for K in (0.8, 2.0, 5.0):
            got = exp_moment(law, p, K, center)
            assert got == _exp_moment_by_the_method_integrand(law, p, K, center), (p, K)


def test_scaling_homogeneity():
    # norm(c X) = c norm(X): scale families realize c X exactly
    base = psi_norm_quadrature(DistributionSpec.weibull(1.5, 1.0), 1.5).value
    scaled = psi_norm_quadrature(DistributionSpec.weibull(1.5, 2.5), 1.5).value
    assert scaled == pytest.approx(2.5 * base, rel=2e-6)
    base = psi_norm_quadrature(DistributionSpec.halfgauss_pow(2.0, 1.0), 2.0).value
    scaled = psi_norm_quadrature(DistributionSpec.halfgauss_pow(2.0, 0.5), 2.0).value
    assert scaled == pytest.approx(0.5 * base, rel=2e-6)


@pytest.mark.parametrize(
    "spec, p",
    [(DistributionSpec.weibull(1.5), 1.0), (DistributionSpec.halfgauss_pow(2.5), 2.0),
     (DistributionSpec.weibull(0.5), 0.5)],
    ids=["weibull(1.5) p=1", "halfgauss_pow(2.5) p=2", "weibull(0.5) p=0.5"],
)
def test_quadrature_norm_commutes_with_powers_of_two(spec, p):
    # tol and the ceiling are in units of the scale, so scaling by 2**k
    # scales every float of the search exactly
    unit = psi_norm_quadrature(spec, p)
    for k in range(-300, 301, 20):
        a = 2.0**k
        got = psi_norm_quadrature(DistributionSpec(spec.family, spec.shape, a), p)
        assert (got.value, got.bracket) == (a * unit.value, tuple(a * b for b in unit.bracket)), k
        assert got.residual == unit.residual


def test_quasinorm_small_p_homogeneity_and_definiteness():
    p = 0.5
    got = psi_norm_quadrature(DistributionSpec.weibull(p, 1.0), p).value
    assert got == pytest.approx(4.0, rel=1e-6)  # scale * 2**(1/p)
    assert got > 0.0
    scaled = psi_norm_quadrature(DistributionSpec.weibull(p, 3.0), p).value
    assert scaled == pytest.approx(3.0 * got, rel=2e-6)


# ---------------------------------------------------------------------------
# empirical


def test_empirical_degenerate_zero_samples():
    result = psi_norm_empirical(np.zeros(500), 1.0, tol=1e-6)
    assert result.value <= 1e-6
    assert result.bracket[0] <= result.value <= result.bracket[1]


def test_empirical_requires_samples():
    with pytest.raises(InsufficientSamplesError):
        psi_norm_empirical(np.ones(50), 1.0)


def test_empirical_rejects_nonfinite():
    bad = np.ones(200)
    bad[3] = math.inf
    with pytest.raises(ParameterError):
        psi_norm_empirical(bad, 1.0)


def test_empirical_exp_matches_quadrature():
    draws = sample(EXP, RandomStream(31, 0), 1_000_000)
    got = psi_norm_empirical(draws, 1.0).value
    oracle = psi_norm_quadrature(EXP, 1.0).value
    assert abs(got - oracle) <= 0.05


# off the closed-form table: (spec, order)
_OFF_TABLE = {
    "weibull(1.5) p=1": (DistributionSpec.weibull(1.5, 1.0), 1.0),
    "pnormal(3) p=2": (DistributionSpec.pnormal(3.0), 2.0),
    "exp p=0.5": (EXP, 0.5),
}


@pytest.mark.parametrize("name", list(_OFF_TABLE))
def test_empirical_norm_approaches_the_quadrature_norm(mpmath_norm, name):
    spec, p = _OFF_TABLE[name]
    quadrature = psi_norm_quadrature(spec, p, tol=1e-8).value
    reference = mpmath_norm(canonical(spec), p, quadrature)
    assert quadrature == pytest.approx(reference, rel=1e-12)
    draws = sample(spec, RandomStream(20_240_817, 0), 1_000_000)
    assert psi_norm_empirical(draws, p).value == pytest.approx(reference, rel=1e-2)


def test_empirical_pnormal3_matches_analytic():
    spec = DistributionSpec.pnormal(3.0)
    draws = sample(spec, RandomStream(31, 1), 1_000_000)
    got = psi_norm_empirical(draws, 3.0).value
    assert abs(got - (8.0 / 3.0) ** (1.0 / 3.0)) <= 0.05


def _empirical_reference(samples, p, tol):
    """The sample norm one row at a time, bisected with Python floats."""
    a = np.abs(np.asarray(samples, dtype=float))
    n = a.size
    top = float(a.max())
    if top == 0.0:
        return OrliczNormResult(0.0, p, "empirical", (0.0, tol), 1.0)
    phi = lambda K: float(np.mean(np.exp(np.minimum((a / K) ** p, 708.0))))
    lo = max(tol, top / math.log(2.0 * n) ** (1.0 / p))
    f_lo = phi(lo)
    shrunk = f_lo <= 2.0
    while f_lo <= 2.0:
        lo *= 0.5
        f_lo = phi(lo)
    # after a shrink, hi is the last halving
    hi = 2.0 * lo if shrunk else max(2.0 * lo, 1.0)
    while phi(hi) > 2.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if phi(mid) <= 2.0:
            hi = mid
        else:
            lo = mid
    return OrliczNormResult(hi, p, "empirical", (lo, hi), abs(phi(hi) - 2.0))


def _bootstrap_like_rows():
    draws = np.abs(sample(EXP, RandomStream(3, 0), 1_000))
    rows = np.stack([draws[RandomStream(3, 1 + r).generator().integers(0, 1_000, 1_000)]
                     for r in range(5)])
    rows[1] = 0.0
    rows[2] *= 1e-9  # the floor at tol overshoots: the shrink path
    rows[3] = 1e6  # equal samples: the bracket expands
    return rows


def _resampled_deviations(spec, n, p, trials):
    """60 bootstrap resamples of a plan's deviations, indexed as ``bootstrap_interval`` does."""
    devs = deviations(ExperimentPlan(VectorModel(spec, n, p), trials, 11))
    return np.stack([
        devs[RandomStream(11, BOOTSTRAP_STREAM_BASE + r).generator().integers(0, trials, trials)]
        for r in range(60)
    ])


def _tiled_edge_rows():
    """The edge rows repeated four times, 20 rows in one call."""
    return np.tile(_bootstrap_like_rows(), (4, 1))


_EMPIRICAL_ROWS = {
    "edge_cases": _bootstrap_like_rows,
    "edge_cases_tiled": _tiled_edge_rows,
    "exp_n16": lambda: _resampled_deviations(EXP, 16, 1.0, 20_000),
    "pnormal3_n256": lambda: _resampled_deviations(DistributionSpec.pnormal(3.0), 256, 3.0, 1_000),
}


@functools.cache
def _empirical_rows(name):
    return _EMPIRICAL_ROWS[name]()


@pytest.mark.parametrize("rows_name", list(_EMPIRICAL_ROWS))
@pytest.mark.parametrize("tol", [1e-4, 1e-6])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_empirical_rows_match_single_rows(p, tol, rows_name):
    rows = _empirical_rows(rows_name)
    results = psi_norm_empirical(rows, p, tol)
    assert len(results) == len(rows)
    for row, result in zip(rows, results):
        assert result == psi_norm_empirical(row, p, tol)
        assert result == _empirical_reference(row, p, tol)
    # a prefix of the rows gives the prefix of the results
    short = rows[:15]
    assert psi_norm_empirical(short, p, tol) == results[: len(short)]
    if rows_name.startswith("edge_cases"):
        assert results[1].value == 0.0


@pytest.fixture
def bisected_rows(monkeypatch):
    """Count the norms bisected on the real phi: one ``_bisect_norm`` call each."""
    count = [0]
    bisect = orlicz._bisect_norm

    def counted(*args):
        count[0] += 1
        return bisect(*args)

    monkeypatch.setattr(orlicz, "_bisect_norm", counted)
    return count


@pytest.mark.parametrize("factor", [1.0 + 1e-3, 10.0, math.inf])
def test_empirical_falls_back_when_the_located_root_is_off(monkeypatch, bisected_rows, factor):
    locate = orlicz._newton_roots
    monkeypatch.setattr(orlicz, "_newton_roots", lambda *args: factor * locate(*args))
    for rows in (_empirical_rows("edge_cases"), _empirical_rows("exp_n16")[:6]):
        results = psi_norm_empirical(rows, 1.0, 1e-4)
        for row, result in zip(rows, results):
            assert result == _empirical_reference(row, 1.0, 1e-4)
    assert bisected_rows[0] >= 6


def test_empirical_certificate_checks_the_points_inside_the_bracket(monkeypatch, bisected_rows):
    # on the shrink path a root placed on the last halving below the true one
    # ends the replay with lo on the located root; phi is above 2 there and
    # at most 2 at the halving before, so the certificate takes it
    tol = 1e-4
    locate = orlicz._newton_roots

    def on_a_halving(*args):
        (root,) = locate(*args)
        halving = tol
        while halving >= root:
            halving *= 0.5
        return np.array([halving])

    monkeypatch.setattr(orlicz, "_newton_roots", on_a_halving)
    row = _bootstrap_like_rows()[2]
    assert psi_norm_empirical(row, 1.0, tol) == _empirical_reference(row, 1.0, tol)
    assert bisected_rows[0] == 0


def test_empirical_divergent_row_raises_like_the_bisection(bisected_rows):
    message = "exponential moment stays above 2 for every K up to 1e+18"
    rows = _bootstrap_like_rows()
    rows[4] = 1e18  # the norm, 1e18 / log 2, is past the ceiling
    # alone among the edge rows, then tiled to 20 rows
    for copies in (1, 4):
        bisected_rows[0] = 0
        with pytest.raises(DivergenceError) as raised:
            psi_norm_empirical(np.tile(rows, (copies, 1)), 1.0, 1e-4)
        assert str(raised.value) == message
        assert bisected_rows[0] == 1  # only the first divergent row is bisected on phi


@pytest.mark.parametrize("tol", [1e-4, 1e-6])
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_empirical_norm_past_the_ceiling_raises_on_the_first_bracket(p, tol):
    # the spike's floor is just below its norm, so the first hi is already
    # past 1e18 and no doubling happens: the ceiling is checked before it
    with pytest.raises(DivergenceError) as flat:
        psi_norm_empirical(np.full(1000, 1e300), p, tol)
    with pytest.raises(DivergenceError) as spike:
        psi_norm_empirical(np.r_[1e300, np.zeros(999)], p, tol)
    assert str(spike.value) == str(flat.value)


def test_empirical_norm_of_tiny_samples_is_not_zero():
    # the floor halves down to the smallest normal double, 2**-1022, before
    # the search reports the zero norm; after a shrink the bracket is the
    # floor's last two halvings
    result = psi_norm_empirical(np.full(1000, 1e-305), 1.0, 1e-4)
    lo, hi = result.bracket
    assert 0.0 < lo < 1e-305 / math.log(2.0) <= hi == result.value == 2.0 * lo
    # a norm below 2**-1022 still reads 0
    assert psi_norm_empirical(np.full(1000, 1e-310), 1.0, 1e-4).value == 0.0


def test_quadrature_norm_of_a_tiny_scale_is_not_zero():
    unit = psi_norm_quadrature(DistributionSpec.weibull(1.5), 1.0).value
    tiny = psi_norm_quadrature(DistributionSpec.weibull(1.5, 1e-305), 1.0).value
    assert tiny == pytest.approx(1e-305 * unit, rel=1e-5, abs=0.0)


def test_empirical_rejects_an_infinite_tol():
    # the search would start at a floor of inf, and halving inf gives inf
    with pytest.raises(ParameterError, match="^tol must be finite and > 0, got inf$"):
        psi_norm_empirical(np.ones(200), 1.0, math.inf)


def test_empirical_rows_reject_like_single_rows():
    with pytest.raises(InsufficientSamplesError):
        psi_norm_empirical(np.ones((3, 50)), 1.0)
    bad = np.ones((3, 200))
    bad[2, 7] = math.nan
    with pytest.raises(ParameterError):
        psi_norm_empirical(bad, 1.0)
    with pytest.raises(ParameterError):
        psi_norm_empirical(np.ones((3, 200)), 1.0, tol=0.0)
    with pytest.raises(ParameterError):
        psi_norm_empirical(np.ones((3, 200)), 0.0)


def _plain_newton_roots(rows, p):
    """Each live row's root by Newton one row at a time, from log(2n) to a 1e-13 step."""
    roots = []
    for row in rows:
        top = float(row.max())
        if top == 0.0:
            continue
        y = (row / top) ** p
        s = math.log(2.0 * len(row))
        for _ in range(200):
            e = np.exp(s * y)
            step = math.log(np.mean(e) / 2.0) * np.sum(e) / np.sum(y * e)
            s -= step
            if abs(step) <= 1e-13 * s:
                break
        else:
            raise AssertionError("plain Newton did not converge")
        roots.append(top * s ** (-1.0 / p))
    return np.array(roots)


@pytest.mark.parametrize("rows_name", list(_EMPIRICAL_ROWS))
@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
def test_newton_roots_are_exact_and_every_row_certified(p, rows_name, bisected_rows):
    rows = np.abs(_empirical_rows(rows_name))
    top = rows.max(axis=1)
    live = top > 0.0
    roots = orlicz._newton_roots(rows[live], top[live], p)
    np.testing.assert_allclose(roots, _plain_newton_roots(rows, p), rtol=1e-10, atol=0.0)
    for tol in (1e-4, 1e-6):
        psi_norm_empirical(rows, p, tol)
    assert bisected_rows[0] == 0


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(100, 3000),
    kind=st.sampled_from(["equal", "spike", "mixed", "spread"]),
    p=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_newton_start_is_at_or_past_the_root(n, kind, p, seed):
    rng = np.random.default_rng(seed)
    if kind == "equal":
        x = np.full(n, 10.0 ** rng.uniform(-300, 300))
    elif kind == "spike":
        x = np.zeros(n)
        x[rng.integers(n)] = 10.0 ** rng.uniform(-300, 300)
    elif kind == "mixed":
        x = rng.choice([0.0, 1e-300, 1.0, 1e300], n)
        x[rng.integers(n)] = 1e300
    else:
        x = rng.exponential(size=n) * 10.0 ** rng.uniform(-300, 300, n)
    y = (x / x.max()) ** p
    (s,) = orlicz._newton_start(y[None, :])
    assert s <= math.log(2.0 * n)
    assert np.mean(np.exp(s * y)) >= 2.0 * (1.0 - 1e-12)


class _ExpCounter:
    """numpy as ``orlicz`` sees it, counting its ``exp`` calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.calls += 1
        return np.exp(*args, **kwargs)


def test_empirical_norm_takes_few_exponential_passes(monkeypatch):
    counter = _ExpCounter()
    monkeypatch.setattr(orlicz, "np", counter)
    psi_norm_empirical(_empirical_rows("exp_n16"), 1.0, 1e-4)
    # 4 Newton passes and 1 certificate pass
    assert counter.calls <= 5


def test_empirical_norm_at_p2_takes_few_exponential_passes(monkeypatch):
    rows = _resampled_deviations(DistributionSpec.pnormal(2.0), 256, 2.0, 1_000)
    counter = _ExpCounter()
    monkeypatch.setattr(orlicz, "np", counter)
    psi_norm_empirical(rows, 2.0, 1e-4)
    # 5 Newton passes and 1 certificate pass; 6 and 1 from the Jensen start
    assert counter.calls <= 6


def _gathered_tables_are_sample_phi():
    """Per case, whether the mean of a gathered table of terms is Phi of the gathered sample.

    Both sides as the code forms them: the sample's Phi gathers first and
    divides by a column of K, as ``psi_norm_empirical`` does; the table is
    one row's terms at a scalar K, gathered after.  Rows of 100, 1001 and
    20 000 exponentials, p = 1, 2, 3, at K near the norm and at a K where
    the 708 cap binds.  Also returns how many cases had capped terms.
    """
    import numpy as np

    from subweibull.orlicz import _EXP_CAP, _exp_terms

    rng = np.random.default_rng(33)
    same, capped = [], 0
    for length in (100, 1001, 20_000):
        x = rng.exponential(size=length)
        idx = rng.integers(0, length, (7, length), dtype=np.int32)
        for p in (1.0, 2.0, 3.0):
            # at the second K only the largest value passes the cap
            for K in (1.3, float(x.max()) / (_EXP_CAP + 1.0) ** (1.0 / p)):
                table = _exp_terms(x.copy(), K, p)
                capped += bool(np.any(table == np.exp(_EXP_CAP)))
                gathered = np.add.reduce(np.take(table, idx), axis=1) / length
                phi = np.add.reduce(_exp_terms(x[idx], np.full(7, K)[:, None], p), axis=1)
                same.append(gathered.tobytes() == (phi / length).tobytes())
    return same, capped


def test_gathered_tables_are_the_sample_phi_bit_for_bit():
    same, capped = _gathered_tables_are_sample_phi()
    assert same == [True] * 18
    assert capped == 9


def test_gathered_tables_are_the_sample_phi_without_avx512(without_avx512):
    assert without_avx512(_gathered_tables_are_sample_phi) == [[True] * 18, 9]


def _stand_in(root, asked):
    """A phi above 2 exactly at or below ``root``, appending each K it is asked for to ``asked``."""
    return lambda K: asked.append(K) or (math.inf if K <= root else 1.0)


def _asked_points(lo_start, root, tol):
    """Every K the bisection of ``_stand_in(root)`` asks for."""
    asked = []
    with contextlib.suppress(DivergenceError):
        orlicz._bisect_norm(
            _stand_in(root, asked), lo_start, 1.0, tol, orlicz.METHOD_EMPIRICAL,
            orlicz._EMPIRICAL_K_MAX,
        )
    return asked


def _stand_in_bisection(lo_start, root, tol):
    """``_bisect_norm`` of ``_stand_in(root)``: its bracket, or None if it diverges or ends at 0."""
    try:
        result = orlicz._bisect_norm(
            _stand_in(root, []), lo_start, 1.0, tol, orlicz.METHOD_EMPIRICAL,
            orlicz._EMPIRICAL_K_MAX,
        )
    except DivergenceError:
        return None
    return None if result.value == 0.0 else result.bracket


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.floats(-320.0, 20.0), st.floats(290.0, 300.0)),
            st.one_of(st.floats(-320.0, 21.0), st.floats(17.0, 21.0)),
            st.sampled_from(["free", "floor", "asked"]), st.integers(0, 200),
        ),
        min_size=1, max_size=8,
    ),
    log_tol=st.one_of(st.floats(-12.0, 6.0), st.floats(-320.0, -290.0)),
)
@example(rows=[(300.0, -3.0, "free", 0)], log_tol=-12.0)  # 1007 halvings
@example(rows=[(-4.0, -310.0, "free", 0)], log_tol=-4.0)  # the zero norm
@example(rows=[(0.0, 18.5, "free", 0)], log_tol=5.0)  # the ceiling
def test_replay_is_the_bisection_on_the_stand_in(rows, log_tol):
    # floors from 1e-320 to 1e300 and roots from 1e-320 to 1e21 take the
    # shrink path, its long runs, the zero norm, the expansion and the
    # ceiling at 1e18, which only a tol above the spacing of doubles there
    # can reach; "floor" and "asked" put the root on the floor or on a
    # halving, doubling or midpoint the search asks for
    tol = max(10.0**log_tol, 5e-324)
    for log_lo, log_root, kind, pick in rows:
        lo, root = max(10.0**log_lo, 5e-324), max(10.0**log_root, 5e-324)
        if kind == "floor":
            root = lo
        elif kind == "asked":
            asked = _asked_points(lo, root, tol)
            root = asked[pick % len(asked)]
        assert orlicz._replay(lo, root, tol) == _stand_in_bisection(lo, root, tol)


@settings(max_examples=300, deadline=None)
@given(
    log_lo=st.one_of(st.floats(-320.0, 20.0), st.floats(290.0, 300.0)),
    log_root=st.one_of(st.floats(-320.0, 21.0), st.floats(17.0, 21.0)),
    log_tol=st.one_of(st.floats(-12.0, 6.0), st.floats(-320.0, -290.0)),
)
@example(log_lo=-4.0, log_root=-6.0, log_tol=-12.0)  # the shrink path
@example(log_lo=300.0, log_root=-3.0, log_tol=-12.0)  # the shrink cap
@example(log_lo=299.1, log_root=299.2, log_tol=-4.0)  # a first hi past the ceiling
def test_bisection_asks_for_no_point_inside_its_final_bracket(log_lo, log_root, log_tol):
    # what lets two real phi values certify a replay: every asked K is at or
    # below the final lo or at or above the final hi
    lo_start, root, tol = (max(10.0**x, 5e-324) for x in (log_lo, log_root, log_tol))
    asked = []
    with contextlib.suppress(DivergenceError):
        result = orlicz._bisect_norm(
            lambda K: asked.append(K) or (math.inf if K < root else 1.0), lo_start, 1.0, tol,
            orlicz.METHOD_EMPIRICAL, orlicz._EMPIRICAL_K_MAX,
        )
        # the zero norm's bracket is (0, floor), and no replay takes it
        if result.value > 0.0:
            lo, hi = result.bracket
            assert [K for K in asked if lo < K < hi] == []
        assert result.value <= orlicz._EMPIRICAL_K_MAX


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 117, 239])
@pytest.mark.parametrize("two_d", [False, True])
def test_empirical_rejects_every_nonfinite_sample(bad, where, two_d):
    samples = np.ones((3, 240)) if two_d else np.ones(240)
    (samples[1] if two_d else samples)[where] = bad
    with pytest.raises(ParameterError, match="^samples must be finite$"):
        psi_norm_empirical(samples, 1.0)
    short = samples[..., :50].copy()
    (short[1] if two_d else short)[0] = bad
    with pytest.raises(InsufficientSamplesError):
        psi_norm_empirical(short, 1.0)


def test_bisect_norm_finds_the_root():
    # phi = 4 (1 + r) / K drops to 2 at K = 2 (1 + r); floors below the root
    # take the expansion path, the floor 5 above the root 4 the shrink path
    for r, lo_start in enumerate([0.3, 5.0, 0.7]):
        phi = lambda K: 4.0 * (1 + r) / K
        result = orlicz._bisect_norm(phi, lo_start, 1.0, 1e-9, "t", 1e9)
        assert result.value == pytest.approx(2.0 * (1 + r), rel=1e-8)
        lo, hi = result.bracket
        assert lo < 2.0 * (1 + r) <= hi == result.value and hi - lo <= 1e-9
        assert result.residual == abs(phi(hi) - 2.0)


def test_bisection_stops_at_adjacent_doubles():
    # the root 2 is met from below, and at (2 - 2**-52, 2) the midpoint
    # rounds to 2: two bracket probes and 52 halvings, not all 200
    asked = []

    def phi(K):
        asked.append(K)
        return 4.0 / K

    result = orlicz._bisect_norm(phi, 1.0, 1.0, 5e-324, "t", 1e9)
    assert result.bracket == (2.0 - 2.0**-52, 2.0)
    assert len(asked) == 54
    assert orlicz._replay(1.0, 2.0 - 2.0**-52, 5e-324) == result.bracket


@pytest.mark.parametrize(
    "bad_phi, error",
    [
        (lambda K: 3.0, DivergenceError),  # never drops to 2
        (lambda K: 5.0 if 1.0 < K < 2.0 else (2.5 if K <= 1.0 else 1.0), VerificationError),
    ],
)
def test_bisect_norm_raises(bad_phi, error):
    with pytest.raises(error):
        orlicz._bisect_norm(bad_phi, 1.0, 1.0, 1e-6, "t", 1e9)


def test_empirical_monotone_mean_exp():
    draws = np.abs(sample(DistributionSpec.pnormal(2.0), RandomStream(4, 0), 5_000))
    phis = []
    for K in (0.8, 1.2, 2.0, 4.0):
        phis.append(float(np.mean(np.exp((draws / K) ** 2))))
    assert all(a > b for a, b in zip(phis, phis[1:]))


# ---------------------------------------------------------------------------
# power identity


def test_power_identity_pnormal_square():
    lhs, rhs = power_norm_identity(DistributionSpec.pnormal(2.0), 2.0, 1.0)
    assert lhs == pytest.approx(8.0 / 3.0, abs=1e-5)
    assert rhs == pytest.approx(8.0 / 3.0, abs=1e-5)
    assert abs(lhs - rhs) <= 1e-5


def test_power_identity_trivial_transform():
    lhs, rhs = power_norm_identity(DistributionSpec.weibull(1.0, 1.0), 1.0, 1.0)
    assert abs(lhs - rhs) <= 1e-5
    assert lhs == pytest.approx(2.0, abs=1e-5)


def test_power_identity_exp_square_half_order():
    # rhs = (order-1 norm of exp)^2 = 4; lhs computed on the pushforward law
    lhs, rhs = power_norm_identity(EXP, 2.0, 0.5)
    assert rhs == pytest.approx(4.0, abs=1e-5)
    assert abs(lhs - rhs) <= 1e-5


# ---------------------------------------------------------------------------
# equivalence constants


def test_equivalence_exp():
    M = check_equivalence(EXP, 1.0, 2.0)
    # at alpha = 1 the moment condition needs 2 M Gamma(2) >= E X = 1
    assert M >= 0.5 - 1e-9


def test_equivalence_weibull_exact_tail():
    spec = DistributionSpec.weibull(2.5, 1.5)
    K = psi_norm_analytic(spec, 2.5).value
    assert check_equivalence(spec, 2.5, K) > 0.0


def test_equivalence_fails_below_norm():
    # a K far below the true norm cannot certify the tail bound
    with pytest.raises(VerificationError):
        check_equivalence(EXP, 1.0, 0.4)


def test_tail_bound_grid_reports_moment_constant():
    result = verify.check_tail_bound_grid()
    assert result.passed
    assert result.detail == "4 families certified, max M/K = 0.725"


def test_tail_bound_grid_fails_when_moment_constant_exceeds_norm(monkeypatch):
    # the certified tail integrates to M <= K; an M above K is a violation
    monkeypatch.setattr(orlicz, "check_equivalence", lambda spec, p, K: 1.01 * K)
    result = verify.check_tail_bound_grid()
    assert not result.passed
    assert "max M/K = 1.01" in result.detail


def test_tail_conversion_constant():
    # a certified tail constant L bounds the norm by 3**(1/p) L
    for spec, p in (
        (EXP, 1.0),
        (DistributionSpec.pnormal(2.0), 2.0),
        (DistributionSpec.weibull(3.0, 2.0), 3.0),
    ):
        L = psi_norm_analytic(spec, p).value
        check_equivalence(spec, p, L)
        value = psi_norm_quadrature(spec, p).value
        assert value <= 3.0 ** (1.0 / p) * L + 1e-6


# ---------------------------------------------------------------------------
# centering


def test_centering_exp():
    lhs, rhs = centering_bound_check(EXP, 1.0)
    assert rhs == pytest.approx(4.0, abs=1e-5)
    assert lhs <= rhs + 1e-6
    assert lhs > 0.0


def test_centering_symmetric_is_identity():
    spec = DistributionSpec.pnormal(3.0)
    lhs, rhs = centering_bound_check(spec, 3.0)
    assert lhs == pytest.approx(rhs / 2.0, rel=2e-5)  # EX = 0


def test_centering_weibull():
    lhs, rhs = centering_bound_check(DistributionSpec.weibull(2.0, 1.0), 2.0)
    assert rhs == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-5)
    assert lhs <= rhs + 1e-6


def test_centering_requires_p_at_least_one():
    with pytest.raises(ParameterError):
        centering_bound_check(EXP, 0.5)
