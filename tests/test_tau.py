import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from subweibull import (
    Cumulant,
    DistributionSpec,
    InfeasibleError,
    ParameterError,
    UnboundedSupremumError,
    bernstein_bound,
    centered_cumulant,
    convex_conjugate,
    exp_centered,
    gaussian,
    iid_sum,
    orlicz,
    phi1,
    phi_inf,
    rotation_invariance_check,
    scaled,
    sum_of,
    tau,
    tau_feasible,
    tau_norm,
)


# ---------------------------------------------------------------------------
# the conjugate pair


def test_phi1_values():
    assert float(phi1(0.5)) == 0.125
    assert float(phi1(2.0)) == 1.5
    assert float(phi1(1.0)) == 0.5
    assert float(phi1(-2.0)) == 1.5


def test_phi_inf_values():
    assert float(phi_inf(1.5)) == math.inf
    assert float(phi_inf(1.0)) == 0.5
    assert float(phi_inf(-0.5)) == 0.125
    assert float(phi_inf(0.0)) == 0.0


@given(st.floats(-50, 50))
def test_phi1_even_and_continuous_at_knee(x):
    assert float(phi1(x)) == float(phi1(-x))
    assert float(phi1(x)) >= 0.0


@given(st.floats(0, 100))
def test_phi1_min_form(u):
    assert float(phi1(u)) >= 0.5 * min(u * u, u) - 1e-12


# ---------------------------------------------------------------------------
# convex conjugation


def test_conjugate_of_phi_inf_is_phi1():
    for t in (0.0, 0.5, -0.5, 1.0, 3.0, -7.5):
        got = convex_conjugate(phi_inf, t, search_bound=2.0)
        assert got == pytest.approx(float(phi1(t)), abs=1e-9)


def test_conjugacy_grid():
    ts = np.linspace(-10.0, 10.0, 1000)
    got = convex_conjugate(phi_inf, ts, search_bound=2.0)
    assert np.max(np.abs(got - phi1(ts))) <= 1e-9


def test_quadratic_self_conjugate():
    got = convex_conjugate(lambda u: 0.5 * u * u, 2.0, search_bound=16.0)
    assert got == pytest.approx(2.0, abs=1e-9)


def test_conjugate_scaling_law():
    # f(u) = n phi_inf((2 c / n) u) has conjugate n phi1(t / (2 c))
    n, c = 4, 1.0
    f = lambda u: n * float(phi_inf((2.0 * c / n) * u))
    got = convex_conjugate(f, 1.0, search_bound=16.0)
    assert got == pytest.approx(n * float(phi1(1.0 / (2.0 * c))), abs=1e-9)
    assert got == pytest.approx(0.5, abs=1e-9)


def test_biconjugate_recovers_phi_inf_inside_unit_interval():
    inner = lambda u: convex_conjugate(phi_inf, u, search_bound=2.0)
    ts = np.linspace(-0.99, 0.99, 21)
    got = convex_conjugate(inner, ts, search_bound=50.0)
    assert got == pytest.approx(phi_inf(ts), abs=1e-6)


def test_unbounded_sup_detected():
    # linear-growth conjugand evaluated past its slope: sup is at infinity
    with pytest.raises(UnboundedSupremumError):
        convex_conjugate(lambda u: 0.5 * u * u, 40.0, search_bound=16.0)
    with pytest.raises(UnboundedSupremumError):
        convex_conjugate(phi1, 2.0, search_bound=100.0)


def test_conjugate_of_an_infinite_t_warns_of_nothing():
    # f's +inf meets an infinite t without an inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = convex_conjugate(phi_inf, np.array([math.inf, -math.inf, 3.0]), 16.0)
    assert got[:2].tolist() == [math.inf, math.inf]
    # the finite t keeps the bits it has alone
    assert got[2] == convex_conjugate(phi_inf, 3.0, 16.0) == pytest.approx(phi1(3.0), abs=1e-9)


def test_conjugate_rejects_bad_bound():
    with pytest.raises(ParameterError):
        convex_conjugate(phi_inf, 1.0, search_bound=0.0)


def reference_conjugate(f, t, search_bound):
    """The scalar ternary search, one t at a time, in plain Python floats."""
    tt = abs(float(t))

    def objective(u):
        return tt * u - float(f(u))

    lo, hi = 0.0, search_bound
    best = 0.0
    for _ in range(300):
        if hi - lo <= 1e-11 * max(1.0, search_bound):
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        g1, g2 = objective(m1), objective(m2)
        if g2 == -math.inf:
            hi = m2
            best = max(best, g1) if g1 > -math.inf else best
            continue
        if g1 < g2:
            lo = m1
        else:
            hi = m2
        best = max(best, g1, g2)
    g_mid = objective(0.5 * (lo + hi))
    if g_mid > -math.inf:
        best = max(best, g_mid)
    if hi >= search_bound * (1.0 - 1e-6):
        inner = objective(search_bound * (1.0 - 1e-6))
        outer = objective(search_bound)
        if outer > -math.inf and outer - inner > 1e-9 * max(1.0, tt, abs(outer)):
            raise UnboundedSupremumError(f"still increasing for t={t:g}")
        best = max(best, outer) if outer > -math.inf else best
    return best


def assert_same_bits(got, want):
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


def test_lockstep_conjugate_matches_scalar_loop_on_conjugacy_grid():
    ts = np.linspace(-10.0, 10.0, 1000)
    want = [reference_conjugate(phi_inf, t, 2.0) for t in ts.tolist()]
    assert_same_bits(convex_conjugate(phi_inf, ts, search_bound=2.0), want)


def test_lockstep_conjugate_matches_scalar_loop_on_biconjugacy_grid():
    ts = np.linspace(-0.999, 0.999, 101)
    ref_inner = lambda u: reference_conjugate(phi_inf, u, 2.0)
    want = [reference_conjugate(ref_inner, t, 50.0) for t in ts.tolist()]
    inner = lambda u: convex_conjugate(phi_inf, u, search_bound=2.0)
    assert_same_bits(convex_conjugate(inner, ts, search_bound=50.0), want)


@pytest.mark.parametrize(
    "f, bound",
    [(phi_inf, 2.0), (phi_inf, 16.0), (lambda u: 0.5 * u * u, 16.0)],
    ids=["phi_inf-2", "phi_inf-16", "quadratic-16"],
)
def test_lockstep_conjugate_matches_scalar_loop_across_branches(f, bound):
    # t = 0, the quadratic branch |t| <= 1 and the linear branch, in one array
    ts = np.array([[0.0, -0.0, 0.25, -1.0], [1.0, 1.5, -3.0, 7.5]])
    want = [[reference_conjugate(f, t, bound) for t in row] for row in ts.tolist()]
    got = convex_conjugate(f, ts, search_bound=bound)
    assert got.shape == ts.shape
    assert_same_bits(got, want)


def test_lockstep_conjugate_freezes_each_element_at_its_own_stop():
    # at this bound the 40th bracket width sits within rounding of the stop
    # tolerance, so elements stop after 40 or after 41 steps
    bound = 1.1057332320939626e-4
    ts = np.linspace(-0.9, 0.9, 19) * bound
    quadratic = lambda u: 0.5 * u * u
    want = [reference_conjugate(quadratic, t, bound) for t in ts.tolist()]
    assert_same_bits(convex_conjugate(quadratic, ts, search_bound=bound), want)


def test_lockstep_conjugate_names_the_climbing_element():
    quadratic = lambda u: 0.5 * u * u
    with pytest.raises(UnboundedSupremumError, match=r"for t=40$"):
        convex_conjugate(quadratic, np.array([1.0, 40.0]), search_bound=16.0)


def test_scalar_conjugate_returns_a_python_float():
    for t in (0.5, np.float64(-3.0), 2):
        got = convex_conjugate(phi_inf, t, search_bound=2.0)
        assert type(got) is float
        assert_same_bits(got, reference_conjugate(phi_inf, t, 2.0))
    # the plain-float search gives each element of the lockstep one, and a
    # climbing objective names the signed t
    quadratic = lambda u: 0.5 * u * u
    for f in (phi_inf, phi1, quadratic):
        for t in (0.0, -0.0, 0.25, -1.0, 1.5, -3.0, 7.5, math.inf, -math.inf):
            try:
                want = convex_conjugate(f, np.array([t]), search_bound=16.0)[0]
            except UnboundedSupremumError as exc:
                assert str(exc).endswith(f"for t={t:g}")
                with pytest.raises(UnboundedSupremumError, match=rf"for t={t:g}$"):
                    convex_conjugate(f, t, search_bound=16.0)
                continue
            got = convex_conjugate(f, t, search_bound=16.0)
            assert type(got) is float
            assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# cumulants


def test_exp_centered_values():
    c = exp_centered()
    assert c.value(0.0) == 0.0
    assert c.value(0.5) == pytest.approx(-0.5 - math.log(0.5), rel=1e-12)
    assert c.value(1.0) == math.inf  # domain edge
    assert c.value(2.0) == math.inf
    assert c.curvature(0.5) == pytest.approx(4.0, rel=1e-12)


def test_cumulant_domain_edge_buffer():
    c = exp_centered()
    assert c.value(1.0 - 1e-13) == math.inf
    assert math.isfinite(c.value(1.0 - 1e-9))
    # the buffer is relative: an edge at 1e-13 keeps 0 and points up to 1 - 1e-9 of it
    tiny = scaled(c, 1e13)
    assert tiny.value(0.0) == 0.0
    assert tiny.value(1e-13 * (1.0 - 1e-13)) == math.inf
    assert math.isfinite(tiny.value(1e-13 * (1.0 - 1e-9)))


def test_cumulant_array_evaluation():
    c = exp_centered()
    t = np.array([-1.0, 0.0, 0.5, 1.5])
    v = c.value(t)
    assert v.shape == t.shape
    assert v[3] == math.inf and math.isfinite(v[0])


def test_centered_cumulant_table():
    assert centered_cumulant(DistributionSpec.exponential()).value(0.5) == pytest.approx(
        exp_centered().value(0.5)
    )
    c = centered_cumulant(DistributionSpec.weibull(1.0, 2.0))
    assert c.value(0.25) == pytest.approx(exp_centered().value(0.5), rel=1e-12)
    g = centered_cumulant(DistributionSpec.pnormal(2.0))
    assert g.value(3.0) == pytest.approx(4.5, rel=1e-12)
    from subweibull import NoClosedFormError

    with pytest.raises(NoClosedFormError):
        centered_cumulant(DistributionSpec.pnormal(3.0))


# ---------------------------------------------------------------------------
# the domination norm


def test_tau_exp_centered_is_two():
    result = tau_norm(exp_centered(), tol=1e-8)
    assert result.value == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("n", [1, 4, 9, 100])
def test_tau_centered_sum_sqrt_law(n):
    got = tau_norm(iid_sum(exp_centered(), n), tol=1e-6).value
    assert got == pytest.approx(math.sqrt(n) + 1.0, abs=1e-4)


@pytest.mark.parametrize(
    "sigma", [1.5e-154, 1e-13, 1e-12, 3e-12, 0.25, 1.0, 3.0, 1e6, 1e13, 1.34e154]
)
def test_tau_gaussian_is_sigma(sigma):
    # the search runs in units of sqrt C''(0) = sigma, so no scale is too small or large
    assert tau_norm(gaussian(sigma), tol=1e-8).value == pytest.approx(sigma, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", [-300, -45, -40, -1, 1, 30, 39, 40, 300])
def test_tau_norm_commutes_with_powers_of_two(k):
    # scaling by 2**k scales every float of the search exactly
    got = tau_norm(scaled(exp_centered(), 2.0**k)).value
    assert_same_bits(got, 2.0**k * tau_norm(exp_centered()).value)


def test_tau_scaling():
    for a in (0.5, 2.0):
        got = tau_norm(scaled(exp_centered(), a), tol=1e-8).value
        assert got == pytest.approx(2.0 * a, abs=1e-6)


def test_tau_margin_profile_nonnegative_and_tight_at_zero():
    result = tau_norm(exp_centered(), tol=1e-8)
    slacks = [s for _, s in result.margin_profile]
    assert min(slacks) >= -1e-9
    assert any(s <= 1e-9 for s in slacks)  # slack vanishes at t = 0
    ts = [t for t, _ in result.margin_profile]
    assert max(np.abs(ts)) <= 1.0 / result.value + 1e-12


def test_tau_pointwise_domination_on_window():
    # at the returned value the parabola dominates the cumulant pointwise
    cum = exp_centered()
    k = tau_norm(cum, tol=1e-8).value
    for t in np.linspace(-1.0 / k, 1.0 / k, 1001):
        assert cum.value(float(t)) <= 0.5 * (k * float(t)) ** 2 + 1e-9


def test_tau_tightness():
    for cum in (exp_centered(), gaussian(1.0), iid_sum(exp_centered(), 9)):
        value = tau_norm(cum, tol=1e-8).value
        assert tau_feasible(cum, value)
        assert not tau_feasible(cum, value * (1.0 - 1e-3))


def test_tau_infeasible_cumulant():
    # C''(0) = 1, but the domain ends within 1 / K_MAX of 0, so every window
    # up to the ceiling reaches past it
    g = gaussian(1.0)
    with pytest.raises(InfeasibleError, match=r"up to 1e\+12$"):
        tau_norm(Cumulant(g.fn, g.d2, (-math.inf, 1e-13)))
    # the ceiling is in units of sqrt C''(0)
    with pytest.raises(InfeasibleError, match=r"up to 1e\+18$"):
        tau_norm(scaled(Cumulant(g.fn, g.d2, (-math.inf, 1e-13)), 1e6))


def test_tau_norm_of_a_tiny_gaussian_is_not_zero():
    # the search runs in units of sigma, so neither the floor 1e-12 nor tol
    # ends it early
    for tol in (1e-6, 1e-8):
        value = tau_norm(gaussian(1e-12), tol).value
        assert value == pytest.approx(1e-12, rel=1e-12, abs=0.0)
        assert tau_feasible(gaussian(1e-12), value)


@pytest.mark.parametrize("sigma", [1e-160, 1e-200, 1e155, 0.0, -1.0, math.nan, math.inf])
def test_gaussian_needs_a_normal_finite_variance(sigma):
    # sigma**2 subnormal, 0 or overflowing: tau read 0.99987 sigma at 1e-160
    # and 0 at 1e-200, and 1e155 raised OverflowError
    with pytest.raises(ParameterError, match="sigma"):
        gaussian(sigma)


_TAU_CASES = {
    "exp_centered": exp_centered,
    "sum1": lambda: iid_sum(exp_centered(), 1),
    "sum100": lambda: iid_sum(exp_centered(), 100),
    "sum1000": lambda: iid_sum(exp_centered(), 1000),
    "gaussian0.3": lambda: gaussian(0.3),
    "gaussian1": lambda: gaussian(1.0),
    "gaussian7.3": lambda: gaussian(7.3),
    "scaled3": lambda: scaled(exp_centered(), 3.0),
    "sum_of": lambda: sum_of([exp_centered(), gaussian(2.0), exp_centered()]),
}


def _plain_tau_norm(cum, tol, a=1.0):
    """The norm of a bisection on the real feasibility check, in its own arithmetic.

    It runs on u = K / a: it doubles u from 1 until K = a * u is feasible,
    or halves u while K is, down to a zero norm at u = 1e-12, then bisects
    until the bracket is within tol, and returns a times its top.
    """
    def feasible(u):
        return tau_feasible(cum, a * u)

    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > tau.K_MAX:
            raise InfeasibleError(f"no feasible K up to {a * tau.K_MAX:g}")
    lo = 0.5 * hi
    if hi == 1.0:
        while lo > 1e-12 and feasible(lo):
            hi = lo
            lo *= 0.5
        if lo <= 1e-12:
            return 0.0
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return a * hi


@pytest.fixture
def tau_bisections(monkeypatch):
    """Count the bisections ``tau_norm`` runs on the real feasibility test: one per fallback."""
    count = [0]
    bisect = orlicz._bisect_norm

    def counted(*args):
        count[0] += 1
        return bisect(*args)

    monkeypatch.setattr(orlicz, "_bisect_norm", counted)
    return count


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("name", list(_TAU_CASES))
def test_tau_norm_is_the_bisection_bit_for_bit(name, tol):
    # the located bracket's feasible end: the bisection's root to 1e-12,
    # feasible there and not just below, and the same bits at every tol
    cum = _TAU_CASES[name]()
    value = tau_norm(cum, tol).value
    assert value == pytest.approx(_plain_tau_norm(cum, 1e-13), rel=1e-12, abs=0.0)
    assert tau_feasible(cum, value)
    assert not tau_feasible(cum, value * (1.0 - 2e-12))
    assert_same_bits(value, tau_norm(cum, 1e-6 if tol != 1e-6 else 1e-8).value)


@pytest.mark.parametrize("factor", [1.0 + 1e-3, 1.0 - 1e-3])
def test_tau_norm_falls_back_when_the_located_root_is_off(monkeypatch, tau_bisections, factor):
    locate = orlicz._locate_root

    def pushed(*args):
        a, b = locate(*args)
        return factor * a, factor * b

    monkeypatch.setattr(orlicz, "_locate_root", pushed)
    for name in ("exp_centered", "sum100", "gaussian1"):
        cum = _TAU_CASES[name]()
        # the fallback bisects in units of sqrt C''(0)
        expected = _plain_tau_norm(cum, 1e-6, math.sqrt(cum.curvature(0.0)))
        tau_bisections[0] = 0
        assert_same_bits(tau_norm(cum).value, expected)
        assert tau_bisections[0] == 1


def test_tau_norm_certifies_a_wide_but_right_located_bracket(monkeypatch, tau_bisections):
    # a widened bracket still straddles the root, so it is bisected on down
    # to tol (in units of sqrt C''(0)), with no bisection from u = 1
    locate = orlicz._locate_root

    def widened(*args):
        a, b = locate(*args)
        return 0.9 * a, 1.1 * b

    monkeypatch.setattr(orlicz, "_locate_root", widened)
    for name in ("exp_centered", "sum100", "gaussian1", "gaussian7.3"):
        cum = _TAU_CASES[name]()
        tau_bisections[0] = 0
        value = tau_norm(cum).value
        assert tau_bisections[0] == 0
        width = 1e-6 * math.sqrt(cum.curvature(0.0))
        assert tau_feasible(cum, value) and not tau_feasible(cum, value - width)


def test_tau_norm_takes_few_curvature_scans(monkeypatch):
    calls = []
    scan = tau._window_curvature_sup

    def counted(cum, K):
        calls.append(K)
        return scan(cum, K)

    monkeypatch.setattr(tau, "_window_curvature_sup", counted)
    # (cumulant, at most this many scans, the plain bisection's scans)
    for name, most, plain in (("exp_centered", 8, 22), ("sum100", 16, 28), ("gaussian1", 8, 21)):
        cum = _TAU_CASES[name]()
        calls.clear()
        tau_norm(cum)
        located = len(calls)
        _plain_tau_norm(cum, 1e-6)
        assert located <= most
        assert len(calls) - located == plain


def _scanned_curvature_sup(cumulant, K):
    """sup of C'' on [-1/K, 1/K] by the scan the end rule replaced: 10 001 points, three zooms."""
    w = 1.0 / K
    lo, hi, points = -w, w, 10_001
    best = -math.inf
    for _ in range(4):
        grid = np.linspace(lo, hi, points)
        vals = cumulant.curvature(grid)
        vals = np.where(np.isnan(vals), np.inf, vals)
        j = int(np.argmax(vals))
        best = max(best, float(vals[j]))
        if math.isinf(best):
            return best
        lo, hi, points = grid[max(j - 1, 0)], grid[min(j + 1, points - 1)], 21
    return best


_CURVATURE_KINDS = {
    "exp_centered": exp_centered,
    "sum100": lambda: iid_sum(exp_centered(), 100),
    "gaussian1.3": lambda: gaussian(1.3),
    "scaled2.5": lambda: scaled(exp_centered(), 2.5),
    "sum_of": lambda: sum_of([scaled(exp_centered(), 0.7), gaussian(2.0), exp_centered()]),
    "weibull(1, 3)": lambda: centered_cumulant(DistributionSpec.weibull(1.0, 3.0)),
}


@pytest.mark.parametrize("name", list(_CURVATURE_KINDS))
def test_window_curvature_sup_is_the_scan(name):
    cum = _CURVATURE_KINDS[name]()
    edge = cum.domain[1]
    if math.isfinite(edge):
        # windows ending within 1e-12 * edge of the domain edge: inf on both sides
        extra = [1.0 / (edge * (1.0 - 0.5e-12)), 1.0 / (edge * (1.0 - 1e-13))]
    else:
        extra = [1e-8, 1e8]
    ks = [float(K) for K in np.geomspace(1e-2, 1e4, 48)] + extra
    assert len(ks) == 50
    for K in ks:
        assert tau._window_curvature_sup(cum, K) == _scanned_curvature_sup(cum, K), K
    if math.isfinite(edge):
        assert tau._window_curvature_sup(cum, extra[0]) == math.inf


@pytest.mark.parametrize("name", list(_CURVATURE_KINDS))
def test_scalar_evaluation_is_the_array_element(name):
    cum = _CURVATURE_KINDS[name]()
    ts = [0.0, -0.0, 0.5, -0.5, math.inf, -math.inf]
    for edge in cum.domain:
        if math.isfinite(edge):
            # at the edge buffer (inf) and one float inside it
            cut = edge - math.copysign(1e-12 * abs(edge), edge)
            ts += [cut, math.nextafter(cut, 0.0)]
    # numpy scalars warn of exp_centered's inf - inf at -inf, where the
    # array path is silenced; both read NaN
    with np.errstate(invalid="ignore"):
        for t in ts:
            for method in (cum.value, cum.curvature):
                got = method(t)
                assert type(got) is float, (t, method)
                assert_same_bits(got, method(np.array([t]))[0])


def test_window_curvature_sup_reads_an_arithmetic_error_as_inf():
    # 1 / (1 - t**2) is convex on (-1, 1) and divides by zero at its ends
    cum = Cumulant(fn=lambda t: 0.0 * t, d2=lambda t: 1.0 / (1.0 - t * t),
                   domain=(-math.inf, math.inf))
    with pytest.raises(ZeroDivisionError):
        cum.d2(1.0)
    assert math.isnan(cum.curvature(1.0))
    assert tau._window_curvature_sup(cum, 1.0) == math.inf
    assert tau._window_curvature_sup(cum, 2.0) == 4.0 / 3.0


def _margin_profiles_match_scalar_loop():
    """Per cumulant, whether the margin profile is the one-point-at-a-time loop's, bit for bit."""
    import numpy as np
    from subweibull import tau

    cums = [
        tau.exp_centered(), tau.iid_sum(tau.exp_centered(), 100), tau.gaussian(1.0),
        tau.gaussian(7.3), tau.scaled(tau.exp_centered(), 3.0),
    ]
    matches = []
    for cum in cums:
        result = tau.tau_norm(cum)
        loop = []
        for u in np.linspace(-1.0, 1.0, 201).tolist():
            t = u / result.value
            loop.append((t, float(tau.phi_inf(u)) - cum.value(t)))
        matches.append(np.array(result.margin_profile).tobytes() == np.array(loop).tobytes())
    return matches


def test_margin_profile_is_the_scalar_loop():
    assert _margin_profiles_match_scalar_loop() == [True] * 5


def test_margin_profile_is_the_scalar_loop_without_avx512(without_avx512):
    assert without_avx512(_margin_profiles_match_scalar_loop) == [True] * 5


def _tau_values():
    """tau of cumulants built on exp_centered, whose curvature is 1 / (1 - t)**2."""
    from subweibull import tau

    e = tau.exp_centered()
    cums = [e, tau.iid_sum(e, 2), tau.iid_sum(e, 100), tau.scaled(e, 0.7),
            tau.sum_of([tau.scaled(e, 0.7), tau.gaussian(2.0), e])]
    return [tau.tau_norm(cum).value for cum in cums]


def test_tau_value_does_not_depend_on_simd_dispatch(without_avx512):
    # d2 uses only correctly rounded + - * /; through numpy's general power,
    # (1 - t) ** -2.0, the sum of two read 2.414213562372388 with AVX-512
    # and 2.414213562372991 without
    assert without_avx512(_tau_values) == _tau_values()


def test_rotation_invariance_nine_exponentials():
    lhs, rhs = rotation_invariance_check([DistributionSpec.exponential()] * 9)
    assert lhs == pytest.approx(4.0, abs=1e-4)
    assert rhs == pytest.approx(6.0, abs=1e-6)
    assert lhs <= rhs + 1e-6


def test_rotation_invariance_single_spec_equality():
    lhs, rhs = rotation_invariance_check([DistributionSpec.exponential()])
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_rotation_invariance_one_norm_per_distinct_summand(monkeypatch):
    calls = []

    def counting_tau_norm(cumulant, *args):
        calls.append(cumulant.name)
        return tau_norm(cumulant, *args)

    monkeypatch.setattr(tau, "tau_norm", counting_tau_norm)
    rotation_invariance_check([DistributionSpec.exponential()] * 9)
    # one summand norm and the norm of the sum
    assert len(calls) == 2


def test_rotation_invariance_hundred():
    lhs, rhs = rotation_invariance_check([DistributionSpec.exponential()] * 100)
    assert lhs == pytest.approx(11.0, abs=1e-4)
    assert rhs == pytest.approx(20.0, abs=1e-6)


def test_sum_of_evaluates_a_shared_member_once_per_probe():
    base = exp_centered()
    calls = []

    def counted_d2(t):
        calls.append(1)
        return base.d2(t)

    shared = Cumulant(fn=base.fn, d2=counted_d2, domain=base.domain, name="counted")
    total = sum_of([shared] * 100)
    grid = np.linspace(-0.5, 0.5, 11)
    got = total.curvature(grid)
    assert len(calls) == 1
    assert_same_bits(got, sum_of([exp_centered() for _ in range(100)]).curvature(grid))


@pytest.mark.parametrize("n", [9, 100])
def test_sum_of_shared_member_keeps_the_norm_bits(n):
    shared = exp_centered()
    grouped = tau_norm(sum_of([shared] * n)).value
    distinct = tau_norm(sum_of([exp_centered() for _ in range(n)])).value
    assert_same_bits(grouped, distinct)


def test_sum_of_mixed_cumulants():
    mix = sum_of([exp_centered(), gaussian(2.0)])
    assert mix.value(0.5) == pytest.approx(exp_centered().value(0.5) + 0.5, rel=1e-12)
    lhs = tau_norm(mix).value
    rhs = math.sqrt(2.0**2 + 2.0**2)
    assert lhs <= rhs + 1e-6


# ---------------------------------------------------------------------------
# Bernstein bound


def test_bernstein_values():
    got = bernstein_bound(100, 0.5, 1.0, 1.0)
    assert got.value == pytest.approx(2.0 * math.exp(-3.125), rel=1e-12)
    assert bernstein_bound(7, 0.0, 1.0, 1.0).value == 2.0
    got = bernstein_bound(1, 4.0, 1.0, 1.0)
    assert got.value == pytest.approx(2.0 * math.exp(-1.5), rel=1e-12)


def test_bernstein_min_form_dominates_pointwise_inequality():
    # the exponent inequality behind the min form: phi1(u) >= min(u^2, u)/2
    for u in np.linspace(0.0, 5.0, 101):
        b = bernstein_bound(10, float(u) * 4.0, 1.0, 1.0)  # u = t / (2 C1 K)
        assert b.value <= b.min_form + 1e-15


def test_bernstein_validation():
    with pytest.raises(ParameterError):
        bernstein_bound(0, 1.0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        bernstein_bound(5, 1.0, 1.0, 0.5)
    with pytest.raises(ParameterError):
        bernstein_bound(5, -1.0, 1.0, 2.0)
