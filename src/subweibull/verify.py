"""Self-verification suite: every structural invariant as a named check.

Each check returns a :class:`CheckResult`; ``run_all`` executes the whole
battery.  This module is the one definition of each invariant's cases,
tolerances and predicate: the acceptance criteria call these checks, and
apply the Monte Carlo predicates (:func:`growth_contrast`,
:func:`tail_domination`, :func:`csv_reproducibility`) to their own
full-strength experiments.

The two KS checks take Kolmogorov's limit law, and the exact exponential
tail of :func:`check_bound_domination` the incomplete gamma functions, from
:mod:`subweibull.specfun`; the quadrature checks use
:mod:`subweibull.quadrature`'s own rule.  So no check, and no command of the
CLI, loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import concentration as conc
from . import dist, montecarlo, orlicz, tau
from .quadrature import improper_integral
from .specfun import gammainc, gammaincc, kolmogorov
from .streams import RandomStream

# ``subweibull verify``'s budget: trials by default and with --full, and the seed
TRIALS = 20_000
FULL_TRIALS = 100_000
SEED = 777


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# dist


def check_density_normalization() -> CheckResult:
    """Densities integrate to 1, in the base variable u of x = scale * u**e (no pole at 0)."""
    worst = 0.0
    cases = [
        dist.DistributionSpec.exponential(),
        dist.DistributionSpec.weibull(0.7, 1.5),
        dist.DistributionSpec.weibull(2.0, 1.0),
        dist.DistributionSpec.pnormal(1.0),
        dist.DistributionSpec.pnormal(3.0),
        dist.DistributionSpec.halfgauss_pow(1.5, 2.0),
    ]
    for spec in cases:
        total = improper_integral(_density_in_base_variable(spec))
        if spec.symmetric:
            total *= 2.0
        worst = max(worst, abs(total - 1.0))
    return _result("dist.density_normalization", worst <= 1e-8, f"max |integral-1| = {worst:.3g}")


def _density_in_base_variable(spec: dist.DistributionSpec):
    """u -> density(spec, x) dx/du at x = scale * u**e, computed in logs.

    With z = x / scale = u**e, order q and base exponent m, the density is
    density(spec, scale) * exp(1/m) * z**(q/m - 1) * exp(-z**q / m): its
    constant is read from ``dist.density``, and its powers of u, with the
    Jacobian's, are summed in logs.  So the integrand stays finite where x
    underflows to 0, at which ``dist.density`` returns its pole at 0.
    """
    law = dist.canonical(spec)
    q, e, m = law.order, law.e, law.exponent(law.order)
    log_c = math.log(dist.density(spec, law.scale) * law.scale * e) + 1.0 / m
    power = (q / m - 1.0) * e + (e - 1.0)  # 0 up to rounding

    def integrand(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return math.exp(log_c + power * math.log(u) - (u**e) ** q / m)

    return integrand


def check_mgf_quadrature() -> CheckResult:
    spec = dist.DistributionSpec.exponential()
    worst = 0.0
    for t in (-1.0, 0.0, 0.5, 0.9):
        closed = dist.mgf(spec, t)
        numeric = dist.mgf_quadrature(spec, t)
        worst = max(worst, abs(numeric - closed) / abs(closed))
    inf_ok = dist.mgf(spec, 1.0) == math.inf and dist.mgf_quadrature(spec, 1.0) == math.inf
    return _result(
        "dist.mgf_vs_quadrature",
        worst <= 1e-8 and inf_ok,
        f"max rel err = {worst:.3g}, divergent branch ok = {inf_ok}",
    )


def _ks_2samp(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov statistic D and asymptotic p-value.

    D is the largest |F_a - F_b| over the points of both samples, with each
    empirical cdf counted by ``searchsorted(..., side="right")``: the same
    count/n arithmetic, and so the same bits, as ``scipy.stats.ks_2samp`` in
    its asymptotic method, which it takes above 10 000 draws.  The p-value is
    Kolmogorov's limit law at sqrt(n1 n2 / (n1 + n2)) D, from
    :func:`subweibull.specfun.kolmogorov`.
    """
    a, b = np.sort(a), np.sort(b)
    n1, n2 = a.size, b.size
    d = max(
        float(np.max(np.abs(np.searchsorted(a, x, side="right") / n1
                            - np.searchsorted(b, x, side="right") / n2)))
        for x in (a, b)
    )
    en = n1 * n2 / (n1 + n2)
    return d, kolmogorov(math.sqrt(en) * d)


def check_weibull_sampler_identity() -> CheckResult:
    n = 100_000
    shape, scale = 1.7, 1.3
    spec = dist.DistributionSpec.weibull(shape, scale)
    a = dist.sample(spec, RandomStream(411, 0), n)
    b = dist.sample(dist.DistributionSpec.exponential(), RandomStream(411, 1), n)
    b **= 1.0 / shape
    b *= scale
    stat, pvalue = _ks_2samp(a, b)
    return _result(
        "dist.weibull_sampler_identity",
        pvalue > 1e-3,
        f"KS stat = {stat:.4g}, p-value = {pvalue:.4g}",
    )


def check_pnormal_symmetry() -> CheckResult:
    """Positive draws and mirrored negative draws share one law; signs balance."""
    spec = dist.DistributionSpec.pnormal(3.0)
    x = dist.sample(spec, RandomStream(7, 0), 50_000)
    _, pvalue = _ks_2samp(x[x > 0.0], -x[x < 0.0])
    sign_balance = abs(float(np.mean(np.sign(x))))
    return _result(
        "dist.pnormal_symmetry",
        pvalue > 1e-3 and sign_balance < 4.0 / math.sqrt(x.size),
        f"KS p-value x>0 vs -x<0 = {pvalue:.4g}, sign mean = {sign_balance:.3g}",
    )


def check_sampler_moments() -> CheckResult:
    n = 1_000_000
    w = dist.sample(dist.DistributionSpec.weibull(1.0, 1.0), RandomStream(2024, 0), n)
    ok1 = abs(float(np.mean(w)) - 1.0) <= 0.005
    del w  # the check's peak memory is one sample, not two
    g = dist.sample(dist.DistributionSpec.pnormal(3.0), RandomStream(2024, 1), n)
    sigma = math.sqrt(dist.moment_abs(dist.DistributionSpec.pnormal(3.0), 2.0))
    ok3 = abs(float(np.mean(g))) <= 3.0 * sigma / 1e3
    # |g|**3 in place, after the signed mean: still one sample
    np.abs(g, out=g)
    g **= 3.0
    ok2 = abs(float(np.mean(g)) - 1.0) <= 0.01
    return _result(
        "dist.sampler_moments",
        ok1 and ok2 and ok3,
        f"weibull mean ok={ok1}, |g_p|^p mean ok={ok2}, centered mean ok={ok3}",
    )


# ---------------------------------------------------------------------------
# orlicz


_TABLE_CASES: Sequence[tuple[dist.DistributionSpec, float, float]] = (
    (dist.DistributionSpec.exponential(), 1.0, 2.0),
    (dist.DistributionSpec.weibull(1.0, 1.0), 1.0, 2.0),
    (dist.DistributionSpec.weibull(2.0, 1.0), 2.0, 2.0**0.5),
    (dist.DistributionSpec.weibull(3.0, 2.0), 3.0, 2.0 * 2.0 ** (1.0 / 3.0)),
) + tuple(
    (dist.DistributionSpec.pnormal(p), p, (8.0 / 3.0) ** (1.0 / p)) for p in (1.0, 2.0, 3.0, 4.0)
)


def check_closed_form_table() -> CheckResult:
    """Quadrature within 1e-6 and the analytic table within 1e-14 of the closed forms."""
    worst_quad = worst_analytic = 0.0
    for spec, p, expected in _TABLE_CASES:
        analytic = orlicz.psi_norm_analytic(spec, p).value
        numeric = orlicz.psi_norm_quadrature(spec, p, tol=1e-8).value
        worst_quad = max(worst_quad, abs(numeric - expected) / expected)
        worst_analytic = max(worst_analytic, abs(analytic - expected) / expected)
    return _result(
        "orlicz.closed_form_table",
        worst_quad <= 1e-6 and worst_analytic <= 1e-14,
        f"{len(_TABLE_CASES)} norms, max rel err quadrature {worst_quad:.2e}, "
        f"analytic {worst_analytic:.2e}",
    )


def check_norm_scaling() -> CheckResult:
    worst = 0.0
    for c in (0.5, 3.0):
        got = orlicz.psi_norm_quadrature(dist.DistributionSpec.weibull(1.5, c), 1.5).value
        want = c * 2.0 ** (1.0 / 1.5)
        worst = max(worst, abs(got - want) / want)
        got = orlicz.psi_norm_quadrature(dist.DistributionSpec.halfgauss_pow(2.5, c), 2.5).value
        want = c * (8.0 / 3.0) ** (1.0 / 2.5)
        worst = max(worst, abs(got - want) / want)
    return _result("orlicz.norm_scaling", worst <= 2e-6, f"max rel err = {worst:.3g}")


def check_power_identity() -> CheckResult:
    cases = [
        (dist.DistributionSpec.pnormal(2.0), 2.0, 1.0),
        (dist.DistributionSpec.exponential(), 2.0, 0.5),
        (dist.DistributionSpec.weibull(2.0, 1.0), 2.0, 1.0),
    ]
    worst = 0.0
    for spec, p, r in cases:
        lhs, rhs = orlicz.power_norm_identity(spec, p, r)
        worst = max(worst, abs(lhs - rhs))
    return _result("orlicz.power_identity", worst <= 1e-5, f"max |lhs-rhs| = {worst:.3g}")


def check_tail_bound_grid() -> CheckResult:
    """Certify the tail at K = the norm, and the moment constant M <= K.

    Integrating the tail 2*exp(-(t/K)**p) gives E|X|**a <= 2*K**a*Gamma(a/p+1),
    so the smallest such M never exceeds K.
    """
    cases = [
        (dist.DistributionSpec.exponential(), 1.0),
        (dist.DistributionSpec.weibull(2.0, 1.5), 2.0),
        (dist.DistributionSpec.pnormal(3.0), 3.0),
        (dist.DistributionSpec.halfgauss_pow(2.0, 0.5), 2.0),
    ]
    worst = 0.0
    try:
        for spec, p in cases:
            k = orlicz.psi_norm_analytic(spec, p).value
            worst = max(worst, orlicz.check_equivalence(spec, p, k) / k)
    except Exception as exc:  # a raise means a violated bound
        return _result("orlicz.tail_bound_grid", False, str(exc))
    return _result(
        "orlicz.tail_bound_grid",
        worst <= 1.0,
        f"{len(cases)} families certified, max M/K = {worst:.3g}",
    )


def check_tail_to_norm_conversion() -> CheckResult:
    """A certified tail constant L bounds the norm by 3**(1/p) * L."""
    worst = -math.inf
    for spec, p in (
        (dist.DistributionSpec.exponential(), 1.0),
        (dist.DistributionSpec.weibull(3.0, 2.0), 3.0),
        (dist.DistributionSpec.pnormal(2.0), 2.0),
    ):
        L = orlicz.psi_norm_analytic(spec, p).value
        value = orlicz.psi_norm_quadrature(spec, p).value
        worst = max(worst, value - 3.0 ** (1.0 / p) * L)
    return _result(
        "orlicz.tail_to_norm_conversion", worst <= 1e-6, f"max excess = {worst:.3g}"
    )


def check_quasinorm_small_p() -> CheckResult:
    """For p < 1 only homogeneity and definiteness are claimed."""
    p = 0.5
    base = orlicz.psi_norm_quadrature(dist.DistributionSpec.weibull(p, 1.0), p).value
    scaled = orlicz.psi_norm_quadrature(dist.DistributionSpec.weibull(p, 2.5), p).value
    homogeneous = abs(scaled - 2.5 * base) / (2.5 * base) <= 2e-6
    definite = base > 0.0
    return _result(
        "orlicz.quasinorm_small_p",
        homogeneous and definite,
        f"norm={base:.6g}, scaled rel err={(abs(scaled - 2.5 * base) / (2.5 * base)):.2e}",
    )


def check_phi_monotone() -> CheckResult:
    law = dist.canonical(dist.DistributionSpec.pnormal(2.0))
    ks = np.linspace(1.3, 8.0, 12)
    vals = [orlicz.exp_moment(law, 2.0, float(k)) for k in ks]
    ok = all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    return _result("orlicz.exp_moment_monotone", ok, f"range [{vals[-1]:.4g}, {vals[0]:.4g}]")


def check_centering_bound() -> CheckResult:
    cases = [
        (dist.DistributionSpec.exponential(), 1.0),
        (dist.DistributionSpec.weibull(2.0, 1.0), 2.0),
        (dist.DistributionSpec.pnormal(3.0), 3.0),
    ]
    details = []
    ok = True
    for spec, p in cases:
        lhs, rhs = orlicz.centering_bound_check(spec, p)
        ok &= lhs <= rhs + 1e-6
        details.append(f"{spec.family}: {lhs:.6g} <= {rhs:.6g}")
    return _result("orlicz.centering_bound", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# tau


def check_conjugacy() -> CheckResult:
    ts = np.linspace(-10.0, 10.0, 1000)
    got = tau.convex_conjugate(tau.phi_inf, ts, search_bound=2.0)
    worst = float(np.max(np.abs(got - tau.phi1(ts))))
    return _result("tau.conjugacy", worst <= 1e-9, f"max |conj - phi1| = {worst:.3g}")


def check_biconjugacy() -> CheckResult:
    inner = lambda u: tau.convex_conjugate(tau.phi_inf, u, search_bound=2.0)
    ts = np.linspace(-0.999, 0.999, 101)
    got = tau.convex_conjugate(inner, ts, search_bound=50.0)
    worst = float(np.max(np.abs(got - tau.phi_inf(ts))))
    return _result("tau.biconjugacy", worst <= 1e-6, f"max err = {worst:.3g}")


def check_tau_values() -> CheckResult:
    """Each norm is its closed form, 2, sqrt(n) + 1 or sigma, to 1e-12 relative."""
    cases = [(tau.exp_centered(), 1e-8, 2.0)]
    cases += [(tau.iid_sum(tau.exp_centered(), n), 1e-6, math.sqrt(n) + 1.0)
              for n in (1, 4, 9, 100)]
    cases += [(tau.gaussian(sigma), 1e-8, sigma) for sigma in (0.5, 1.0, 2.0)]
    worst = max(abs(tau.tau_norm(cum, tol).value - exact) / exact for cum, tol, exact in cases)
    return _result("tau.values", worst <= 1e-12,
                   f"max relative error = {worst:.3g} over {len(cases)} norms")


def check_tau_mgf_domination() -> CheckResult:
    """The returned norm K dominates the cumulant on [-1/K, 1/K]; curvature closes at 1/K."""
    cum = tau.exp_centered()
    k = tau.tau_norm(cum, tol=1e-8).value
    worst = -math.inf
    for t in np.linspace(-1.0 / k, 1.0 / k, 1000):
        slack = float(cum.value(float(t))) - 0.5 * (k * float(t)) ** 2
        worst = max(worst, slack)
    curvature_gap = abs(float(cum.curvature(1.0 / k)) - k * k)
    return _result(
        "tau.mgf_domination",
        worst <= 1e-12 and curvature_gap <= 1e-9,
        f"max violation = {worst:.3g}, boundary curvature gap = {curvature_gap:.3g}",
    )


def check_tau_tightness() -> CheckResult:
    """Feasibility flips across both the exact norm and the returned one."""
    ok = True
    for cum, exact in ((tau.exp_centered(), 2.0), (tau.gaussian(1.5), 1.5)):
        for value in {exact, tau.tau_norm(cum, tol=1e-8).value}:
            ok &= tau.tau_feasible(cum, value)
            ok &= not tau.tau_feasible(cum, value * (1.0 - 1e-3))
    return _result("tau.tightness", ok, f"flips at the exact and returned values = {ok}")


def check_phi1_min_inequality() -> CheckResult:
    u = np.linspace(0.0, 10.0, 100_001)
    ok = bool(np.all(conc.phi1_min_inequality(u)))
    return _result("tau.phi1_min_inequality", ok, f"{u.size} grid points")


def check_tau_scaling() -> CheckResult:
    base = tau.exp_centered()
    worst = 0.0
    for a in (0.5, 2.0):
        got = tau.tau_norm(tau.scaled(base, a), tol=1e-8).value
        worst = max(worst, abs(got - 2.0 * a) / (2.0 * a))
    return _result("tau.scaling", worst <= 1e-12,
                   f"max |tau(aX) - a tau(X)| / (a tau(X)) = {worst:.3g}")


def check_rotation_invariance() -> CheckResult:
    spec = dist.DistributionSpec.exponential()
    details = []
    ok = True
    for n in (1, 9, 100):
        lhs, rhs = tau.rotation_invariance_check([spec] * n)
        ok &= lhs <= rhs + 1e-6
        if n == 1:
            ok &= abs(lhs - rhs) <= 1e-6
        details.append(f"n={n}: {lhs:.6g} <= {rhs:.6g}")
    return _result("tau.rotation_invariance", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# concentration lemmas


def check_lemma_batches(seed: int = 20_240) -> CheckResult:
    cases = 100_000
    gen = RandomStream(seed, 0).generator()
    a = gen.uniform(0.0, 100.0, cases)
    b = gen.uniform(0.0, 100.0, cases)
    p1 = gen.uniform(1.0, 10.0, cases)
    fail_concavity = int(np.count_nonzero(~conc.lemma_concavity(a, b, p1)))
    x = gen.uniform(0.0, 20.0, cases)
    delta = gen.uniform(0.0, 10.0, cases)
    fail_xalfa = int(np.count_nonzero(~conc.lemma_xalfa(x, delta, p1)))
    gamma = gen.uniform(0.0, 20.0, cases)
    p2 = gen.uniform(2.0, 10.0, cases)
    fail_phi1 = int(np.count_nonzero(~conc.lemma_phi1_power(gamma, p2)))
    u = gen.uniform(0.0, 50.0, cases)
    fail_min = int(np.count_nonzero(~conc.phi1_min_inequality(u)))
    fails = fail_concavity + fail_xalfa + fail_phi1 + fail_min
    return _result(
        "conc.lemma_batches",
        fails == 0,
        f"{cases} cases each: concavity={fail_concavity}, power={fail_xalfa}, "
        f"phi1_power={fail_phi1}, min_form={fail_min} failures",
    )


def check_norm_vs_moment() -> CheckResult:
    """The order-p norm to the p dominates the p-th absolute moment."""
    ok = True
    details = []
    for spec, p in (
        (dist.DistributionSpec.pnormal(2.5), 2.5),
        (dist.DistributionSpec.weibull(2.0, 1.7), 2.0),
        (dist.DistributionSpec.exponential(), 1.0),
    ):
        k_pow = orlicz.psi_norm_analytic(spec, p).value ** p
        mom = dist.moment_abs(spec, p)
        ok &= k_pow >= mom
        details.append(f"{spec.family}: {k_pow:.4g} >= {mom:.4g}")
    return _result("conc.norm_vs_moment", ok, "; ".join(details))


def check_lp_subadditivity() -> CheckResult:
    gen = RandomStream(99, 0).generator()
    worst = -math.inf
    for _ in range(200):
        n = int(gen.integers(1, 40))
        p = float(gen.uniform(1.0, 6.0))
        x = gen.normal(size=n) * 10.0
        y = gen.normal(size=n) * 10.0
        worst = max(
            worst, conc.lp_norm(x + y, p) - conc.lp_norm(x, p) - conc.lp_norm(y, p)
        )
    return _result("conc.lp_subadditivity", worst <= 1e-9, f"max excess = {worst:.3g}")


# ---------------------------------------------------------------------------
# monte carlo


def check_center_values() -> CheckResult:
    worst = 0.0
    m = conc.VectorModel(dist.DistributionSpec.pnormal(3.0), 17, 3.0)
    worst = max(worst, abs(montecarlo.center_value(m) - 17.0 ** (1.0 / 3.0)))
    m = conc.VectorModel(dist.DistributionSpec.exponential(), 25, 1.0)
    worst = max(worst, abs(montecarlo.center_value(m) - 25.0))
    spec = dist.DistributionSpec.weibull(2.0, 1.5)
    m = conc.VectorModel(spec, 9, 2.0)
    worst = max(worst, abs(montecarlo.center_value(m) - 1.5 * 3.0))
    quad_moment = dist.moment_abs_quadrature(spec, 2.0)
    worst = max(worst, abs(quad_moment - dist.moment_abs(spec, 2.0)))
    return _result("mc.center_values", worst <= 1e-8, f"max abs err = {worst:.3g}")


def csv_reproducibility(
    runs: Mapping[object, Sequence[montecarlo.ConcentrationReport]],
) -> CheckResult:
    """Report and tail CSV bytes are identical across runs keyed by worker count."""
    texts = [(montecarlo.reports_to_csv(r), montecarlo.tails_to_csv(r)) for r in runs.values()]
    same_reports = all(t[0] == texts[0][0] for t in texts)
    same_tails = all(t[1] == texts[0][1] for t in texts)
    return _result(
        "mc.reproducibility",
        same_reports and same_tails,
        f"worker counts {' vs '.join(map(str, runs))}: report CSV identical = {same_reports}, "
        f"tail CSV identical = {same_tails}",
    )


def check_reproducibility() -> CheckResult:
    plan = montecarlo.ExperimentPlan(
        conc.VectorModel(dist.DistributionSpec.pnormal(2.0), 16, 2.0), 2_000, 31_337
    )
    runs = {}
    for workers in (1, 4):
        with montecarlo.worker_threads(workers):
            runs[workers] = [montecarlo.run_report(plan)]
    return csv_reproducibility(runs)


def check_tail_monotone() -> CheckResult:
    plan = montecarlo.ExperimentPlan(
        conc.VectorModel(dist.DistributionSpec.exponential(), 32, 1.0), 10_000, 5
    )
    rows = montecarlo.tail_exceedance(plan)
    freqs = [f for _, f, _ in rows]
    ok = all(a >= b for a, b in zip(freqs, freqs[1:])) and freqs[0] == 1.0
    return _result("mc.tail_monotone", ok, f"freq range [{freqs[-1]:.3g}, {freqs[0]:.3g}]")


N_GRID = (16, 64, 256, 1024, 4096)


def growth_contrast(
    free_spec: dist.DistributionSpec,
    free: Sequence[montecarlo.ConcentrationReport],
    sqrt_law: Sequence[montecarlo.ConcentrationReport],
) -> CheckResult:
    """Deviation norms stay flat in n for ``free`` and grow like sqrt(n) for ``sqrt_law``.

    ``free`` holds reports of ``free_spec`` coordinates at an order p >= 2
    over a grid of dimensions: its log-log slope lies in [-0.1, 0.1], its
    largest fitted dimension-free constant C is at most 8, and the bound at
    that single C dominates every dimension.  ``sqrt_law`` holds order-1
    reports whose slope lies in [0.4, 0.6] and whose dimension-dependent
    constants agree within a factor 1.8.
    """
    slope_free = montecarlo.loglog_slope([r.n for r in free], [r.emp_dev_norm for r in free])
    single_c = max(r.thm14_C for r in free)
    free_model = conc.VectorModel(free_spec, free[0].n, free[0].p)
    bound = montecarlo.model_bounds(free_model).thm14(single_c)
    dominates = all(bound >= r.emp_dev_norm for r in free)
    slope_sqrt = montecarlo.loglog_slope(
        [r.n for r in sqrt_law], [r.emp_dev_norm for r in sqrt_law]
    )
    c_vals = [r.prop13_C for r in sqrt_law]
    spread = max(c_vals) / min(c_vals)
    ok = (
        -0.1 <= slope_free <= 0.1
        and single_c <= 8.0
        and dominates
        and 0.4 <= slope_sqrt <= 0.6
        and spread <= 1.8
    )
    return _result(
        "mc.growth_rates",
        ok,
        f"dimension-free slope {slope_free:+.4f} (C = {single_c:g}, dominates every n = "
        f"{dominates}), sqrt-law slope {slope_sqrt:.4f} (prop13 C max/min = {spread:.3g})",
    )


def check_growth_rates(trials: int = TRIALS, seed: int = SEED) -> CheckResult:
    free_spec = dist.DistributionSpec.pnormal(2.0)
    free = montecarlo.growth_suite(free_spec, 2.0, N_GRID, trials, seed, bootstrap=False)
    sqrt_law = montecarlo.growth_suite(
        dist.DistributionSpec.exponential(), 1.0, N_GRID, trials, seed, bootstrap=False
    )
    return growth_contrast(free_spec, free, sqrt_law)


def tail_domination(
    cases: Sequence[tuple[dist.DistributionSpec, montecarlo.ConcentrationReport]],
    constant: float | None = None,
) -> CheckResult:
    """Every report has ``TAIL_POINTS`` tail rows whose frequencies stay within 3 SE of the bound.

    The bound is each row's own, or, given ``constant``, the report model's
    tail bound at that single constant (dimension-free for p >= 2).
    """
    ok = True
    details = []
    for spec, report in cases:
        bound = lambda row: row.bound
        if constant is not None:
            tail = montecarlo.model_bounds(conc.VectorModel(spec, report.n, report.p)).tail
            bound = lambda row: tail(row.t, constant)
        rows = report.tail_rows
        bad = [row for row in rows if not montecarlo.bound_dominates(bound(row), row.freq, row.se)]
        ok &= len(rows) == montecarlo.TAIL_POINTS and not bad
        details.append(f"{spec.family} n={report.n}: {len(rows)} rows, {len(bad)} violations")
    at = "" if constant is None else f" at C = {constant:g}"
    return _result("mc.bound_domination", ok, "; ".join(details) + at)


def _exact_exp_tail(report: montecarlo.ConcentrationReport) -> montecarlo.ConcentrationReport:
    """A 1-norm report of unit exponentials with its tail rows bounded by the exact tail.

    The 1-norm of n unit exponentials is their sum S ~ Gamma(n, 1), centered
    at n, so P(|S - n| >= t) = Q(n, n + t) + P(n, n - t), with P and Q the
    regularized lower and upper incomplete gamma functions; the lower term is
    0 once t >= n, where n - t leaves the support.  The report's own Bernstein
    constant is fitted to these rows with the 3-SE rule that
    :func:`tail_domination` applies, so it cannot fail there, and even at
    C1 = 1 the Bernstein bound stays above 0.6 on the whole grid.
    """
    n = report.n
    exact = lambda t: gammaincc(n, n + t) + (gammainc(n, n - t) if t < n else 0.0)
    rows = tuple(replace(row, bound=exact(row.t), C=math.nan) for row in report.tail_rows)
    return replace(report, tail_rows=rows)


def check_bound_domination(seed: int = 778) -> CheckResult:
    cases = []
    for spec, n, p in (
        (dist.DistributionSpec.exponential(), 100, 1.0),
        (dist.DistributionSpec.pnormal(3.0), 256, 3.0),
    ):
        plan = montecarlo.ExperimentPlan(conc.VectorModel(spec, n, p), 10_000, seed)
        report = montecarlo.run_report(plan, bootstrap=False)
        cases.append((spec, _exact_exp_tail(report) if p < 2.0 else report))
    return tail_domination(cases)


# ---------------------------------------------------------------------------
# driver


def run_all(trials: int = TRIALS, seed: int = SEED) -> list[CheckResult]:
    """Every module-level ``check_*`` once, in definition order.

    The checks are looked up when called, so wrappers installed on this
    module's names are the ones that run.
    """
    budgets = {
        "check_growth_rates": {"trials": trials, "seed": seed},
        "check_bound_domination": {"seed": seed},
    }
    return [
        check(**budgets.get(name, {}))
        for name, check in list(globals().items())
        if name.startswith("check_")
    ]
