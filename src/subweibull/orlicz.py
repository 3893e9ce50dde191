"""Luxemburg-type psi_p quasi-norms, three ways.

The norm of X at order p is the smallest K with E exp(|X/K|**p) <= 2.  The
exponential moment Phi(K) is nonincreasing in K, so the infimum is found by
bracket expansion followed by bisection.  Phi is evaluated either from a
closed-form table (``psi_norm_analytic``), by quadrature in the canonical
base variable (``psi_norm_quadrature``), or as a sample mean
(``psi_norm_empirical``).

A quadrature norm is the norm of the law at scale 1 times the scale (the
norm is homogeneous), so its search, its ceiling and its tolerance all work
in units of the scale.  A safeguarded secant on log Phi - log 2 brackets
that root to 1e-12 relative (see ``_locate_root``); Phi at the bracket's
ends, both already computed, straddles 2, and the bracket is the answer,
bisected on only while it is wider than the tolerance.  A root the secant
cannot bracket is bisected from the floor by ``_bisect_norm``.  That rule
is ``_root_norm``, which ``tau.tau_norm`` shares on its curvature margin.

The sample norm returns the bits of ``_bisect_norm`` without paying for
its probes, so that its ends stay comparisons of the draws.  Each row's
root is located by Newton, started at a two-moment bound on the root and
stopped after its first step below 1e-6 relative (see ``_newton_roots``).
The bisection is then replayed in plain floats against that point root,
with no Phi but the same ``_bracket`` (see ``_replay``).  It asks for no K
strictly inside its final bracket (after a shrink, its first hi is the
floor's last halving), so real evaluations of Phi at the replay's final lo
and hi, one batched call for every row of a sample, certify it.  A norm the
certificate rejects is bisected on its own Phi.

Divergent exponential moments are recognized in closed form for the
canonical integrands (the growth exponent versus the base density's decay
decides it, ``CanonicalLaw.exp_moment_converges``); the quadrature layer
integrates only what the law calls convergent.  For 0 < p < 1 the
functional is only a quasi-norm: it is absolutely homogeneous and definite
but does not satisfy the triangle inequality, and nothing here assumes it
does.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .dist import (
    DistributionSpec,
    CanonicalLaw,
    _EXP_CAP,
    canonical,
    exact_upper_tail,
    mean,
    moment_abs_quadrature,
)
from .errors import (
    DivergenceError,
    InsufficientSamplesError,
    NoClosedFormError,
    ParameterError,
    VerificationError,
)
from .quadrature import improper_integral

METHOD_ANALYTIC = "analytic"
METHOD_QUADRATURE = "quadrature"
METHOD_EMPIRICAL = "empirical"

DEFAULT_TOL = 1e-6  # absolute bisection bracket width
QUADRATURE_K_MAX = 1e9  # quadrature norms above this many times the scale count as divergent
MAX_BISECTIONS = 200
_EMPIRICAL_K_MAX = 1e18  # empirical norms above this ceiling count as divergent
_NEWTON_STEPS = 100  # a row still moving after this many goes to the certificate as it is
# relative Newton step after which the root search ends: convergence is
# quadratic, so the step it takes leaves an error near 1e-12 relative
_NEWTON_RTOL = 1e-6
_LOCATE_RTOL = 1e-12  # relative bracket width that ends a secant root search
_LOCATE_PROBES = 60  # cap on the secant probes of one root search
# 2**-1022: halving a double at or above it is exact, so a floor halved
# below it ends the search at the zero norm
_SMALLEST_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class OrliczNormResult:
    """Norm value plus how it was obtained.

    ``bracket`` is the final (lo, hi) bisection interval containing the
    infimum; ``residual`` is |Phi(value) - 2| at the returned value.
    """

    value: float
    p: float
    method: str
    bracket: tuple[float, float]
    residual: float


# ---------------------------------------------------------------------------
# exponential moment Phi(K) = E exp(|X - center|**p / K**p)


def exp_moment(law: CanonicalLaw, p: float, K: float, center: float = 0.0) -> float:
    """E exp(|X - center|**p / K**p) for |X| = c * B**e; inf when divergent.

    The integral is taken in the base variable, which removes the density's
    endpoint singularity.  Convergence is classified in closed form from the
    growth exponent r = e*p against the base decay; the classification
    ignores the center shift, which only matters on the measure-zero
    boundary r == boundary, a == critical.  A ``K**-p`` that overflows, or
    that falls below the normal floats (where ``y**p`` overflows before the
    product would come back into range), is avoided by taking the moment in
    units of K, where an ``a`` that overflows means an inf moment.
    """
    if K <= 0.0:
        raise ParameterError(f"K must be > 0, got {K}")
    try:
        a, inv_kp = (law.scale / K) ** p, K**-p
        if inv_kp < _SMALLEST_NORMAL:  # subnormal or 0: the same moment in units of K
            raise OverflowError
    except OverflowError:
        units = CanonicalLaw(law.k, law.scale / K, law.order)
        return math.inf if K == 1.0 else exp_moment(units, p, 1.0, center / K)
    r = law.exponent(p)
    if not law.exp_moment_converges(a, r):
        return math.inf
    e = law.e
    c = law.scale
    gauss = law.k != 1.0
    log_pdf0 = law.log_base_pdf(0.0)  # for |g|, its density's log constant
    cap = math.exp(_EXP_CAP)
    at_inf = 0.0 if law.exp_moment_converges(math.inf, r) else cap
    exp, inf = math.exp, math.inf

    # law.log_base_pdf inlined, its float operations in its order, so every
    # value keeps its bits (a + (-x) is a - x) with no call per node
    def integrand(x: float) -> float:
        y = c * x**e - center
        y = -y if y < 0.0 else y
        if y == inf:
            return at_inf
        try:
            val = y**p * inv_kp
        except OverflowError:  # y**p > 1e308 is above the cap for every K**p < 1e305
            return cap
        val = val + (log_pdf0 - 0.5 * x * x) if gauss else val - x
        return cap if val > _EXP_CAP else exp(val)

    breakpoints = ()
    if center > 0.0:
        breakpoints = ((center / c) ** (1.0 / e),)
    return improper_integral(integrand, breakpoints=breakpoints)


def _bisect_norm(
    phi, lo_start: float, p: float, tol: float, method: str, k_max: float
) -> OrliczNormResult:
    """Smallest K with phi(K) <= 2 for a nonincreasing scalar ``phi``: bisects its ``_bracket``."""
    if not tol > 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    lo, f_lo, hi, f_hi = _bracket(phi, lo_start, k_max)
    if lo == 0.0:
        return OrliczNormResult(0.0, p, method, (0.0, hi), abs(f_hi - 2.0))
    return _bisect_bracket(phi, lo, f_lo, hi, f_hi, p, tol, method)


def _bracket(phi, lo_start: float, k_max: float):
    """``_bisect_norm``'s first (lo, phi(lo), hi, phi(hi)): phi(hi) <= 2 < phi(lo), hi <= k_max.

    The floor is halved while phi(lo) <= 2, and hi is then its last halving,
    so no K asked for lies inside the final bracket; else hi = max(2 lo, 1).
    hi doubles while phi(hi) is above 2 or NaN, and a hi past ``k_max``
    raises ``DivergenceError`` before phi sees it.  A floor halved below
    2**-1022 is the zero norm: lo = 0.0, hi = lo_start, phi(lo_start).
    """
    lo = lo_start
    f_lo = f_start = phi(lo)
    # degenerate laws may already satisfy the condition at the floor
    while f_lo <= 2.0:
        lo *= 0.5
        if lo < _SMALLEST_NORMAL:
            return 0.0, f_lo, lo_start, f_start
        f_lo = phi(lo)
    hi = 2.0 * lo if lo < lo_start else max(2.0 * lo, 1.0)
    while hi <= k_max:
        f_hi = phi(hi)
        if f_hi <= 2.0:
            return lo, f_lo, hi, f_hi
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
    raise _diverged(k_max)


def _diverged(k_max: float) -> DivergenceError:
    return DivergenceError(f"exponential moment stays above 2 for every K up to {k_max:g}")


def _bisect_bracket(
    phi, lo: float, f_lo: float, hi: float, f_hi: float, p: float, tol: float, method: str
) -> OrliczNormResult:
    """``_bisect_norm``'s bisection of (lo, hi), phi(hi) <= 2 < phi(lo).

    It stops at a width of ``tol``, at adjacent doubles (whose midpoint is
    an end, so no halving moves either) or after ``MAX_BISECTIONS`` steps.
    """
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or not lo < mid < hi:
            break
        f_mid = phi(mid)
        # phi >= 0, so values in order pass the test outright
        if not (f_hi <= f_mid <= f_lo or _monotone(f_lo, f_mid, f_hi)):
            raise VerificationError(
                f"exponential moment not monotone on bracket: "
                f"phi({lo:g})={f_lo:g}, phi({mid:g})={f_mid:g}, phi({hi:g})={f_hi:g}"
            )
        if f_mid <= 2.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return OrliczNormResult(hi, p, method, (lo, hi), abs(f_hi - 2.0))


def _monotone(f_lo: float, f_mid: float, f_hi: float) -> bool:
    """Whether phi values at K_lo < K_mid < K_hi are nonincreasing, to rounding."""
    if math.isfinite(f_mid):
        return f_lo * (1.0 + 1e-9) >= f_mid >= f_hi * (1.0 - 1e-9) - 1e-12
    return math.isinf(f_lo)


def _locate_root(g, floor: float, ceiling: float):
    """(a, b) with g(a) > 0 >= g(b) and b - a at most about 1e-12 b, or None.

    ``g`` is positive below its root, possibly +inf, and at most 0 from the
    root on; its sign is the decision a bisection takes, so a and b are
    decided exactly as the bisection would decide them.  The root is
    bracketed by doubling from 1 up to ``ceiling`` (from ``floor`` when
    g(1) <= 0), then the bracket is narrowed by regula falsi with the
    Anderson-Bjorck rule, halved instead while g(a) is not finite.  None when
    g(floor) <= 0 or g stays positive up to ``ceiling``.
    """
    a, b = None, 1.0
    gb = g(b)
    while not gb <= 0.0:
        a, ga = b, gb
        b *= 2.0
        if b > ceiling:
            return None
        gb = g(b)
    if a is None:
        a, ga = floor, g(floor)
        if not ga > 0.0:
            return None
    moved = 0  # the end the last probe moved: -1 for b, 1 for a
    for _ in range(_LOCATE_PROBES):
        width = b - a
        if width <= _LOCATE_RTOL * b:
            break
        if math.isfinite(ga):
            # a quarter of the target width from either end, so a probe next
            # to an end that lands on the expected side ends the search
            edge = 0.25 * _LOCATE_RTOL * b
            x = min(max(b - gb * width / (gb - ga), a + edge), b - edge)
        else:
            x = a + 0.5 * width
        gx = g(x)
        # Anderson-Bjorck: an end kept twice in a row has its g scaled down
        if gx <= 0.0:
            if moved < 0:
                ga *= _anderson_bjorck(gx, gb)
            b, gb, moved = x, gx, -1
        else:
            if moved > 0:
                gb *= _anderson_bjorck(gx, ga)
            a, ga, moved = x, gx, 1
    return a, b


def _anderson_bjorck(g_new: float, g_old: float) -> float:
    """Weight for the kept end when a probe g_new replaces the same end, g_old, again.

    An end at g = 0 exactly (a root, as subnormal values of g can round to)
    gets the plain halving weight.
    """
    m = 1.0 - g_new / g_old if g_old else 0.0
    return m if m > 0.0 else 0.5


def _root_norm(
    phi, g, floor: float, lo_start: float, k_max: float, p: float, tol: float, method: str
) -> OrliczNormResult:
    """Smallest K with phi(K) <= 2, from the bracket ``_locate_root`` finds on ``g``.

    ``g`` has the sign of the test phi(K) <= 2, and phi is cheap to ask again
    at the points g has seen.  A located (a, b) with phi(b) <= 2 < phi(a) is
    bisected on only while it is wider than ``tol``; a root the secant
    cannot bracket, or a bracket whose ends do not straddle 2, is bisected
    from ``lo_start`` by ``_bisect_norm``, with all of its checks and errors.
    """
    located = _locate_root(g, floor, k_max)
    if located is not None:
        a, b = located
        f_a, f_b = phi(a), phi(b)
        if f_b <= 2.0 < f_a:
            return _bisect_bracket(phi, a, f_a, b, f_b, p, tol, method)
    return _bisect_norm(phi, lo_start, p, tol, method, k_max)


def psi_norm_quadrature_canonical(
    law: CanonicalLaw,
    p: float,
    tol: float = DEFAULT_TOL,
    *,
    center: float = 0.0,
) -> OrliczNormResult:
    """Norm at order p of ``law`` shifted by ``center``, from the norm of its unit law.

    The norm is homogeneous, so it is ``scale`` times the norm of the law at
    scale 1, shifted by ``center / scale``.  There a secant on log Phi - log 2
    brackets the root to 1e-12 relative, and a bracket still wider than
    ``tol`` is bisected on (see ``_root_norm``).  ``tol`` and the ceiling
    ``QUADRATURE_K_MAX`` are in units of the scale, so the norm of 2**k X is
    2**k times the norm of X, bit for bit.
    """
    if not p > 0.0:
        raise ParameterError(f"p must be > 0, got {p}")
    if not tol > 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    scale = law.scale
    unit = CanonicalLaw(law.k, 1.0, law.order)
    # cached, so checking the located ends costs no quadrature
    phi = functools.cache(lambda K: exp_moment(unit, p, K, center / scale))
    try:
        # phi / 2 is exact and log(x) <= 0 exactly when x <= 1, so the sign of
        # g is the bisection's test phi <= 2
        result = _root_norm(phi, lambda K: math.log(phi(K) / 2.0), 1e-6, 1e-6, QUADRATURE_K_MAX,
                            p, tol, METHOD_QUADRATURE)
    except DivergenceError:
        raise _diverged(scale * QUADRATURE_K_MAX) from None
    lo, hi = result.bracket
    return OrliczNormResult(scale * result.value, p, METHOD_QUADRATURE, (scale * lo, scale * hi),
                            result.residual)


def psi_norm_quadrature(
    spec: DistributionSpec, p: float, tol: float = DEFAULT_TOL
) -> OrliczNormResult:
    """Norm at order p by quadrature, from the located root of its unit law.

    The bracket is about 1e-12 relative wide, or narrower than ``tol`` times
    the law's scale where that is tighter, and ``residual`` is |Phi - 2| at
    its upper end (see ``psi_norm_quadrature_canonical``).
    """
    return psi_norm_quadrature_canonical(canonical(spec), p, tol)


def psi_norm_empirical(samples, p: float, tol: float = DEFAULT_TOL):
    """Sample version: smallest K with mean exp(|x_i/K|**p) <= 2.

    A 1-D ``samples`` gives one result.  A 2-D ``samples`` holds one sample
    per row and gives a list with one result per row, each bitwise equal to
    the 1-D call on that row.

    The result is the monotone bisection's, bit for bit, found with far fewer
    passes over the sample: Newton locates each row's root, the bisection is
    replayed against it, and one batched evaluation certifies every row's
    replay (see ``_located_bisection``).  A row the certificate rejects is
    bisected directly, on its own.

    The estimator is consistent but biased low in small samples (extreme
    tails go unobserved); no correction is applied.
    """
    if not p > 0.0:
        raise ParameterError(f"p must be > 0, got {p}")
    # an infinite tol would put the search's floor at inf, which halves to inf
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and > 0, got {tol}")
    a = np.abs(np.asarray(samples, dtype=float))
    if a.ndim > 2:
        raise ParameterError(f"samples must be 1-D or 2-D, got shape {a.shape}")
    rows = np.atleast_2d(a)
    n = rows.shape[1]
    if n < 100:
        raise InsufficientSamplesError(f"need at least 100 samples, got {n}")
    top = rows.max(axis=1)
    # NaN propagates through max and |x| has no -inf, so this checks every sample
    if not np.all(np.isfinite(top)):
        raise ParameterError("samples must be finite")
    live = np.flatnonzero(top > 0.0)
    x = rows if len(live) == len(rows) else rows[live]
    top = top[live]

    def phi(K: np.ndarray, idx: np.ndarray) -> np.ndarray:
        terms = _exp_terms(x[idx], K[:, None], p)
        with np.errstate(over="ignore"):
            # np.mean of a row, bit for bit
            return np.add.reduce(terms, axis=1) / n

    # at this K the largest sample alone pushes the mean above 2; the floor
    # at tol is corrected downward by the bisection if it overshoots
    lo = np.maximum(tol, top / math.log(2.0 * n) ** (1.0 / p))
    found = _located_bisection(phi, _newton_roots(x, top, p).tolist(), lo.tolist(), p, tol)
    # an all-zero row has norm 0
    results = [OrliczNormResult(0.0, p, METHOD_EMPIRICAL, (0.0, tol), 1.0)] * len(rows)
    for i, result in zip(live.tolist(), found):
        results[i] = result
    return results if a.ndim == 2 else results[0]


def _exp_terms(terms: np.ndarray, K, p: float) -> np.ndarray:
    """exp(min((terms/K)**p, cap)) in place, the terms of the sample Phi(K); returns ``terms``.

    Every operation acts on each value alone, so gathering values before or
    after this gives the same bits: the mean of a gathered table of terms at
    K is Phi(K) of the gathered sample.
    """
    with np.errstate(over="ignore"):
        terms /= K
        if p != 1.0:  # x**1.0 is x
            terms **= p
        np.minimum(terms, _EXP_CAP, out=terms)
        np.exp(terms, out=terms)
    return terms


def _newton_roots(x: np.ndarray, top: np.ndarray, p: float) -> np.ndarray:
    """Each row's K with mean exp((x/K)**p) = 2, by Newton; ``top`` is the row's max, > 0.

    With y = (x/top)**p <= 1 and s = (top/K)**p, g(s) = log mean exp(s*y) - log 2
    is convex and increasing in s.  Newton starts where g >= 0 (see
    ``_newton_start``), so its steps fall monotonically to the root and s*y
    never exceeds log(2n).  It stops once every row's step is below
    ``_NEWTON_RTOL`` relative: the error left after that step is about its
    square, near 1e-12 relative.
    """
    n = x.shape[1]
    y = x / top[:, None]
    if p != 1.0:  # x**1.0 is x
        y **= p
    work = np.empty_like(y)
    s = _newton_start(y)
    for _ in range(_NEWTON_STEPS):
        np.multiply(y, s[:, None], out=work)
        np.exp(work, out=work)
        total = np.add.reduce(work, axis=1)
        # g / g', where g' = sum(y exp(s*y)) / sum(exp(s*y))
        step = np.log(total / (2.0 * n)) * total / np.einsum("ij,ij->i", work, y)
        s -= step
        if not np.any(np.abs(step) > _NEWTON_RTOL * s):
            break
    return top * s ** (-1.0 / p)


def _newton_start(y: np.ndarray) -> np.ndarray:
    """Each row's s with mean exp(s*y) >= 2, to rounding, and s*y <= log(2n), given max(y) = 1.

    At s = log(2n) the largest sample alone brings the mean to 2.  With m and
    q the row's means of y and y**2, and t = q/m <= 1: exp(s*y) lies above
    the parabola that meets it at y = 0 and touches it at y = t, since their
    gap is s**3 exp(s*xi) y (y - t)**2 / 6 >= 0 for y >= 0.  The parabola's
    mean is fixed by m and q, so mean exp(s*y) >= 1 - w + w exp(s*t) with
    w = m**2 / q, the two-point law on {0, t}.  That is 2 at
    s = log(1 + q/m**2) / t, never above the Jensen bound log(2) / m.
    """
    n = y.shape[1]
    m = np.add.reduce(y, axis=1) / n
    q = np.einsum("ij,ij->i", y, y) / n
    return np.minimum(math.log(2.0 * n), m / q * np.log1p(q / (m * m)))


def _located_bisection(phi, roots, lo_start, p: float, tol: float):
    """``_bisect_norm`` of each row's phi, bit for bit, steered by located point roots.

    ``phi(K, rows)`` evaluates the rows ``rows`` at the matching entries of
    the array ``K``.  Row i's bisection is replayed against "phi(K) <= 2
    exactly when K > roots[i]" (see ``_replay``), and one batched phi call
    takes every replay's final lo and hi.  The row is certified when
    phi(hi) <= 2 < phi(lo): the bisection asks for no K strictly inside its
    final bracket, so phi, being nonincreasing, decides every K the replay
    asked for as the replay did, whatever the root, and the replay's bracket
    is the bisection's.  A row that fails the certificate, or whose replay
    diverges or ends at the zero norm, is bisected alone on phi, with every
    check and error of ``_bisect_norm``.
    """
    replays = [_replay(lo, root, tol) for lo, root in zip(lo_start, roots)]
    rows = [i for i, replay in enumerate(replays) if replay is not None]
    points = [K for i in rows for K in replays[i]]
    values = iter(phi(np.array(points), np.repeat(np.array(rows, dtype=int), 2)).tolist())
    results = []
    for i, replay in enumerate(replays):
        if replay is not None:
            lo, hi = replay
            f_lo, f_hi = next(values), next(values)
            if f_hi <= 2.0 < f_lo:
                results.append(OrliczNormResult(hi, p, METHOD_EMPIRICAL, (lo, hi), abs(f_hi - 2.0)))
                continue
        results.append(_bisect_norm(
            lambda K: phi(np.array([K]), np.array([i])).item(), lo_start[i], p, tol,
            METHOD_EMPIRICAL, _EMPIRICAL_K_MAX,
        ))
    return results


def _replay(lo_start: float, root: float, tol: float):
    """``_bisect_norm``'s final (lo, hi) on "phi(K) <= 2 exactly when K > root".

    None where its ``_bracket`` ends at the zero norm or raises
    ``DivergenceError``.  It stops where ``_bisect_bracket`` does.
    """
    try:
        lo, _, hi, _ = _bracket(
            lambda K: math.inf if K <= root else 1.0, lo_start, _EMPIRICAL_K_MAX
        )
    except DivergenceError:
        return None
    if lo == 0.0:
        return None
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or not lo < mid < hi:
            break
        if mid > root:
            hi = mid
        else:
            lo = mid
    return lo, hi


_ANALYTIC_TABLE_NOTE = (
    "closed forms exist only at the family's own order: "
    "exp at p=1, weibull/pnormal/halfgauss_pow at p=shape"
)


def psi_norm_analytic(spec: DistributionSpec, p: float) -> OrliczNormResult:
    """Closed-form norm at the law's own order q, ``scale * (2 or 8/3)**(1/q)``.

    There ``|X/K|**q = (scale/K)**q * G/k`` with G ~ Gamma(k), so the norm
    solves E exp(s G/k) = (1 - s/k)**-k = 2 for ``s = (scale/K)**q``:
    1/s = 1/(k (1 - 2**(-1/k))), which is 2 for the unit exponential (k = 1)
    and 8/3 for ``|g|`` (k = 1/2), and K = scale * (1/s)**(1/q).
    """
    if not p > 0.0:
        raise ParameterError(f"p must be > 0, got {p}")
    law = canonical(spec)
    if p != law.order:
        raise NoClosedFormError(
            f"no closed form for family {spec.family!r} at order {p}; {_ANALYTIC_TABLE_NOTE}"
        )
    value = law.scale * (1.0 / (law.k * (1.0 - 2.0 ** (-1.0 / law.k)))) ** (1.0 / p)
    return OrliczNormResult(value, p, METHOD_ANALYTIC, (value, value), 0.0)


# ---------------------------------------------------------------------------
# structural identities and checks


def power_norm_identity(spec: DistributionSpec, p: float, r: float) -> tuple[float, float]:
    """(norm of |X|**p at order r, (norm of X at order p*r)**p).

    The two sides agree exactly in theory; both are computed by quadrature,
    the left on the pushforward law.
    """
    if p <= 0.0 or r <= 0.0:
        raise ParameterError(f"p and r must be > 0, got p={p}, r={r}")
    law = canonical(spec)
    lhs = psi_norm_quadrature_canonical(law.abs_power(p), r).value
    rhs = psi_norm_quadrature_canonical(law, p * r).value ** p
    return lhs, rhs


def check_equivalence(spec: DistributionSpec, p: float, K: float) -> float:
    """Certify the tail condition at K and return the moment constant M.

    Requires K >= the order-p norm of the law.  The tail bound
    2*exp(-(t/K)**p) is checked against the exact tail at 33 points t in
    [0, 8K]; the returned M is the smallest with E|X|**a <= 2*M**a*Gamma(a/p+1)
    at a = 0.25, 0.5, ..., 8.  A failure raises ``VerificationError`` naming
    the violating point: it means a bug, not a data condition.
    """
    if K <= 0.0 or p <= 0.0:
        raise ParameterError(f"K and p must be > 0, got K={K}, p={p}")
    for t in np.linspace(0.0, 8.0 * K, 33):
        tail = exact_upper_tail(spec, float(t))
        bound = 2.0 * math.exp(-((float(t) / K) ** p))
        if tail > bound + 1e-12:
            raise VerificationError(
                f"tail bound violated at t={t:g}: P(|X|>=t)={tail:g} > {bound:g}"
            )
    m_needed = 0.0
    for alpha in (0.25 * k for k in range(1, 33)):
        m_alpha = moment_abs_quadrature(spec, alpha)
        m_needed = max(
            m_needed, (m_alpha / (2.0 * math.gamma(alpha / p + 1.0))) ** (1.0 / alpha)
        )
    return m_needed


def centering_bound_check(spec: DistributionSpec, p: float) -> tuple[float, float]:
    """(norm of X - EX, 2 * norm of X) at order p >= 1.

    Also checks |EX| <= norm of X, the averaging step behind the factor 2.
    """
    if p < 1.0:
        raise ParameterError(f"centering bound requires p >= 1, got {p}")
    law = canonical(spec)
    m = mean(spec)
    base = psi_norm_quadrature_canonical(law, p).value
    if abs(m) > base + DEFAULT_TOL:
        raise VerificationError(f"|EX|={abs(m):g} exceeds the order-{p} norm {base:g}")
    lhs = psi_norm_quadrature_canonical(law, p, center=m).value
    return lhs, 2.0 * base
