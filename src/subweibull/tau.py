"""Cumulant-domination norm and the quadratic/linear conjugate pair.

``phi_inf`` is x**2/2 capped to |x| <= 1 (infinite outside); its convex
conjugate ``phi1`` is quadratic near zero and linear beyond 1.  A centered
law with cumulant generating function C is measured by the smallest K whose
parabola (Kt)**2/2 dominates C on the window |t| <= 1/K, i.e. dominates
phi_inf(Kt) everywhere.

Domination is certified through the second-order Taylor envelope: since
C(0) = C'(0) = 0, C(t) <= sup_{|s|<=|t|} C''(s) * t**2 / 2, so the condition

    sup over |t| <= 1/K of C''(t)  <=  K**2

is what the feasibility check decides.  Every cumulant built here has a
convex C'', so the sup is the larger of C''(-1/K) and C''(1/K); a hand-built
``Cumulant`` must keep that property (see its docstring).  The check is
monotone in K (a larger K both shrinks the window and raises the parabola),
so the norm is the root of the curvature margin, bracketed to 1e-12
relative by the secant of the quadrature norms (see ``tau_norm``).  For the
unit-rate centered exponential the binding equation is C''(1/K) = K**2 with
solution K = 2, and the centered sum of n copies gives sqrt(n) + 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dist import DistributionSpec, canonical
from .errors import (
    DivergenceError,
    InfeasibleError,
    NoClosedFormError,
    ParameterError,
    UnboundedSupremumError,
)
from .orlicz import _SMALLEST_NORMAL, _root_norm

_DOMAIN_EDGE = 1e-12  # evaluations within this share of |edge| of a finite domain edge return inf


def phi1(x):
    """Quadratic below 1, linear above: x**2/2 if |x| <= 1 else |x| - 1/2."""
    if np.ndim(x) == 0:
        ax = abs(float(x))
        return 0.5 * ax * ax if ax <= 1.0 else ax - 0.5
    ax = np.abs(x)
    return np.where(ax <= 1.0, 0.5 * ax * ax, ax - 0.5)


def phi_inf(x):
    """x**2/2 on |x| <= 1, +inf outside."""
    if np.ndim(x) == 0:
        ax = abs(float(x))
        return 0.5 * ax * ax if ax <= 1.0 else math.inf
    ax = np.abs(x)
    return np.where(ax <= 1.0, 0.5 * ax * ax, np.inf)


# ---------------------------------------------------------------------------
# numerical convex conjugation


def convex_conjugate(
    f: Callable, t: float | np.ndarray, search_bound: float
) -> float | np.ndarray:
    """sup over u of t*u - f(u), for convex even f with f(0) = 0.

    ``t`` is a scalar or an array.  The objective is concave, so a ternary
    search on [0, search_bound] (evenness reduces t to |t|) converges; +inf
    values of f are treated as infeasible points.  A scalar ``t`` runs the
    search in plain Python floats: ``f`` is called with floats and the result
    is a float.  An array ``t`` advances every element in lockstep, so ``f``
    is called with an array shaped like ``t`` and must accept one; each
    element gets the bits of the scalar call.  Raises
    ``UnboundedSupremumError`` when the objective is still climbing at the
    search bound for any element.
    """
    if search_bound <= 0.0 or not math.isfinite(search_bound):
        raise ParameterError(f"search_bound must be finite and > 0, got {search_bound}")
    if np.ndim(t) == 0:
        return _scalar_conjugate(f, float(t), search_bound)
    ts = np.asarray(t, dtype=float)
    if np.isnan(ts).any():
        raise ParameterError(f"t must not be NaN, got {t}")
    tt = np.abs(ts)
    # an infinite t would meet f's +inf as inf - inf, so there t is taken as
    # 0, which keeps the objective at -inf; finite t keep every bit
    infinite = bool(np.isinf(tt).any())

    def objective(u):
        fu = np.asarray(f(u), dtype=float)
        return (np.where(fu != math.inf, tt, 0.0) if infinite else tt) * u - fu

    def raise_to(best, g, where=True):
        # Python's max(best, g): g replaces best only when strictly larger
        return np.where(where & (g > best), g, best)

    lo = np.zeros_like(tt)
    hi = np.full_like(tt, search_bound)
    best = np.zeros_like(tt)  # objective at u = 0
    width_tol = 1e-11 * max(1.0, search_bound)
    for _ in range(300):
        # each element keeps its own stop test; stopped ones stay frozen
        width = hi - lo
        active = width > width_tol
        if not active.any():
            break
        m1 = lo + width / 3.0
        m2 = hi - width / 3.0
        g1, g2 = objective(m1), objective(m2)
        # g2 = -inf (f is even with an interval domain around 0, so all of
        # [m2, hi] is infeasible) fails g1 < g2 and so also moves hi to m2
        climb = g1 < g2
        lo = np.where(active & climb, m1, lo)
        hi = np.where(active & ~climb, m2, hi)
        best = raise_to(raise_to(best, g1, active), g2, active)
    best = raise_to(best, objective(0.5 * (lo + hi)))
    near = hi >= search_bound * (1.0 - 1e-6)
    if near.any():
        inner = objective(np.full_like(tt, search_bound * (1.0 - 1e-6)))
        outer = objective(np.full_like(tt, search_bound))
        climbing = (
            near
            & (outer > -math.inf)
            & (outer - inner > 1e-9 * np.maximum(np.maximum(1.0, tt), np.abs(outer)))
        )
        if climbing.any():
            raise _still_climbing(search_bound, ts[climbing][0])
        best = raise_to(best, outer, near)
    return best


def _scalar_conjugate(f: Callable, t: float, search_bound: float) -> float:
    """The lockstep search of ``convex_conjugate`` for one t, step for step, in floats."""
    if math.isnan(t):
        raise ParameterError(f"t must not be NaN, got {t}")
    tt = abs(t)
    infinite = math.isinf(tt)

    def objective(u):
        fu = float(f(u))
        return (0.0 if infinite and fu == math.inf else tt) * u - fu

    lo, hi, best = 0.0, search_bound, 0.0
    width_tol = 1e-11 * max(1.0, search_bound)
    for _ in range(300):
        width = hi - lo
        if not width > width_tol:
            break
        m1 = lo + width / 3.0
        m2 = hi - width / 3.0
        g1, g2 = objective(m1), objective(m2)
        if g1 < g2:
            lo = m1
        else:
            hi = m2
        # best rises only on a strictly larger value, as in the lockstep search
        best = g1 if g1 > best else best
        best = g2 if g2 > best else best
    g = objective(0.5 * (lo + hi))
    best = g if g > best else best
    if hi >= search_bound * (1.0 - 1e-6):
        inner = objective(search_bound * (1.0 - 1e-6))
        outer = objective(search_bound)
        if outer > -math.inf and outer - inner > 1e-9 * max(1.0, tt, abs(outer)):
            raise _still_climbing(search_bound, t)
        best = outer if outer > best else best
    return best


def _still_climbing(search_bound: float, t: float) -> UnboundedSupremumError:
    return UnboundedSupremumError(
        f"objective still increasing at search_bound={search_bound:g} for t={t:g}"
    )


# ---------------------------------------------------------------------------
# cumulant generating functions


@dataclass(frozen=True)
class Cumulant:
    """Cumulant generating function with its second derivative and domain.

    ``fn`` and ``d2`` must accept numpy arrays and Python floats: ``value``
    and ``curvature`` of a Python float call them on the float itself and
    return a float, with an ``ArithmeticError`` read as NaN, and any other
    ``t`` is evaluated as an array.  The built-in cumulants use only + - * /
    in their curvatures, which numpy and Python both round correctly, so
    both paths give the same bits; a hand-built ``d2`` that uses ``**`` or
    numpy's transcendental functions may differ between them in the last
    bit.  The open interval ``domain`` contains 0.  Values requested within
    1e-12·|edge| of a finite domain edge come back as +inf, which downstream
    feasibility checks read as infeasible.  ``d2`` must be convex on the
    domain, or at least reach its sup over every window [-w, w] at an end:
    the domination norm reads only C''(-w) and C''(w).
    """

    fn: Callable
    d2: Callable
    domain: tuple[float, float]
    name: str = ""

    def __post_init__(self) -> None:
        lo, hi = self.domain
        if not lo < 0.0 < hi:
            raise ParameterError(f"cumulant domain must contain 0, got {self.domain}")

    def _mask(self, t: np.ndarray) -> np.ndarray:
        lo, hi = self.domain
        inside = np.ones_like(t, dtype=bool)
        if math.isfinite(lo):
            inside &= t > lo + _DOMAIN_EDGE * abs(lo)
        if math.isfinite(hi):
            inside &= t < hi - _DOMAIN_EDGE * abs(hi)
        return inside

    def _eval(self, fn: Callable, t):
        if type(t) is float:
            # the edge rule of ``_mask``, on one float
            lo, hi = self.domain
            if (math.isfinite(lo) and not t > lo + _DOMAIN_EDGE * abs(lo)) or (
                math.isfinite(hi) and not t < hi - _DOMAIN_EDGE * abs(hi)
            ):
                return math.inf
            try:
                return float(fn(t))
            except ArithmeticError:
                return math.nan
        arr = np.asarray(t, dtype=float)
        inside = self._mask(arr)
        with np.errstate(all="ignore"):
            raw = np.asarray(fn(np.where(inside, arr, 0.0)), dtype=float)
        out = np.where(inside, raw, np.inf)
        return float(out) if np.ndim(t) == 0 else out

    def value(self, t):
        return self._eval(self.fn, t)

    def curvature(self, t):
        return self._eval(self.d2, t)


def exp_centered() -> Cumulant:
    """Unit-rate exponential minus its mean: C(t) = -t - ln(1 - t)."""
    return Cumulant(
        fn=lambda t: -t - np.log1p(-t),
        d2=lambda t: 1.0 / ((1.0 - t) * (1.0 - t)),
        domain=(-math.inf, 1.0),
        name="exp_centered",
    )


def iid_sum(base: Cumulant, n: int) -> Cumulant:
    """Cumulant of a sum of n independent copies."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return Cumulant(
        fn=lambda t: n * base.fn(t),
        d2=lambda t: n * base.d2(t),
        domain=base.domain,
        name=f"{base.name}_sum{n}",
    )


def gaussian(sigma: float) -> Cumulant:
    """Normal law of standard deviation sigma: C(t) = sigma**2 t**2 / 2.

    sigma**2 must be a finite normal double, so sigma lies between about
    1.5e-154 and 1.34e154.
    """
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    variance = sigma * sigma
    if not _SMALLEST_NORMAL <= variance < math.inf:
        raise ParameterError(
            f"sigma**2 must be a finite normal double (sigma from about 1.5e-154 to 1.34e154), "
            f"got sigma = {sigma:g}"
        )
    return Cumulant(
        fn=lambda t: 0.5 * variance * (t * t),
        d2=lambda t: np.full_like(t, variance, dtype=float),
        domain=(-math.inf, math.inf),
        name=f"gaussian_{sigma:g}",
    )


def scaled(base: Cumulant, a: float) -> Cumulant:
    """Cumulant of a*X: t -> C(a*t)."""
    if a <= 0.0:
        raise ParameterError(f"scale must be > 0, got {a}")
    lo, hi = base.domain
    return Cumulant(
        fn=lambda t: base.fn(a * t),
        d2=lambda t: a * a * base.d2(a * t),
        domain=(lo / a, hi / a),
        name=f"{base.name}_x{a:g}",
    )


def sum_of(cumulants: Sequence[Cumulant]) -> Cumulant:
    """Cumulant of a sum of independent variables with the given cumulants.

    A member object listed several times is evaluated once per call; the
    values are still added one member at a time in the given order, so the
    sum has the same bits as evaluating every member.
    """
    if not cumulants:
        raise ParameterError("need at least one cumulant")
    lo = max(c.domain[0] for c in cumulants)
    hi = min(c.domain[1] for c in cumulants)
    members = tuple(cumulants)
    distinct = {id(c): c for c in members}

    def total(attr: str, t):
        values = {key: getattr(c, attr)(t) for key, c in distinct.items()}
        return sum(values[id(c)] for c in members)

    return Cumulant(
        fn=lambda t: total("fn", t),
        d2=lambda t: total("d2", t),
        domain=(lo, hi),
        name="+".join(c.name for c in members),
    )


def centered_cumulant(spec: DistributionSpec) -> Cumulant:
    """Closed-form cumulant of X - EX: the scaled exponential and the normal law."""
    law = canonical(spec)
    if law.k == 1.0 and law.order == 1.0:  # X = scale * a unit exponential
        return exp_centered() if law.scale == 1.0 else scaled(exp_centered(), law.scale)
    if spec.symmetric and law.order == 2.0:
        return gaussian(law.scale)
    raise NoClosedFormError(
        f"no closed-form centered cumulant for {spec.family!r} with shape {spec.shape}"
    )


# ---------------------------------------------------------------------------
# the domination norm


@dataclass(frozen=True)
class TauNormResult:
    """Norm value plus the slack profile phi_inf(K t) - C(t) on the window."""

    value: float
    margin_profile: tuple[tuple[float, float], ...]


K_MAX = 1e12  # no feasible K up to this ceiling means no finite norm
# the margin profile's points u = K t, so |u| <= 1 by construction, and phi_inf there
_PROFILE_U = np.linspace(-1.0, 1.0, 201)
_PROFILE_PHI = phi_inf(_PROFILE_U)
_PROFILE_U.flags.writeable = _PROFILE_PHI.flags.writeable = False


def _window_curvature_sup(cumulant: Cumulant, K: float) -> float:
    """sup of C'' over [-1/K, 1/K]: the larger end value, C'' being convex (a NaN counts as inf)."""
    w = 1.0 / K
    lo, hi = cumulant.curvature(-w), cumulant.curvature(w)
    return math.inf if math.isnan(lo) or math.isnan(hi) else max(lo, hi)


def _margin(sup: float, K: float) -> float:
    """sup C'' on the window less the bound K**2 it may reach; <= 0 exactly when K is feasible."""
    return sup - K * K * (1.0 + 1e-12)


def tau_feasible(cumulant: Cumulant, K: float) -> bool:
    """Whether the parabola (Kt)**2/2 dominates C's Taylor envelope."""
    if K <= 0.0:
        return False
    return _margin(_window_curvature_sup(cumulant, K), K) <= 0.0


def tau_norm(cumulant: Cumulant, tol: float = 1e-6) -> TauNormResult:
    """Smallest K whose curvature bound certifies cumulant domination.

    The norm is homogeneous, tau(aX) = a tau(X), so with a = sqrt(C''(0))
    finite and > 0 the search runs in units of a: on u = K / a, the norm of
    the cumulant of X / a, whose C''(0) is 1.  Its floor 1e-12, its ceiling
    ``K_MAX`` and ``tol`` are in those units (a is the standard deviation of
    X), and each u it asks about is decided by this cumulant's own test at
    K = a * u, so the value returned is feasible.  A cumulant with C''(0) = 0
    or inf is searched with a = 1.

    Feasibility is monotone in K, so the norm is the root of the curvature
    margin, found by the quadrature norms' rule (``orlicz._root_norm``): a
    secant brackets it to 1e-12 relative, and the bracket's feasible end is
    the norm, bisected on only while the bracket is wider than ``tol``.  A
    root the secant cannot bracket is bisected from u = 1 on a stand-in for
    Phi that is at most 2 exactly where K is feasible.  Raises
    ``InfeasibleError`` when no K up to a * ``K_MAX`` works.
    """
    if not tol > 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    if not cumulant.value(0.0) == 0.0:
        raise ParameterError("cumulant must vanish at 0")
    curvature = cumulant.curvature(0.0)
    a = math.sqrt(curvature) if 0.0 < curvature < math.inf else 1.0
    # margin(u) is the cumulant's own margin at K = a * u, whose sign is the
    # feasibility test there, times a power of two near 1 / a**2: an exact
    # scaling that keeps the secant's values near 1 at any a.  At a power of
    # two a it equals the margin of X / a, so the search asks about the same
    # u, and tau(2**k X) = 2**k tau(X) bit for bit
    shift = -2 * math.frexp(a)[1]
    margin = functools.cache(
        lambda u: math.ldexp(_margin(_window_curvature_sup(cumulant, a * u), a * u), shift)
    )
    try:
        value = a * _root_norm(
            lambda u: 1.0 if margin(u) <= 0.0 else math.inf, margin, 1e-12, 1.0, K_MAX, 1.0, tol,
            "tau",
        ).value
    except DivergenceError:
        raise InfeasibleError(f"no feasible K up to {a * K_MAX:g}") from None
    if value == 0.0:
        return TauNormResult(0.0, ((0.0, 0.0),))
    t = _PROFILE_U / value
    slack = _PROFILE_PHI - cumulant.value(t)
    return TauNormResult(value, tuple(zip(t.tolist(), slack.tolist())))


def rotation_invariance_check(specs: Sequence[DistributionSpec]) -> tuple[float, float]:
    """(norm of the centered sum, sqrt of the sum of squared norms).

    For independent summands the first never exceeds the second.  Each
    distinct summand gets one cumulant object, so its norm is computed once
    and the sum evaluates it once per probe.
    """
    if not specs:
        raise ParameterError("need at least one spec")
    cums = {spec: centered_cumulant(spec) for spec in specs}
    norms = {spec: tau_norm(cum).value for spec, cum in cums.items()}
    taus = [norms[s] for s in specs]
    lhs = tau_norm(sum_of([cums[s] for s in specs])).value
    rhs = math.sqrt(sum(k * k for k in taus))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Bernstein-type bound for averages


class BernsteinBound(NamedTuple):
    value: float  # 2 exp(-n phi1(t / (2 C1 K)))
    min_form: float  # 2 exp(-(n/2) min{u**2, u}) at the same u


def bernstein_bound(n: int, t: float, K: float, C1: float) -> BernsteinBound:
    """Tail bound for |mean of n centered sub-exponential terms| >= t.

    K is the largest order-1 norm among the terms and C1 the conversion
    constant from that norm to the domination norm.  The companion min-form
    follows from phi1(u) >= min{u**2, u} / 2.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"n must be an integer >= 1, got {n}")
    if not (t >= 0.0 and K > 0.0 and C1 >= 1.0):
        raise ParameterError(f"need t >= 0, K > 0, C1 >= 1; got t={t}, K={K}, C1={C1}")
    u = t / (2.0 * C1 * K)
    value = 2.0 * math.exp(-n * float(phi1(u)))
    min_form = 2.0 * math.exp(-0.5 * n * min(u * u, u))
    return BernsteinBound(value=value, min_form=min_form)
