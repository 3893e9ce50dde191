"""Distribution families with stretched-exponential tail decay.

Four scalar families are supported, each with an exact density, closed-form
moments, a partial closed-form table of moment generating functions, exact
upper tails, and a sampler driven by a counter-based
:class:`~subweibull.streams.RandomStream`: one base variate per draw, a
uniform mapped by the inverse transform for the exponential base, and one of
numpy's ziggurat standard normals for the ``|g|`` base:

- ``exp``            unit-rate exponential
- ``weibull``        ``scale * E**(1/shape)`` for ``E ~ exp``
- ``pnormal``        symmetric law whose absolute value is ``|g|**(2/p)``
                     for a standard normal ``g``; normalized so that
                     ``E|X|**p = 1``
- ``halfgauss_pow``  ``scale * |g|**(2/p)``, the one-sided relative of
                     ``pnormal``

Every family is one law, ``|X| = scale * B**(1/(k*q))`` of order ``q`` for a
base variable ``B`` with ``B**(1/k) * k ~ Gamma(k)``: a unit exponential
(``k = 1``) for ``exp`` and ``weibull``, ``|g|`` (``k = 1/2``) otherwise,
with the sign of ``g`` for ``pnormal``.  :func:`canonical` is the one map from a
family to that law (:class:`CanonicalLaw`), and every family fact is read
from it: one formula in ``k`` where the bases share it, a branch on ``k``
where their closed forms differ (the density, the exact tail, the MGF table
and the sampler).  The quadrature routines integrate in ``B``, where the
change of variables absorbs the ``|x|**(p/2-1)`` endpoint singularity of the
``pnormal`` density into a smooth integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NoClosedFormError, ParameterError
from .quadrature import improper_integral
from .streams import (
    RandomStream,
    _check_count,
    _check_streams,
    keyed_generators,
    uniform_block,
)

FAMILY_EXP = "exp"
FAMILY_WEIBULL = "weibull"
FAMILY_PNORMAL = "pnormal"
FAMILY_HALFGAUSS = "halfgauss_pow"

FAMILIES = (FAMILY_EXP, FAMILY_WEIBULL, FAMILY_PNORMAL, FAMILY_HALFGAUSS)

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

_LOG_SQRT_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)

_EXP_CAP = 708.0  # log of the largest double we let an integrand return


def _require_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be finite and > 0, got {value}")
    return value


@dataclass(frozen=True)
class DistributionSpec:
    """Parametric description of one scalar law.

    ``shape`` is the tail-order parameter (``p`` for ``pnormal`` and
    ``halfgauss_pow``, the Weibull shape otherwise); ``scale`` is the
    multiplicative scale where the family has one.  Parameters are validated
    here, at construction time, not per call.
    """

    family: str
    shape: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown family {self.family!r}")
        object.__setattr__(self, "shape", _require_positive("shape", self.shape))
        object.__setattr__(self, "scale", _require_positive("scale", self.scale))
        if self.family in (FAMILY_EXP, FAMILY_PNORMAL) and self.scale != 1.0:
            raise ParameterError(f"family {self.family!r} has no scale parameter")
        if self.family == FAMILY_EXP and self.shape != 1.0:
            raise ParameterError("family 'exp' has no shape parameter")

    @classmethod
    def exponential(cls) -> "DistributionSpec":
        return cls(FAMILY_EXP)

    @classmethod
    def weibull(cls, shape: float, scale: float = 1.0) -> "DistributionSpec":
        return cls(FAMILY_WEIBULL, shape, scale)

    @classmethod
    def pnormal(cls, p: float) -> "DistributionSpec":
        return cls(FAMILY_PNORMAL, p)

    @classmethod
    def halfgauss_pow(cls, p: float, scale: float = 1.0) -> "DistributionSpec":
        return cls(FAMILY_HALFGAUSS, p, scale)

    @property
    def order(self) -> float:
        """Tail-decay order: the exponent q with tails exp(-(t/C)**q)."""
        return 1.0 if self.family == FAMILY_EXP else self.shape

    @property
    def symmetric(self) -> bool:
        return self.family == FAMILY_PNORMAL


@dataclass(frozen=True)
class CanonicalLaw:
    """``|X| = scale * B**e`` with ``e = 1/(k*order)`` and ``B**(1/k) * k ~ Gamma(k)``.

    ``k`` is 1 for the unit exponential and 1/2 for ``|g|`` (g**2/2 ~
    Gamma(1/2)).  ``order`` is kept instead of ``e`` so that exponent ratios
    such as ``p/order`` stay exact in floating point when ``p == order``.
    """

    k: float
    scale: float
    order: float

    def exponent(self, p: float) -> float:
        """r such that |X|**p = scale**p * B**r."""
        return p / (self.k * self.order)

    @property
    def e(self) -> float:
        return self.exponent(1.0)

    def abs_power(self, p: float) -> "CanonicalLaw":
        """Canonical form of the pushforward |X|**p."""
        return CanonicalLaw(self.k, self.scale**p, self.order / p)

    def log_base_pdf(self, x: float) -> float:
        if self.k == 1.0:
            return -x
        return _LOG_SQRT_2_OVER_PI - 0.5 * x * x

    def moment_abs(self, alpha: float) -> float:
        """E|X|**alpha = scale**alpha * E (G/k)**(alpha/order) in closed form, G ~ Gamma(k)."""
        s = alpha / self.order
        return self.scale**alpha * (1.0 / self.k) ** s * math.gamma(self.k + s) / math.gamma(self.k)

    def exp_moment_converges(self, a: float, r: float) -> bool:
        """Whether E exp(a * B**r) is finite for a > 0, decided in closed form.

        ``B**(1/k)`` has the tail of Gamma(k)/k, ``exp(-k B**(1/k))``, so off
        the boundary r == 1/k, r alone decides, and on it a < k does.  The
        boundary is recognized within 1e-9 to absorb float rounding of
        exponent ratios.
        """
        boundary = 1.0 / self.k
        if r < boundary - 1e-9:
            return True
        if r > boundary + 1e-9:
            return False
        return a < self.k


def canonical(spec: DistributionSpec) -> CanonicalLaw:
    """The family's law: an exponential base (k = 1) for exp and weibull, else ``|g|``."""
    k = 1.0 if spec.family in (FAMILY_EXP, FAMILY_WEIBULL) else 0.5
    return CanonicalLaw(k, spec.scale, spec.order)


# ---------------------------------------------------------------------------
# densities, moments, tails


def density(spec: DistributionSpec, x: float) -> float:
    """Density at ``x``: ``(q/c) * z**(q/m-1) * exp(-z**q/m)`` for ``z = |x|/scale``.

    ``c`` is the scale, times ``sqrt(2 pi)`` for the ``|g|`` base and 2 for
    the symmetric law.  Below the base exponent (``q < m``: Weibull shape < 1,
    ``pnormal``/``halfgauss_pow`` shape < 2) the density has an integrable
    singularity at 0 and ``density(spec, 0.0)`` returns ``math.inf``;
    quadrature never evaluates it there because it integrates in the
    canonical base variable.
    """
    x = float(x)
    if x < 0.0 and not spec.symmetric:
        return 0.0
    law = canonical(spec)
    q, m = law.order, law.exponent(law.order)
    z = abs(x) / law.scale
    c = law.scale * (2.0 if spec.symmetric else 1.0)
    if z == 0.0 and q <= m:
        # at q == m, |X| = scale * B: the base density at 0 over c
        return math.inf if q < m else (1.0 if law.k == 1.0 else _SQRT_2_OVER_PI) / c
    if law.k != 1.0:
        c *= _SQRT_2PI
    return (q / c) * z ** (q / m - 1.0) * math.exp(-(z**q) / m)


def moment_abs(spec: DistributionSpec, alpha: float) -> float:
    """E|X|**alpha, closed form."""
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    return canonical(spec).moment_abs(alpha)


def _base_integral(law: CanonicalLaw, log_h) -> float:
    """E h(B) = integral of exp(log h(x) + log pdf(x)) over the base variable; inf past e**708."""

    def integrand(x: float) -> float:
        val = log_h(x) + law.log_base_pdf(x)
        return math.exp(val) if val < _EXP_CAP else math.inf

    return improper_integral(integrand)


def moment_abs_quadrature(spec: DistributionSpec, alpha: float) -> float:
    """E|X|**alpha by quadrature in the canonical base variable."""
    if alpha <= 0.0:
        raise ParameterError(f"alpha must be > 0, got {alpha}")
    law = canonical(spec)
    r = law.exponent(alpha)
    log_c = alpha * math.log(law.scale)
    return _base_integral(law, lambda x: log_c + r * math.log(x))


def mean(spec: DistributionSpec) -> float:
    """E X (0 for the symmetric family)."""
    if spec.symmetric:
        return 0.0
    return moment_abs(spec, 1.0)


def exact_upper_tail(spec: DistributionSpec, t: float) -> float:
    """P(|X| >= t), exact."""
    t = float(t)
    if t <= 0.0:
        return 1.0
    law = canonical(spec)
    # |X| >= t  <=>  B >= (t/scale)**(q/m)
    b = (t / law.scale) ** (law.order / law.exponent(law.order))
    return math.exp(-b) if law.k == 1.0 else math.erfc(b / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# moment generating functions


def mgf(spec: DistributionSpec, t: float, power: float | None = None) -> float | None:
    """Closed-form moment generating function, or None when not tabulated.

    ``power=None`` is E exp(tX); ``power=p`` is E exp(t |X|**p).  The table
    holds the order itself, where ``|X|**q = scale**q * B**m`` and the base
    MGFs E exp(sB) = 1/(1-s) and E exp(s g**2) = (1-2s)**-0.5 apply, and the
    symmetric law of order 2, the standard normal.  ``math.inf`` is a valid
    return on the divergent branch.  Callers that need values outside the
    table fall back to :func:`mgf_quadrature`.
    """
    t = float(t)
    law = canonical(spec)
    if power is None:
        if spec.symmetric:
            return math.exp(0.5 * t * t) if law.order == 2.0 else None
        power = 1.0  # X = |X|
    if power != law.order:
        return None
    u = law.scale**law.order * t
    if law.k == 1.0:
        return 1.0 / (1.0 - u) if u < 1.0 else math.inf
    return (1.0 - 2.0 * u) ** -0.5 if u < 0.5 else math.inf


def mgf_quadrature(spec: DistributionSpec, t: float, power: float | None = None) -> float:
    """E exp(tX) or E exp(t|X|**p) by quadrature; ``math.inf`` where the law says it diverges."""
    t = float(t)
    law = canonical(spec)
    if power is None and spec.symmetric:
        # E exp(tX) = E cosh(t |X|) by symmetry
        r, a = law.exponent(1.0), abs(t) * law.scale

        def log_h(x: float) -> float:
            y = a * x**r
            # log cosh(y), overflow-safe
            return y + math.log1p(math.exp(-2.0 * y)) - math.log(2.0)

    else:
        p_eff = 1.0 if power is None else float(power)
        r, a = law.exponent(p_eff), t * law.scale**p_eff
        log_h = lambda x: a * x**r
    if a > 0.0 and not law.exp_moment_converges(a, r):
        return math.inf
    return _base_integral(law, log_h)


# ---------------------------------------------------------------------------
# sampling

# draws per block: ``sample`` draws and maps its base variates one block of
# this many draws at a time, and ``montecarlo.deviations`` fills its trials in
# blocks of about this many draws (rows x n).  On 2 cores, 20k rows of 16 exp
# draws took 26 ms on 2 threads and 35 ms on 1 at 65 536; at 16 384 2 threads
# were slower than 1, and 131 072 and 262 144 added 5 MB and 14 MB to the tail
# report's peak RSS
BLOCK_DRAWS = 65_536


def _to_draws(
    spec: DistributionSpec, v: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Map base variates ``v`` to draws in place, one variate per draw, and return ``v``.

    ``v`` holds uniforms u for exp and weibull, with B = -log1p(-u), and
    standard normals g for pnormal and halfgauss_pow, with B = |g|.  The
    draw is scale * B**e, and copysign(|g|**e, g) for pnormal.  It is built
    by the same elementwise operations in the same order as these
    expressions, so it carries their bits.  pnormal's |g|**e is built in
    ``scratch`` (a new array when None), as g must keep its sign until the
    copysign.
    """
    law = canonical(spec)
    if law.k == 1.0:
        # B = -log1p(-u)
        np.negative(v, out=v)
        np.log1p(v, out=v)
        x = np.negative(v, out=v)
    elif not spec.symmetric:
        x = np.abs(v, out=v)
    elif law.e == 1.0:
        return v  # pnormal(2): copysign(|g|, g) is g
    else:
        x = np.abs(v, out=scratch)
    # scale * B ** e; a power or a factor of exactly 1 would leave the bits as they are
    if law.e != 1.0:
        x **= law.e
    if law.scale != 1.0:
        x *= law.scale
    if spec.symmetric:
        np.copysign(x, v, out=v)
    return v


def sample(spec: DistributionSpec, stream: RandomStream, count: int) -> np.ndarray:
    """``count`` i.i.d. draws; a pure function of (spec, stream, count).

    exp and weibull map the stream's uniforms by the inverse transform; the
    Gaussian-based families map the standard normals of its generator,
    numpy's ziggurat sampler (Marsaglia and Tsang, J. Stat. Softw. 2000),
    one per draw, whose sign is pnormal's.  Each block of ``BLOCK_DRAWS``
    base variates is drawn straight into the output and mapped there, so
    the call holds its output plus at most one block of scratch, whatever
    ``count``.  The draws have the bits of ``_to_draws`` of the stream's
    first ``count`` base variates drawn at once.
    """
    _check_count(count)
    count = int(count)
    gen = stream.generator()
    draw = gen.random if canonical(spec).k == 1.0 else gen.standard_normal
    out = np.empty(count)
    scratch = np.empty(min(count, BLOCK_DRAWS))
    for j0 in range(0, count, BLOCK_DRAWS):
        j1 = min(j0 + BLOCK_DRAWS, count)
        # consecutive fills continue the stream, so draw j still reads its
        # own base variate
        draw(out=out[j0:j1])
        _to_draws(spec, out[j0:j1], scratch[: j1 - j0])
    return out


def sample_streams(
    spec: DistributionSpec, seed: int, start: int, stop: int, count: int
) -> np.ndarray:
    """Row i holds sample(spec, RandomStream(seed, start + i), count).

    Batches the arithmetic of many substreams into whole-matrix operations;
    the per-row values are identical to per-stream calls because each row
    holds the bits of its stream's base variates and every map is
    elementwise.  Uniform rows come from ``uniform_block``; each normal row
    is filled by ``standard_normal(out=row)`` from ``keyed_generators``.
    """
    _check_count(count)
    if canonical(spec).k == 1.0:
        v = uniform_block(seed, start, stop, int(count))
    else:
        _check_streams(seed, start, stop)
        v = np.empty((stop - start, int(count)))
        for row, gen in zip(v, keyed_generators(seed, start, stop)):
            gen.standard_normal(out=row)
    return _to_draws(spec, v)


# ---------------------------------------------------------------------------
# JSON wire format


_PARAM_KEYS = {
    FAMILY_EXP: (),
    FAMILY_WEIBULL: ("shape", "scale"),
    FAMILY_PNORMAL: ("p",),
    FAMILY_HALFGAUSS: ("p", "scale"),
}


def spec_from_json(obj: Mapping) -> DistributionSpec:
    try:
        family = obj["family"]
        params = dict(obj.get("params", {}))
    except (TypeError, KeyError) as exc:
        raise ParameterError(f"malformed distribution object: {obj!r}") from exc
    if family not in FAMILIES:
        raise ParameterError(f"unknown family {family!r}")
    expected = set(_PARAM_KEYS[family])
    if set(params) != expected:
        raise ParameterError(
            f"family {family!r} expects params {sorted(expected)}, got {sorted(params)}"
        )
    shape = params.get("shape", params.get("p", 1.0))
    scale = params.get("scale", 1.0)
    return DistributionSpec(family, float(shape), float(scale))
