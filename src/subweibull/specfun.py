"""Regularized incomplete gamma functions and Kolmogorov's limit law.

Scalar, plain ``math``: these are the exact tails ``verify`` compares Monte
Carlo counts and KS statistics with, and they load no scipy.

- ``gammainc(a, x)`` is P(a, x) = gamma(a, x) / Gamma(a) and ``gammaincc``
  is Q = 1 - P (DLMF 8.2.4).  Below x = a + 1, P is summed by its power
  series (DLMF 8.7.1) and Q = 1 - P; from there on, Q is the modified-Lentz
  evaluation of its continued fraction (DLMF 8.9.2) and P = 1 - Q.  The
  prefactor x^a e^-x / Gamma(a) is taken in logs about x = a, so a deep tail
  stays accurate until it underflows.  Both need a > 0 and raise ``ValueError``
  otherwise, or at x = nan, on which the continued fraction never stops.
- ``kolmogorov(y)`` is P(K > y) for Kolmogorov's K: the alternating series
  2 sum (-1)^(k-1) exp(-2 k^2 y^2) from ``_KS_CUTOVER`` on, and below it,
  where that series cancels, its theta-function transform
  1 - sqrt(2 pi) / y sum exp(-(2k-1)^2 pi^2 / (8 y^2)).
"""

from __future__ import annotations

import math

_EPS = 2.0 ** -53
_TINY = 1e-300  # Lentz's stand-in for a zero numerator or denominator
_KS_CUTOVER = 0.82  # both Kolmogorov forms need at most six terms here


def _stirling_remainder(a: float) -> float:
    """lgamma(a) - ((a - 1/2) log a - a + log(2 pi) / 2), by its series from a = 20 on."""
    if a < 20.0:
        return math.lgamma(a) - ((a - 0.5) * math.log(a) - a + 0.5 * math.log(2.0 * math.pi))
    r = 1.0 / (a * a)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / a


def _prefactor(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a) = sqrt(a / 2 pi) exp(a (log1p(t) - t) - remainder(a)), t = x/a - 1.

    Written about x = a, the exponent is small in the bulk: a log x - x -
    lgamma(a) would lose a few digits at large a to cancelling terms of size
    a log a, and with them the monotonicity of P in x.
    """
    t = (x - a) / a
    exponent = a * (math.log1p(t) - t) - _stirling_remainder(a)
    return math.sqrt(a / (2.0 * math.pi)) * math.exp(exponent)


def _p_series(a: float, x: float) -> float:
    """P(a, x) = x^a e^-x / Gamma(a) * sum_k x^k / (a (a+1) ... (a+k))."""
    term = total = 1.0 / a
    denom = a
    while term > total * _EPS:
        denom += 1.0
        term *= x / denom
        total += term
    return total * _prefactor(a, x)


def _q_fraction(a: float, x: float) -> float:
    """Q(a, x) = x^a e^-x / Gamma(a) * 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...)))."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h * _prefactor(a, x)


def _pq(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)), each from the form that keeps its digits at x."""
    if not (a > 0.0 and x == x):
        raise ValueError(f"incomplete gamma needs a > 0 and x not nan, got a = {a}, x = {x}")
    if x <= 0.0:
        return 0.0, 1.0
    if x == math.inf:
        return 1.0, 0.0
    if x < a + 1.0:
        p = _p_series(a, x)
        return p, 1.0 - p
    q = _q_fraction(a, x)
    return 1.0 - q, q


def gammainc(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x), a > 0."""
    return _pq(a, x)[0]


def gammaincc(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x), a > 0."""
    return _pq(a, x)[1]


def kolmogorov(y: float) -> float:
    """Survival function of Kolmogorov's limit law, P(K > y); 1 for y <= 0."""
    if y <= 0.0:
        return 1.0
    if y < _KS_CUTOVER:
        r = math.pi / y
        w = r * r / 8.0  # inf for y near 0, where every term is 0
        log_c = 0.5 * math.log(2.0 * math.pi) - math.log(y)
        return 1.0 - sum(math.exp(log_c - w * (2 * k - 1) ** 2) for k in range(1, 7))
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * y * y) for k in range(1, 7))
