"""Concentration bounds for p-norms of random vectors, plus scalar lemmas.

Two deviation bounds are provided for the order-p norm of a vector with
independent coordinates around its L^p center: a dimension-dependent one
growing like n**(1/(2p)) (valid for p >= 1) and a dimension-free one (valid
for p >= 2 under equal p-th moments).  Both carry an unspecified universal
constant, a required parameter here with no default; the Monte Carlo module
fits working values to simulations rather than baking in a guess.

The scalar lemma predicates at the bottom are the elementary inequalities
the dimension-free bound rests on; they accept scalars or numpy arrays and
are meant to be hammered with randomized inputs in property tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .dist import DistributionSpec
from .errors import ParameterError
from .tau import phi1

_SLACK = 1e-12  # absorbs float rounding in the equality cases


@dataclass(frozen=True)
class VectorModel:
    """A random vector with i.i.d. coordinates measured in the p-norm."""

    coordinate_spec: DistributionSpec
    n: int
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ParameterError(f"n must be an integer >= 1, got {self.n}")
        if not self.p >= 1.0:
            raise ParameterError(f"p must be >= 1, got {self.p}")


# ---------------------------------------------------------------------------
# norms and bound formulas


def lp_norm(x, p: float):
    """(sum |x_i|**p)**(1/p) with pairwise summation and overflow guarding.

    A 1-D ``x`` gives a float; a 2-D ``x`` gives an array with the norm of
    each row, bitwise equal to the 1-D call on that row.
    """
    if not p >= 1.0:
        raise ParameterError(f"p must be >= 1, got {p}")
    a = np.abs(np.asarray(x, dtype=float))
    if a.ndim > 2:
        raise ParameterError(f"x must be 1-D or 2-D, got shape {a.shape}")
    rows = np.atleast_2d(a)
    if rows.shape[1] == 0:
        norms = np.zeros(rows.shape[0])
    else:
        top = rows.max(axis=1)
        # an all-zero row sums zeros and keeps its norm at 0
        scaled = rows / np.where(top == 0.0, 1.0, top)[:, None]
        if p != 1.0:  # x**1.0 is x
            scaled **= p
        sums = np.add.reduce(scaled, axis=1)
        # Python float pow: np.power can differ from it in the last bit; at
        # p = 1 the root is the sum itself
        roots = sums if p == 1.0 else np.fromiter(
            map(pow, sums.tolist(), repeat(1.0 / p)), float, len(sums)
        )
        norms = top * roots
    return float(norms[0]) if a.ndim < 2 else norms


def prop13_bound(n: int, p: float, K_p: float, C: float) -> float:
    """Dimension-dependent deviation bound n**(1/(2p)) * C**(1/p) * K_p."""
    if n < 1 or not p >= 1.0 or K_p < 0.0 or C <= 0.0:
        raise ParameterError(
            f"need n >= 1, p >= 1, K_p >= 0, C > 0; got n={n}, p={p}, K_p={K_p}, C={C}"
        )
    return n ** (1.0 / (2.0 * p)) * C ** (1.0 / p) * K_p


def thm14_bound(p: float, K_p: float, L_p_norm: float, C: float) -> float:
    """Dimension-free deviation bound 6**(1/p) * C * (K_p/L)**(p-1) * K_p.

    Requires p >= 2 and K_p >= L_p_norm (the order-p norm always weakly
    exceeds the L^p norm, so a violation signals inconsistent inputs).
    """
    if not p >= 2.0:
        raise ParameterError(f"dimension-free bound requires p >= 2, got {p}")
    if L_p_norm <= 0.0 or C <= 0.0:
        raise ParameterError(f"need L_p_norm > 0 and C > 0, got {L_p_norm}, {C}")
    if K_p < L_p_norm:
        raise ParameterError(
            f"K_p={K_p} < L_p_norm={L_p_norm}: the order-p norm cannot be "
            "smaller than the L^p norm"
        )
    return 6.0 ** (1.0 / p) * C * (K_p / L_p_norm) ** (p - 1.0) * K_p


def thm14_tail_bound(p: float, K_p: float, L_p_norm: float, t: float, C: float) -> float:
    """Tail form of the dimension-free bound on the p-norm deviation.

    2 exp(-(L**(p-1) t / (2**(1/p) C K_p**p))**p); no dependence on n.
    """
    if not p >= 2.0 or K_p <= 0.0 or L_p_norm <= 0.0 or C <= 0.0 or t < 0.0:
        raise ParameterError(
            f"need p >= 2, K_p > 0, L_p_norm > 0, C > 0, t >= 0; "
            f"got p={p}, K_p={K_p}, L_p_norm={L_p_norm}, C={C}, t={t}"
        )
    scale = 2.0 ** (1.0 / p) * C * K_p**p
    return 2.0 * math.exp(-((L_p_norm ** (p - 1.0) * t / scale) ** p))


def psi_tail_bound(norm: float, p: float, t: float, clamp: bool = False) -> float:
    """2 exp(-(t/norm)**p); with clamp=True, capped at 1 for use as a probability."""
    if not (norm > 0.0 and p > 0.0 and t >= 0.0):
        raise ParameterError(f"need norm > 0, p > 0, t >= 0; got {norm}, {p}, {t}")
    value = 2.0 * math.exp(-((t / norm) ** p))
    return min(value, 1.0) if clamp else value


# ---------------------------------------------------------------------------
# scalar lemma predicates (scalar or array inputs)


def _as_predicate(result):
    return bool(result) if np.ndim(result) == 0 else np.asarray(result, dtype=bool)


def lemma_concavity(a, b, p):
    """|a - b| >= |a**(1/p) - b**(1/p)|**p for a, b >= 0 and p >= 1."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = np.asarray(p, dtype=float)
    lhs = np.abs(a - b)
    rhs = np.abs(a ** (1.0 / p) - b ** (1.0 / p)) ** p
    return _as_predicate(lhs >= rhs - _SLACK)


def lemma_xalfa(x, delta, p):
    """|x - 1| >= d implies |x**p - 1| >= max(d, d**p), for x, d >= 0, p >= 1."""
    x = np.asarray(x, dtype=float)
    delta = np.asarray(delta, dtype=float)
    p = np.asarray(p, dtype=float)
    holds = np.abs(x**p - 1.0) >= np.maximum(delta, delta**p) - _SLACK
    vacuous = np.abs(x - 1.0) < delta
    return _as_predicate(vacuous | holds)


def lemma_phi1_power(gamma, p):
    """phi1(max(g, g**p)) >= g**p / 2 for g >= 0 and p >= 2."""
    gamma = np.asarray(gamma, dtype=float)
    p = np.asarray(p, dtype=float)
    gp = gamma**p
    return _as_predicate(phi1(np.maximum(gamma, gp)) >= 0.5 * gp - _SLACK)


def phi1_min_inequality(u):
    """phi1(u) >= min(u**2, u) / 2 for u >= 0; exact on both branches."""
    u = np.asarray(u, dtype=float)
    return _as_predicate(phi1(u) >= 0.5 * np.minimum(u * u, u) - _SLACK)
