"""Improper integrals over [0, inf) with explicit divergence detection.

The integrand is integrated segment by segment on a geometrically growing
mesh ``[0, T], [T, 2T], [2T, 4T], ...`` with ``T = FIRST_SEGMENT``.
Extension stops once a doubling contributes less than ``REL_TOL`` of the
running total.  An integral is declared divergent (result ``math.inf``) when
a segment or the total blows up, when three consecutive doublings each
contribute more than ``GROWTH_TOL`` relative without the contributions
shrinking, or when ``MAX_DOUBLINGS`` doublings pass without the increments
dying out.  The non-shrinking requirement keeps slowly converging integrands
(whose early doublings are all large but decreasing) from being
misclassified.

Truncating at a fixed upper limit would silently return a finite number for
integrands such as ``exp(x/K) * exp(-x)`` with ``K <= 1``; the doubling
scheme exists to catch exactly that.

``scipy.integrate`` is imported at the first segment, not with this module:
it pulls in much of scipy and takes most of a second to load, and most
commands never integrate.  Later calls find it in ``sys.modules``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

BLOWUP_THRESHOLD = 1e150
FIRST_SEGMENT = 8.0
REL_TOL = 1e-12
GROWTH_TOL = 1e-6
MAX_DOUBLINGS = 48

_QUAD_OPTS = dict(epsabs=1e-300, epsrel=1e-12, limit=300)


def segment_integral(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
) -> float:
    """Adaptive integral of ``fn`` on [lo, hi], split at interior breakpoints."""
    from scipy.integrate import quad

    edges = [lo] + sorted(b for b in breakpoints if lo < b < hi) + [hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        # full_output=1 also suppresses convergence warnings from quadpack
        value = quad(fn, a, b, full_output=1, **_QUAD_OPTS)[0]
        if not math.isfinite(value):
            return math.inf
        total += value
    return total


def improper_integral(
    fn: Callable[[float], float],
    *,
    breakpoints: Sequence[float] = (),
    known_divergent: bool = False,
) -> float:
    """Integral of ``fn`` over [0, inf); ``math.inf`` when divergent.

    ``known_divergent`` lets callers that can classify convergence
    analytically skip the numerical probe.
    """
    if known_divergent:
        return math.inf
    total = segment_integral(fn, 0.0, FIRST_SEGMENT, breakpoints)
    if not math.isfinite(total) or abs(total) > BLOWUP_THRESHOLD:
        return math.inf
    lo = FIRST_SEGMENT
    recent: list[float] = []
    for _ in range(MAX_DOUBLINGS):
        hi = 2.0 * lo
        seg = segment_integral(fn, lo, hi, breakpoints)
        new_total = total + seg
        if not math.isfinite(new_total) or abs(new_total) > BLOWUP_THRESHOLD:
            return math.inf
        total = new_total
        rel = abs(seg) / max(abs(total), 1e-300)
        if rel < REL_TOL:
            return total
        recent.append(rel)
        if (
            len(recent) >= 3
            and all(r > GROWTH_TOL for r in recent[-3:])
            and recent[-1] >= recent[-2] * (1.0 - 1e-9)
            and recent[-2] >= recent[-3] * (1.0 - 1e-9)
        ):
            return math.inf
        lo = hi
    return math.inf
