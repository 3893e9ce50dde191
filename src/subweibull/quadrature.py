"""Improper integrals over [0, inf) on a geometrically growing mesh.

The integrand is integrated segment by segment on the mesh ``[0, T], [T, 2T],
[2T, 4T], ...`` with ``T = FIRST_SEGMENT``.  Extension stops once a doubling
contributes less than ``REL_TOL`` of the running total.  Whether an integral
converges is not decided here: the callers' integrands are moments of a
canonical law, and the law classifies their convergence in closed form
(``dist.CanonicalLaw.exp_moment_converges``), so a moment the law calls
divergent never reaches the integrator.  It has three exits of its own, each
returning ``math.inf``: a non-finite value of the integrand or of a segment,
a total above ``BLOWUP_THRESHOLD``, and ``MAX_DOUBLINGS`` doublings without
the increments dying out.  The first two also end a convergent integral
above 1e150: E X**100 of ``exp`` is 100! = 9.33e157 and reads as inf.

Each segment, split at the caller's breakpoints, is integrated by the
tanh-sinh (double-exponential) rule of Takahasi & Mori (1974): with
x = mid + c tanh(pi/2 sinh t) the integrand in t decays doubly exponentially,
so the trapezoidal rule in t converges fast, also at an integrable endpoint
singularity such as a density's at 0.

- Levels.  Level 0 has step 1 in t; each level halves the step and adds only
  its new nodes to the sum so far.  A piece stops once a level changes its
  estimate by at most ``REL_TOL`` relative, or by at most 2**-60 of the
  integral so far (the ``floor`` that ``improper_integral`` passes on: the
  sum of the segments before, 0 for the first), a change far below the
  rounding of that sum; after ``_LEVELS`` levels it returns its last
  estimate.  So a tail segment that adds a few ulps to the integral is not
  refined to 1e-12 of itself.  At 2**-53 the error left moved the last bit
  of about 1 integral in 170; at 2**-60 it moves none of the 14 685 that
  ``tests/test_quadrature.py`` compares with and without the floor.
- Tails.  On each side, finer levels stop past the last level-0 node whose
  term is above 1e-17 of the level-0 sum and above 2**-60 of the floor (per
  unit of t and of the half-width), at their first term below that.
- Ends.  Nodes are placed by their distance from the nearer end, down to
  1e-150 of the half-width, and a node that rounds onto an end is dropped:
  ``fn`` is never evaluated at or outside an end.  Where a side's walk runs
  out to the table's last node, or meets a node that rounds onto the end,
  without meeting its tail, the mass it leaves is taken as d * |fn| at the
  side's node nearest the end over all levels so far, d that node's distance
  from the end; above ``REL_TOL`` of the estimate (or 2**-60 of the floor)
  the piece raises ``NumericalError`` rather than return a truncated
  integral: x**-0.95 on [0, 1] keeps 3e-8 of its mass past the table, and
  (x - 1)**-0.5 on [1, 2] 2e-8 within about an ulp of 1, where no node can
  go.
- A non-finite value of ``fn`` makes the integral ``math.inf``.

The rule is plain ``math`` on scalars: it loads no scipy, and no value
depends on numpy's SIMD dispatch.  It assumes ``fn`` is smooth inside each
piece; a kink off the breakpoints leaves it only O(h^2) accurate.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from .errors import NumericalError

BLOWUP_THRESHOLD = 1e150
FIRST_SEGMENT = 8.0
REL_TOL = 1e-12
MAX_DOUBLINGS = 48

_LEVELS = 8  # tanh-sinh levels: steps 1, 1/2, ..., 1/128 in t
_TAIL_REL = 1e-17  # terms below this share of the level-0 sum end a side's walk
_FLOOR_REL = 2.0**-60  # changes below this share of the integral so far end a piece
# nodes run out to t = 5.40, where they lie 1e-150 of the half-width from
# the end: an x**-0.9 singularity there loses under 1e-14 of its mass, and
# the square of a node near 0 is still a normal float
_T_MAX = math.asinh(math.log(2e150) / math.pi)

Nodes = tuple[tuple[float, float], ...]


def _nodes(h: float, ks: range) -> Nodes:
    """(distance from the end, weight) on [-1, 1] of the nodes t = k h, k in ``ks``.

    The node at t > 0 lies 1 - tanh(u) = 1 / (e^u cosh u) from +1 (and as far
    from -1 at -t), u = pi/2 sinh t, with weight pi/2 cosh t / cosh(u)^2.  The
    distance is computed directly, so nodes near an end keep their digits.
    """
    nodes = []
    for k in ks:
        t = k * h
        u = 0.5 * math.pi * math.sinh(t)
        nodes.append((1.0 / (math.exp(u) * math.cosh(u)),
                      0.5 * math.pi * math.cosh(t) / math.cosh(u) ** 2))
    return tuple(nodes)


@functools.cache
def _node_table() -> tuple[Nodes, tuple[tuple[tuple[Nodes, Nodes], ...], ...]]:
    """Level 0's nodes t = 1, 2, ..., and for each finer level j its new nodes,
    the odd multiples of 2^-j, split for each n = 0, 1, ... into those below
    t = n and those between n and n + 1.  Built at the first integral.
    """
    level0 = _nodes(1.0, range(1, int(_T_MAX) + 1))
    finer = []
    for level in range(1, _LEVELS):
        per = 2 ** (level - 1)  # new nodes per unit of t
        nodes = _nodes(0.5**level, range(1, int(_T_MAX * 2 * per) + 1, 2))
        finer.append(tuple((nodes[: n * per], nodes[n * per : (n + 1) * per])
                           for n in range(len(level0) + 1)))
    return level0, tuple(finer)


def _tanh_sinh(fn: Callable[[float], float], a: float, b: float, floor: float = 0.0) -> float:
    """Integral of ``fn`` on [a, b] by the tanh-sinh rule; ``math.inf`` if not finite.

    ``floor`` >= 0 is the size of the integral the piece will be added to.
    """
    c = 0.5 * (b - a)
    mid = a + c
    if not a < mid < b:  # no float lies inside
        return 0.0
    level0, finer = _node_table()
    f_mid = fn(mid)
    total = 0.5 * math.pi * f_mid
    sides = []
    for end, scale in ((a, c), (b, -c)):
        values = []
        for distance, _ in level0:
            x = end + scale * distance
            if x == end:  # this node and those beyond it round onto the end
                break
            values.append(fn(x))
        terms = [weight * value for (_, weight), value in zip(level0, values)]
        total += sum(terms)
        sides.append((end, scale, terms, values))
    estimate = c * total
    if not math.isfinite(estimate):
        return math.inf
    # on each side, finer levels take every node inside the last level-0 term
    # above the tail, then walk out to the first term below it
    stop = _FLOOR_REL * floor
    tail = max(_TAIL_REL * abs(total), stop / c)
    walks = []
    for end, scale, terms, values in sides:
        n = len(terms)
        while n and -tail < terms[n - 1] < tail:
            n -= 1
        # distance and fn of the side's nearest node to the end so far: the
        # last level-0 node kept, else the middle
        near, last = (level0[n - 1][0], values[n - 1]) if n else (1.0, f_mid)
        walks.append([end, scale, n, near, last])
    h = 1.0
    for splits in finer:
        h *= 0.5
        added = 0.0
        beyond = 0.0  # this level's bound on the mass nearer an end than any node
        for walk in walks:
            end, scale, n, near, last = walk
            inner, outer = splits[n]
            for distance, weight in inner:
                added += weight * fn(end + scale * distance)
            for distance, weight in outer:
                x = end + scale * distance
                if x == end:  # no node samples the stretch within the nearest one's distance
                    beyond += abs(scale * near * last)
                    break
                value = fn(x)
                term = weight * value
                added += term
                if distance < near:
                    near, last = distance, value
                if -tail < term < tail:
                    break
            else:
                if outer and n == len(level0):  # the walk reached the table's last node
                    beyond += abs(scale * near * last)
            walk[3:] = near, last
        total += added
        previous, estimate = estimate, c * h * total
        if not math.isfinite(estimate):
            return math.inf
        if abs(estimate - previous) <= max(REL_TOL * abs(estimate), stop):
            break
    if beyond > max(REL_TOL * abs(estimate), stop):
        raise NumericalError(
            f"integral on [{a:g}, {b:g}] not resolved: about {beyond:.3g} of it lies past "
            f"the rule's last node near an end, against an estimate of {estimate:.6g}"
        )
    return estimate


def segment_integral(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    breakpoints: Sequence[float] = (),
    floor: float = 0.0,
) -> float:
    """Integral of ``fn`` on [lo, hi], split at interior breakpoints.

    ``fn`` is called only strictly inside each piece; any non-finite value
    makes the result ``math.inf``.  Each piece also stops at 2**-60 of
    ``floor``, the size of the integral the result will be added to.
    """
    edges = [lo] + sorted(b for b in breakpoints if lo < b < hi) + [hi]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        value = _tanh_sinh(fn, a, b, floor)
        if not math.isfinite(value):
            return math.inf
        total += value
    return total


def improper_integral(
    fn: Callable[[float], float], *, breakpoints: Sequence[float] = ()
) -> float:
    """Integral of ``fn`` over [0, inf); ``math.inf`` on a non-finite value, a total
    above ``BLOWUP_THRESHOLD`` or ``MAX_DOUBLINGS`` doublings.

    Convergence is the caller's to decide: nothing here tells a divergent
    integral from a convergent one that is large or slow.
    """
    total = segment_integral(fn, 0.0, FIRST_SEGMENT, breakpoints)
    if not math.isfinite(total) or abs(total) > BLOWUP_THRESHOLD:
        return math.inf
    lo = FIRST_SEGMENT
    for _ in range(MAX_DOUBLINGS):
        hi = 2.0 * lo
        seg = segment_integral(fn, lo, hi, breakpoints, abs(total))
        new_total = total + seg
        if not math.isfinite(new_total) or abs(new_total) > BLOWUP_THRESHOLD:
            return math.inf
        total = new_total
        if abs(seg) / max(abs(total), 1e-300) < REL_TOL:
            return total
        lo = hi
    return math.inf
