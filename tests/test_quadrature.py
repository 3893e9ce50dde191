import math

import pytest

from subweibull import dist, orlicz, quadrature
from subweibull.dist import DistributionSpec
from subweibull.errors import NumericalError
from subweibull.quadrature import improper_integral, segment_integral


def test_exponential_density_integrates_to_one():
    assert improper_integral(lambda x: math.exp(-x)) == pytest.approx(1.0, rel=1e-10)


def test_half_gaussian_integrates_to_one():
    c = math.sqrt(2.0 / math.pi)
    assert improper_integral(lambda x: c * math.exp(-0.5 * x * x)) == pytest.approx(
        1.0, rel=1e-10
    )


def test_exponential_tilt_closed_form():
    # E exp(a E) = 1/(1-a)
    for a in (0.25, 0.9, 0.99):
        got = improper_integral(lambda x: math.exp(a * x - x))
        assert got == pytest.approx(1.0 / (1.0 - a), rel=1e-9)


def test_gaussian_square_tilt_closed_form():
    # E exp(a g^2) = (1-2a)^{-1/2}
    c = math.sqrt(2.0 / math.pi)
    for a in (0.1, 0.375, 0.49):
        got = improper_integral(lambda x: c * math.exp(a * x * x - 0.5 * x * x))
        assert got == pytest.approx((1.0 - 2.0 * a) ** -0.5, rel=1e-9)


def test_divergence_constant_integrand():
    assert improper_integral(lambda x: 1.0) == math.inf


def test_divergence_growing_integrand():
    assert improper_integral(lambda x: math.exp(min(0.2 * x, 700.0))) == math.inf


def test_divergence_critical_exponential():
    # exp(x/K - x) at K = 1 is the constant 1: truncation alone would miss it
    assert improper_integral(lambda x: math.exp(x / 1.0 - x)) == math.inf
    assert improper_integral(lambda x: math.exp(x / 0.8 - x)) == math.inf


def test_slowly_converging_not_misflagged():
    got = improper_integral(lambda x: math.exp(-0.01 * x))
    assert got == pytest.approx(100.0, rel=1e-9)


def test_breakpoint_kink():
    # |x - 1| weighted by e^{-x}: integrable kink at 1
    got = improper_integral(lambda x: abs(x - 1.0) * math.exp(-x), breakpoints=(1.0,))
    want = 2.0 * math.exp(-1.0) - 1.0 + 1.0  # int_0^1 (1-x)e^-x + int_1^inf (x-1)e^-x
    assert got == pytest.approx(2.0 / math.e, rel=1e-10)
    assert want == pytest.approx(2.0 / math.e, rel=1e-12)


def test_segment_integral_basic():
    assert segment_integral(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-10)


def _recorded(fn, seen):
    def recorded(x):
        seen.append(x)
        return fn(x)

    return recorded


def test_rule_never_evaluates_at_or_outside_an_end():
    seen = []
    got = segment_integral(_recorded(lambda x: x**-0.5, seen), 0.0, 8.0)
    assert got == pytest.approx(2.0 * math.sqrt(8.0), rel=1e-12)
    assert all(0.0 < x < 8.0 for x in seen)
    # nodes are placed by their distance from the end, so they reach deep
    # into the singularity at 0 without rounding onto it
    assert min(seen) < 1e-100

    seen.clear()
    fn = lambda x: abs(x - 10.0) * math.exp(-x)
    got = segment_integral(_recorded(fn, seen), 8.0, 16.0, breakpoints=(10.0,))
    want = math.exp(-8.0) + 2.0 * math.exp(-10.0) - 7.0 * math.exp(-16.0)
    assert got == pytest.approx(want, rel=1e-12)
    assert all(8.0 < x < 16.0 and x != 10.0 for x in seen)
    assert any(x < 10.0 for x in seen) and any(x > 10.0 for x in seen)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_node_value_makes_the_segment_infinite(bad):
    seen = []
    segment_integral(_recorded(lambda x: math.exp(-x), seen), 0.0, 8.0)
    # the middle node, the first level-0 node and the last node evaluated
    for target in (seen[0], seen[1], seen[-1]):
        got = segment_integral(lambda x: bad if x == target else math.exp(-x), 0.0, 8.0)
        assert got == math.inf


def test_integrable_endpoint_singularities():
    # x^{-1/2} e^{-x} is the Gamma(1/2) law's integrand; x^{-0.9} is far steeper
    got = improper_integral(lambda x: x**-0.5 * math.exp(-x) if x > 0.0 else math.inf)
    assert got == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    got = improper_integral(lambda x: x**-0.9 * math.exp(-x) if x > 0.0 else math.inf)
    assert got == pytest.approx(math.gamma(0.1), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.9, 0.95, 0.99])
def test_mass_past_the_last_node_is_reported(alpha):
    # x**-alpha on [0, 1] keeps about d**(1 - alpha) of its mass within d of
    # 0, past the last node at d = 1e-150: 1e-15 of it at 0.9, 3e-8 at 0.95
    # and 0.03 at 0.99, where the rule used to return 96.853 for 100
    fn = lambda x: x**-alpha
    if alpha <= 0.9:
        assert segment_integral(fn, 0.0, 1.0) == pytest.approx(1.0 / (1.0 - alpha), rel=1e-12)
    else:
        with pytest.raises(NumericalError, match="past the rule's last node"):
            segment_integral(fn, 0.0, 1.0)


@pytest.mark.parametrize(
    "fn, a, b",
    [(lambda x: (x - 1.0) ** -0.5, 1.0, 2.0), (lambda x: (1.0 - x) ** -0.99, 0.0, 1.0)],
    ids=["(x - 1)**-0.5 on [1, 2]", "(1 - x)**-0.99 on [0, 1]"],
)
def test_mass_within_an_ulp_of_a_nonzero_end_is_reported(fn, a, b):
    # nodes near 1 come no closer than about 1e-16 of it: the rule returned
    # 1.99999998 for 2 and 31.12 for 100, as converged
    with pytest.raises(NumericalError, match="past the rule's last node"):
        segment_integral(fn, a, b)


@pytest.mark.parametrize(
    "power, a, b",
    [(lambda x, s: (x - 1.0) ** -s, 1.0, 2.0), (lambda x, s: (1.0 - x) ** -s, 0.0, 1.0),
     (lambda x, s: (2.0 - x) ** -s, 1.0, 2.0)],
    ids=["(x - 1)**-s on [1, 2]", "(1 - x)**-s on [0, 1]", "(2 - x)**-s on [1, 2]"],
)
def test_a_singularity_at_a_nonzero_end_is_resolved_or_reported(power, a, b):
    # the mass within the distance of the side's nearest node is bounded by
    # that distance times |fn| there; bounded by the distance of the node
    # that rounded onto the end, (1 - x)**-0.3 came back 2.1e-12 off, unreported
    resolved = 0
    for i in range(5, 100):
        s = i / 100
        try:
            got = segment_integral(lambda x: power(x, s), a, b)
        except NumericalError:
            continue
        assert abs(got - 1.0 / (1.0 - s)) <= quadrature.REL_TOL / (1.0 - s), s
        resolved += 1
    assert resolved >= 10


def test_unconverged_segment_returns_the_last_estimate():
    # a kink that is not a breakpoint leaves the rule only O(h^2) accurate, so
    # the last level's change stays above REL_TOL; its estimate is returned
    got = segment_integral(lambda x: abs(x - 1.0), 0.0, 3.0)
    assert math.isfinite(got)
    assert got == pytest.approx(2.5, rel=1e-4)


_W, _P, _H = DistributionSpec.weibull, DistributionSpec.pnormal, DistributionSpec.halfgauss_pow
_FLOOR_LAWS = [
    DistributionSpec.exponential(), _W(0.5), _W(0.7, 1.5), _W(1.5), _W(2.0), _W(2.5, 1.5),
    _W(3.0, 2.0), _P(1.0), _P(2.0), _P(3.0), _P(4.0), _H(1.0, 1.7), _H(2.0, 0.5), _H(2.5),
    _H(4.0, 0.5),
]


def _floor_grid():
    """Every package integrand over laws, orders, K from 0.3 to 350, centers and mgf arguments."""
    calls = []
    for spec in _FLOOR_LAWS:
        law = dist.canonical(spec)
        for p in (0.5, 0.8, 1.0, 1.5, 2.0, 2.5, 3.0):
            for i in range(45):
                for center in (0.0, 0.7, 2.9):
                    calls.append(lambda law=law, p=p, K=0.3 * 1.17**i, center=center:
                                 orlicz.exp_moment(law, p, K, center))
        for alpha in (0.25, 0.5, 1.0, 2.0, 3.5, 8.0):
            calls.append(lambda spec=spec, alpha=alpha: dist.moment_abs_quadrature(spec, alpha))
        for t in (-2.0, -0.5, 0.0, 0.1, 0.3, 0.49, 0.9):
            for power in (None, 1.0, 2.0, spec.order):
                calls.append(lambda spec=spec, t=t, power=power:
                             dist.mgf_quadrature(spec, t, power))
    return calls


def test_the_floor_moves_no_bit(monkeypatch):
    # a piece that stops at 2**-60 of the integral so far leaves an error too
    # small to move the sum's rounding: every value equals the floorless one
    calls = _floor_grid()
    with_floor = [call() for call in calls]
    rule = quadrature._tanh_sinh
    monkeypatch.setattr(quadrature, "_tanh_sinh", lambda fn, a, b, floor=0.0: rule(fn, a, b))
    without = [call() for call in calls]
    assert len(calls) > 14_000
    assert sum(math.isfinite(v) for v in with_floor) > 8_000
    moved = [(i, x, y) for i, (x, y) in enumerate(zip(with_floor, without)) if x != y]
    assert moved == []


def test_the_floor_saves_work():
    # exp(-x) on [32, 64] adds about 1.3e-14 to an integral near 1: with the
    # floor it takes at most the nodes of the two coarsest rules, steps 1 and
    # 1/2 in t, and under a third of those it takes alone, to 1e-12 of itself
    seen = []
    got = improper_integral(_recorded(lambda x: math.exp(-x), seen))
    assert got == pytest.approx(1.0, rel=1e-15)
    level0, finer = quadrature._node_table()
    coarsest_rules = (1 + 2 * len(level0)) + (1 + 2 * (len(level0) + len(finer[0][-1][0])))
    piece = [x for x in seen if 32.0 < x < 64.0]
    assert len(piece) <= coarsest_rules
    alone = []
    segment_integral(_recorded(lambda x: math.exp(-x), alone), 32.0, 64.0)
    assert 3 * len(piece) < len(alone)
