import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from subweibull.specfun import gammainc, gammaincc, kolmogorov

# the shapes of the Gamma laws of ||X||_p^p for the paper's p-sub-exponential
# coordinates: a = n k up to 4096, and the half-integer shape of a chi-square
SHAPES = (0.5, 1.0, 8.0, 16.0, 64.0, 100.0, 256.0, 1024.0, 2048.0, 4096.0)
# x = a + z sqrt(a): the bulk, and deep tails on both sides, down to
# Q(4096, 4096 + 40 * 64) = 7e-251 and P(4096, 4096 - 30 * 64) = 6e-294
Z_GRID = (-40, -30, -20, *range(-10, 11), 20, 30, 40)


@pytest.mark.parametrize("a", SHAPES)
def test_incomplete_gamma_matches_mpmath(a):
    checked = 0
    with mp.workdps(40):
        for z in Z_GRID:
            x = a + z * math.sqrt(a)
            if x <= 0.0:
                continue
            p = float(mp.gammainc(a, 0, x, regularized=True))
            q = float(mp.gammainc(a, x, mp.inf, regularized=True))
            for got, ref in ((gammainc(a, x), p), (gammaincc(a, x), q)):
                if ref >= 1e-300:
                    assert got == pytest.approx(ref, rel=1e-10), (a, x)
                    checked += 1
                else:
                    assert 0.0 <= got < 1e-299, (a, x)
    assert checked >= len(Z_GRID)


def _kolmogorov_reference(y):
    """2 sum (-1)^(k-1) exp(-2 k^2 y^2) at 60 digits, to k = 12/y + 20 (terms below 1e-120)."""
    y = mp.mpf(y)
    with mp.workdps(60):
        terms = int(12 / y) + 20
        return 2 * mp.fsum((-1) ** (k - 1) * mp.exp(-2 * k * k * y * y) for k in range(1, terms))


@pytest.mark.parametrize(
    "ys",
    [
        [i / 100 for i in range(1, 30)],  # the theta form's range, and where 1 - K underflows
        [0.3, 0.5, 0.8, 0.81999, 0.82, 0.82001, 1.0, 1.3581, 2.0],  # across the cutover
        [i / 10 for i in range(21, 71)],  # the alternating series' deep tail
    ],
    ids=["small", "cutover", "tail"],
)
def test_kolmogorov_matches_mpmath(ys):
    for y in ys:
        ref = _kolmogorov_reference(y)
        got = kolmogorov(y)
        assert got == pytest.approx(float(ref), rel=1e-10), y
        # near 1, the deficit 1 - K is what a p-value test reads
        assert abs(got - ref) <= 2e-16, y


def test_edges():
    for a in (0.5, 1.0, 100.0):
        for x in (0.0, -1.0, -math.inf):
            assert (gammainc(a, x), gammaincc(a, x)) == (0.0, 1.0)
        assert (gammainc(a, math.inf), gammaincc(a, math.inf)) == (1.0, 0.0)
    for y in (0.0, -1.0, -math.inf, 5e-324, 1e-300):
        assert kolmogorov(y) == 1.0
    assert kolmogorov(math.inf) == 0.0


@pytest.mark.parametrize("a, x", [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, math.nan)])
def test_out_of_domain_raises(a, x):
    for fn in (gammainc, gammaincc):
        with pytest.raises(ValueError):
            fn(a, x)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.01, 5000.0), st.floats(-40.0, 40.0), st.floats(-40.0, 40.0))
def test_p_plus_q_is_one_and_p_is_non_decreasing(a, z1, z2):
    x1, x2 = sorted(max(a + z * math.sqrt(a), 0.0) for z in (z1, z2))
    for x in (x1, x2):
        assert abs(gammainc(a, x) + gammaincc(a, x) - 1.0) <= 1e-12
    assert gammainc(a, x1) <= gammainc(a, x2)
