import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, **env):
    """``python *args`` in a fresh interpreter that imports the package from ``src/``.

    ``env`` adds variables to this process's environment.  Returns the
    finished process, with its output as text.
    """
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), **env),
        timeout=120,
    )


@pytest.fixture
def fresh_python():
    """:func:`run_python`, for tests that start their own interpreter."""
    return run_python


def _avx512_skx() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__["AVX512_SKX"]


@pytest.fixture
def without_avx512():
    """``run(fn, *args)``: ``fn(*args)`` in a subprocess with numpy's AVX-512 paths off.

    ``fn`` is a module-level function that does its own imports and returns
    JSON-serializable data; the subprocess gets its source, not its module.
    Skips where AVX512_SKX is off in this process: there is no SIMD path to
    switch off.
    """
    if not _avx512_skx():
        pytest.skip("AVX512_SKX is not enabled in this process: no SIMD path to switch off")

    def run(fn, *args):
        probe = "\n".join([
            "import json",
            inspect.getsource(_avx512_skx),
            inspect.getsource(fn),
            f"result = {fn.__name__}(*{args!r})",
            'print(json.dumps({"avx512_skx": _avx512_skx(), "result": result}))',
        ])
        proc = run_python(
            ["-c", probe], NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["avx512_skx"] is False, "NPY_DISABLE_CPU_FEATURES did not take effect"
        return out["result"]

    return run


_UNIT_NORMS = {}


def _mpmath_unit_norm(k, order, p, center, guess):
    """Root K of E exp((|B**e - center| / K)**p) = 2 at 30 digits, found from ``guess``.

    ``B`` is a unit exponential (``k`` 1, e = 1/order) or ``|g|``
    (``k`` 1/2, e = 2/order), integrated with mpmath's own tanh-sinh rule, split at the
    center's kink.  Cached by everything but the guess.
    """
    key = (k, order, p, center)
    if key not in _UNIT_NORMS:
        with mp.workdps(30):
            e = (1 if k == 1.0 else 2) / mp.mpf(order)
            density = (lambda b: mp.exp(-b)) if k == 1.0 else (lambda g: 2 * mp.npdf(g))
            c = mp.mpf(center)
            kink = {c ** (1 / e)} if c > 0 else set()
            knots = sorted({mp.mpf(k) for k in (0, 1, 4, 16)} | kink)
            phi = lambda K: mp.quad(
                lambda b: density(b) * mp.exp((abs(b**e - c) / K) ** p), [*knots, mp.inf]
            )
            _UNIT_NORMS[key] = float(mp.findroot(lambda K: phi(K) - 2, mp.mpf(guess)))
    return _UNIT_NORMS[key]


@pytest.fixture
def mpmath_norm():
    """``norm(law, p, guess, center=0.0)``: the order-p norm of ``law - center`` by mpmath.

    ``law`` is a ``dist.CanonicalLaw``; its norm is its scale times the norm
    of its unit law shifted by ``center / scale``, found near ``guess``.
    """

    def norm(law, p, guess, center=0.0):
        unit = _mpmath_unit_norm(law.k, law.order, p, center / law.scale, guess / law.scale)
        return law.scale * unit

    return norm
