"""Counter-based random streams with a reproducibility contract.

A :class:`RandomStream` is a stateless handle ``(seed, stream_index)``.  The
uniform at position ``draw_index`` of a stream is fully determined by the
triple ``(seed, stream_index, draw_index)``: the stream is the output of a
Philox counter generator keyed by ``(seed, stream_index)`` with its counter
starting at 0, so identical handles produce identical sequences on every run
and under any thread layout.  Streams with distinct ``stream_index`` values
are independent by construction of the keyed cipher.

:func:`uniform_block` draws the same uniforms for a block of consecutive
streams at once, by one of two paths; both give row ``i`` the bits of
``RandomStream(seed, start + i).uniforms(count)``:

- rows of at most :data:`SHORT_ROW_WORDS` words evaluate Philox4x64-10
  (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11)
  in numpy for every row together.  The word at ``(seed, j, k)`` is a pure
  function of the key ``(seed, j)`` and the counter, so no per-row state is
  built, and the work runs in numpy calls that release the GIL;
- longer rows draw from :func:`keyed_generators`, which re-keys one numpy
  generator per row.  Philox keeps no state beyond its key, counter and
  output buffer, so the generator re-keyed to ``(seed, j)`` with a zero
  counter and an empty buffer is exactly a fresh generator for stream ``j``.
  The Monte Carlo bootstrap draws its resample indices the same way, and
  ``dist.sample_streams`` its rows of ziggurat normals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1

# rows of at most this many words take the Philox kernel, longer rows the
# re-keyed generator: the measured crossover at 1 thread, where the kernel
# costs ~55-95 ns per word and re-keying ~3.5 us per row plus ~11 ns per word
SHORT_ROW_WORDS = 64

# Philox4x64-10 round multipliers and Weyl key increments, one per lane
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_M_LOW, _M_HIGH = _PHILOX_M & _LOW32, _PHILOX_M >> _SHIFT32


def _check_word(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not 0 <= int(value) <= _MASK64:
        raise ParameterError(f"{name} must fit in 64 bits, got {value}")


def _check_count(count) -> None:
    if not isinstance(count, (int, np.integer)) or isinstance(count, bool):
        raise ParameterError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")


def _check_streams(seed, start, stop) -> None:
    _check_word("seed", seed)
    _check_word("stream_index", start)
    if stop <= start:
        raise ParameterError(f"need stop > start, got [{start}, {stop})")
    _check_word("stream_index", stop - 1)


@dataclass(frozen=True)
class RandomStream:
    seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_index"):
            _check_word(name, getattr(self, name))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at draw_index 0 of this stream."""
        key = np.array([self.seed, self.stream_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def uniforms(self, count: int) -> np.ndarray:
        """First ``count`` uniforms of the stream, in [0, 1)."""
        _check_count(count)
        return self.generator().random(int(count))


def _philox_uniforms(seed: int, start: int, rows: int, count: int) -> np.ndarray:
    """Row i holds the first ``count`` uniforms of the Philox4x64-10 stream keyed (seed, start + i).

    numpy's Philox increments its counter before its first block, so words
    4b..4b+3 of a row encrypt the counter (b + 1, 0, 0, 0), and ``random()``
    maps a word w to (w >> 11) * 2**-53.  The state is held as x = counter
    words (0, 2) and y = words (1, 3), each of shape (2, rows, blocks); the
    first round runs on one row of counters and broadcasts over the keys.
    """
    blocks = -(-count // 4)
    key = np.empty((2, rows, 1), dtype=np.uint64)
    key[0] = seed
    key[1, :, 0] = np.arange(rows, dtype=np.uint64)
    key[1] += np.uint64(start)
    x = np.zeros((2, 1, blocks), dtype=np.uint64)
    x[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    y = np.zeros_like(x)
    for _ in range(10):
        # hi = the upper 64 bits of M * x, built from 32-bit halves
        x0, x1 = x & _LOW32, x >> _SHIFT32
        t = _M_HIGH * x0 + (_M_LOW * x0 >> _SHIFT32)
        hi = _M_HIGH * x1 + (t >> _SHIFT32) + (((t & _LOW32) + _M_LOW * x1) >> _SHIFT32)
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0), lo = M * x mod 2**64
        x, y = hi[::-1] ^ y ^ key, (_PHILOX_M * x)[::-1]
        key = key + _PHILOX_W  # the key's Weyl step between rounds
    words = np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(rows, 4 * blocks)
    return (words[:, :count] >> np.uint64(11)) * 2.0**-53


def uniform_block(seed: int, start: int, stop: int, count: int) -> np.ndarray:
    """Row i holds ``RandomStream(seed, start + i).uniforms(count)``, for i < stop - start.

    Rows of at most ``SHORT_ROW_WORDS`` words are computed by the Philox
    kernel for all rows at once; longer rows come from ``keyed_generators``.
    Both paths give the same bits, the bits of the per-stream call.
    """
    _check_streams(seed, start, stop)
    _check_count(count)
    if count <= SHORT_ROW_WORDS:
        return _philox_uniforms(int(seed), int(start), int(stop - start), int(count))
    out = np.empty((stop - start, int(count)))
    for row, gen in zip(out, keyed_generators(seed, start, stop)):
        gen.random(out=row)
    return out


def keyed_generators(seed: int, start: int, stop: int):
    """Yield, for j from ``start`` to ``stop - 1``, a generator at draw 0 of stream (seed, j).

    One numpy generator is re-keyed for each j, so each yielded generator
    is valid only until the next is asked for.  Philox keeps no state beyond
    its key, counter and output buffer, and a numpy ``Generator`` keeps none
    of its own, so the generator re-keyed to (seed, j) with a zero counter
    and an empty buffer draws exactly what ``RandomStream(seed, j).generator()``
    draws, without building a generator and a seed sequence per stream.
    """
    _check_streams(seed, start, stop)
    key = np.array([seed, 0], dtype=np.uint64)
    # a fresh Philox(key=key): zero counter, empty output buffer
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    # seeded only to skip the OS entropy read; every stream overwrites the state
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    for j in range(start, stop):
        key[1] = j
        bits.state = state
        yield gen
