"""Counter-based random streams with a reproducibility contract.

A :class:`RandomStream` is a stateless handle ``(seed, stream_index)``.  The
uniform at position ``draw_index`` of a stream is fully determined by the
triple ``(seed, stream_index, draw_index)``: the stream is the output of a
Philox counter generator keyed by ``(seed, stream_index)`` with its counter
starting at 0, so identical handles produce identical sequences on every run
and under any thread layout.  Streams with distinct ``stream_index`` values
are independent by construction of the keyed cipher.

:func:`uniform_block` draws the same uniforms for a block of consecutive
streams at once.  Philox keeps no state beyond its key, counter and output
buffer, so one generator re-keyed to ``(seed, j)`` with a zero counter and an
empty buffer is exactly a fresh generator for stream ``j``; the block fill
builds one generator per call instead of one per stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1


def _check_word(name: str, value) -> None:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not 0 <= int(value) <= _MASK64:
        raise ParameterError(f"{name} must fit in 64 bits, got {value}")


def _check_count(count) -> None:
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")


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


def uniform_block(seed: int, start: int, stop: int, count: int) -> np.ndarray:
    """Row i holds ``RandomStream(seed, start + i).uniforms(count)``, for i < stop - start."""
    _check_word("seed", seed)
    _check_word("stream_index", start)
    if stop <= start:
        raise ParameterError(f"need stop > start, got [{start}, {stop})")
    _check_word("stream_index", stop - 1)
    _check_count(count)
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
    # seeded only to skip the OS entropy read; every row overwrites the state
    bits = np.random.Philox(0)
    gen = np.random.Generator(bits)
    out = np.empty((stop - start, int(count)))
    for i, j in enumerate(range(start, stop)):
        key[1] = j
        bits.state = state
        gen.random(out=out[i])
    return out
