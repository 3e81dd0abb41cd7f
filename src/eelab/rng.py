"""Seeded random streams with documented key-splitting.

Every stochastic routine in the package takes a RandomStream. Streams
are derived from a single 64-bit seed through numpy's SeedSequence
tree: ``RandomStream.from_seed(seed)`` is the root, ``stream.spawn(k)``
derives k independent child streams (used per ladder level and per
experiment replicate). Identical seeds therefore reproduce identical
runs regardless of how many levels or replicates share the root.

Draws are served from blocks filled by one vectorized Generator call at
a time; this keeps tight chain loops cheap while staying
bit-deterministic for a fixed block size. ``stream`` is the scalar
draws as an iterator, so a loop can pull one draw per pass in its ``for``
statement, and ``randint`` floors its draw (math.floor, which gives the
int() of a float >= 0 at half its cost).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError

_BUF = 8192


def _blocks(gen: np.random.Generator):
    """Endless lists of _BUF uniforms, each drawn when it is first needed."""
    while True:
        yield gen.random(_BUF).tolist()


class RandomStream:
    """Buffered uniform stream over a numpy PCG64 generator.

    Scalar draws (uniform, randint) and vector draws (uniforms) consume
    from separate buffers refilled from the same generator; the overall
    sequence is deterministic for a fixed call pattern.

    ``uniform()`` returns one float in [0, 1). It is the ``__next__`` of
    ``stream``, the one iterator over the scalar blocks, so a hot loop may
    bind it once and call it directly, or draw from ``stream`` in a
    ``for`` statement (``zip(range(n), stream)`` draws n values and no
    more); both read the same sequence. A block is drawn only when the
    previous one is used up. ``randint(n)`` is floor(uniform() * n).
    """

    def __init__(self, seed_seq: np.random.SeedSequence):
        self._seq = seed_seq
        self._gen = np.random.Generator(np.random.PCG64(seed_seq))
        self.stream: Iterator[float] = chain.from_iterable(_blocks(self._gen))
        self.uniform: Callable[[], float] = self.stream.__next__
        self._abuf = np.empty(0)
        self._apos = 0

    @classmethod
    def from_seed(cls, seed: int) -> "RandomStream":
        return cls(np.random.SeedSequence(int(seed)))

    def spawn(self, n: int) -> list["RandomStream"]:
        """Derive n independent child streams (deterministic in the seed)."""
        return [RandomStream(child) for child in self._seq.spawn(n)]

    def uniforms(self, n: int) -> np.ndarray:
        """n floats in [0, 1) as an array; ConfigError if n < 0."""
        if n < 0:
            raise ConfigError(f"cannot draw {n} uniforms")
        remaining = len(self._abuf) - self._apos
        if n <= remaining:
            out = self._abuf[self._apos:self._apos + n].copy()
            self._apos += n
            return out
        parts = [self._abuf[self._apos:]]
        need = n - remaining
        while need > 0:
            self._abuf = self._gen.random(_BUF)
            self._apos = min(need, _BUF)
            parts.append(self._abuf[:self._apos])
            need -= self._apos
        return np.concatenate(parts)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n); ConfigError if n <= 0."""
        if n <= 0:
            raise ConfigError(f"cannot draw an integer below {n}")
        j = math.floor(self.uniform() * n)
        # no rounding reaches n: floor(u * n) < n for every double u < 1 and
        # n < 2**53, so the guard acts only on a stream that yields exactly
        # 1.0, such as edge_blocks in tests/test_eeladder.py
        return n - 1 if j == n else j
