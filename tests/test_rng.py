import numpy as np
import pytest

from eelab.errors import ConfigError
from eelab.rng import RandomStream

BLOCK = 8192


class BufferedStream:
    """Reference: scalar draws served from a list buffer refilled with
    BLOCK uniforms whenever it runs dry, vector draws from an array
    buffer refilled from the same generator."""

    def __init__(self, seed_seq):
        self._gen = np.random.Generator(np.random.PCG64(seed_seq))
        self._sbuf = []
        self._spos = 0
        self._abuf = np.empty(0)
        self._apos = 0

    def uniform(self):
        if self._spos == len(self._sbuf):
            self._sbuf = self._gen.random(BLOCK).tolist()
            self._spos = 0
        u = self._sbuf[self._spos]
        self._spos += 1
        return u

    def uniforms(self, n):
        remaining = len(self._abuf) - self._apos
        if n <= remaining:
            out = self._abuf[self._apos:self._apos + n].copy()
            self._apos += n
            return out
        parts = [self._abuf[self._apos:]]
        need = n - remaining
        while need > 0:
            self._abuf = self._gen.random(BLOCK)
            self._apos = min(need, BLOCK)
            parts.append(self._abuf[:self._apos])
            need -= self._apos
        return np.concatenate(parts)

    def randint(self, n):
        j = int(self.uniform() * n)
        return n - 1 if j == n else j


@pytest.mark.parametrize("seed", [0, 7, 2006])
def test_stream_matches_buffered_reference(seed):
    """Mixed scalar and vector draws, crossing both buffers' block
    boundaries several times, give identical values."""
    ours = RandomStream.from_seed(seed)
    ref = BufferedStream(np.random.SeedSequence(seed))
    plan = np.random.default_rng(seed + 1)
    scalars = vectors = 0
    while scalars < 6 * BLOCK or vectors < 6 * BLOCK:
        op = int(plan.integers(3))
        if op == 0:
            for _ in range(int(plan.integers(1, 3000))):
                assert ours.uniform() == ref.uniform()
                scalars += 1
        elif op == 1:
            for _ in range(int(plan.integers(1, 3000))):
                n = int(plan.choice([1, 2, 3, 41, 1000, 2 ** 31]))
                assert ours.randint(n) == ref.randint(n)
                scalars += 1
        else:
            n = int(plan.choice([0, 1, 5, 100, BLOCK - 1, BLOCK, BLOCK + 3, 20000]))
            np.testing.assert_array_equal(ours.uniforms(n), ref.uniforms(n))
            vectors += n


def test_a_negative_draw_count_is_refused_and_draws_nothing():
    """uniforms(n) with n < 0 raises before touching its buffer, so the
    stream goes on as if the call had not been made."""
    ours, ref = RandomStream.from_seed(3), RandomStream.from_seed(3)
    np.testing.assert_array_equal(ours.uniforms(3), ref.uniforms(3))
    with pytest.raises(ConfigError):
        ours.uniforms(-1)
    np.testing.assert_array_equal(ours.uniforms(2), ref.uniforms(2))


@pytest.mark.parametrize("n", [0, -3])
def test_an_empty_integer_range_is_refused_and_draws_nothing(n):
    """randint(n) with n <= 0 has no value to return: it raises before
    drawing, so the stream goes on as if the call had not been made."""
    ours, ref = RandomStream.from_seed(5), RandomStream.from_seed(5)
    assert ours.randint(7) == ref.randint(7)
    with pytest.raises(ConfigError):
        ours.randint(n)
    assert [ours.uniform() for _ in range(3)] == [ref.uniform() for _ in range(3)]


def test_spawned_streams_match_buffered_reference():
    ours = RandomStream.from_seed(11).spawn(3)
    refs = [BufferedStream(s) for s in np.random.SeedSequence(11).spawn(3)]
    for _ in range(BLOCK + 10):
        for a, b in zip(ours, refs):
            assert a.uniform() == b.uniform()
            assert a.randint(21) == b.randint(21)

