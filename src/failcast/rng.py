"""Deterministic pseudo-random streams built on splitmix64.

splitmix64 is a published 64-bit generator defined entirely by its
constants: increment 0x9E3779B97F4A7C15 and output mix
``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2**64).

Because the k-th output is a pure function of ``seed + k * increment``,
a stream is counter-based: values can be produced in vectorized blocks
and never depend on call order or platform word size.  The integer
stream is bit-exact everywhere; derived floats use ordinary IEEE-754
double arithmetic.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

_U_GAMMA = np.uint64(GAMMA)
_U_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_TO_UNIT = 2.0 ** -53


def _mix_vec(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _S30)) * _U_MIX1
        z = (z ^ (z >> _S27)) * _U_MIX2
    return z ^ (z >> _S31)


def derive(seed: int, *keys: int) -> int:
    """Derive an independent substream seed from integer keys.

    Each key is folded in as ``s = mix((s ^ mix(key + GAMMA)) + GAMMA)``,
    so (seed, keys) tuples that differ anywhere give unrelated streams.
    """
    s = np.uint64(seed & _MASK)
    with np.errstate(over="ignore"):
        for k in keys:
            s = _mix_vec((s ^ _mix_vec(np.uint64(k & _MASK) + _U_GAMMA)) + _U_GAMMA)
    return int(s)


class Stream:
    """Sequential view over one splitmix64 counter stream."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK)
        self._index = 0

    def u64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit values as a uint64 array."""
        idx = np.arange(self._index + 1, self._index + n + 1, dtype=np.uint64)
        self._index += n
        with np.errstate(over="ignore"):
            state = self._seed + idx * _U_GAMMA
        return _mix_vec(state)

    def uniforms(self, n: int) -> np.ndarray:
        """Next n doubles in [0, 1), from the top 53 bits."""
        return (self.u64(n) >> _S11).astype(np.float64) * _TO_UNIT

    def normals(self, n: int) -> np.ndarray:
        """Next n standard normals via the Box-Muller transform."""
        m = (n + 1) // 2
        u1 = self.uniforms(m)
        u2 = self.uniforms(m)
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def below(self, n: int, bound: int) -> np.ndarray:
        """Next n integers uniform on [0, bound); a bound below 1 raises ValueError."""
        if bound < 1:
            raise ValueError(f"bound must be at least 1, got {bound}")
        return np.minimum((self.uniforms(n) * bound).astype(np.int64), bound - 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        n = len(items)
        if n < 2:
            return
        draws = self.uniforms(n - 1)
        for i in range(n - 1, 0, -1):
            j = min(int(draws[n - 1 - i] * (i + 1)), i)
            items[i], items[j] = items[j], items[i]
