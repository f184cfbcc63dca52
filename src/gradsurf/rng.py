"""Deterministic, platform-independent random streams.

Every random draw in this package comes from a :class:`Stream`: a
xoshiro256** generator whose 256-bit state is expanded from a 64-bit key
with the splitmix64 finalizer.  Keys are derived by absorbing a text label
into a parent key one byte at a time, so any (seed, label) pair names the
same stream on every platform and in any execution order.  The platform
default generators are never used.

Algorithm summary (all arithmetic mod 2**64):

* ``mix64(z)``: the splitmix64 finalizer
  ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31``.
* key derivation: ``k = mix64(seed + GOLDEN)`` then, for each UTF-8 byte
  ``b`` of the label, ``k = mix64(k ^ b)``.
* state expansion: ``s[i] = mix64(key + (i + 1) * GOLDEN)``.
* output: standard xoshiro256**.

:class:`Lanes` runs many streams side by side on numpy ``uint64`` arrays,
one stream per lane, through the same functions (numpy arrays wrap mod
2**64 where Python ints are masked), so lane k draws bit for bit what
``Stream(keys[k])`` draws.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    """Finalizing 64-bit avalanche function (splitmix64), on an int or a
    uint64 array."""
    z = z & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, label: str) -> int:
    """Absorb a label into a 64-bit seed, returning a stream key."""
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    k = mix64((seed + _GOLDEN) & _MASK)
    for b in label.encode("utf-8"):
        k = mix64(k ^ b)
    return k


def derive_keys(seed: int, prefix: str, count: int) -> np.ndarray:
    """derive_key(seed, f"{prefix}{k}") for every k in range(count), as uint64.

    The prefix is absorbed once; then, for all labels of one length at a
    time, their decimal digits are absorbed one position after another.
    """
    base = derive_key(seed, prefix)
    keys = np.empty(count, dtype=np.uint64)
    width, start = 1, 0
    while start < count:
        stop = min(count, 10**width)
        labels = np.arange(start, stop, dtype=np.uint64)
        k = np.full(stop - start, base, dtype=np.uint64)
        for p in reversed(range(width)):
            k = mix64(k ^ (labels // 10**p % 10 + ord("0")))
        keys[start:stop] = k
        width, start = width + 1, stop
    return keys


def _rotl(x, k: int):
    return ((x << k) | (x >> (64 - k))) & _MASK


def _expand(key) -> list:
    """The four state words of the stream with this key (int or uint64 array).

    They are never all zero, the one state xoshiro cannot leave: mix64 is a
    bijection with mix64(0) == 0, so word i is zero only for the key
    -(i + 1) * GOLDEN, and two zero words would need k * GOLDEN == 0 for some
    0 < k < 4 (all mod 2**64), which GOLDEN being odd rules out.
    """
    return [mix64((key + (((i + 1) * _GOLDEN) & _MASK)) & _MASK) for i in range(4)]


def _next(s0, s1, s2, s3):
    """One xoshiro256** step: the output and the new state."""
    result = (_rotl((s1 * 5) & _MASK, 7) * 9) & _MASK
    t = (s1 << 17) & _MASK
    s2 = s2 ^ s0
    s3 = s3 ^ s1
    s1 = s1 ^ s2
    s0 = s0 ^ s3
    s2 = s2 ^ t
    s3 = _rotl(s3, 45)
    return result, [s0, s1, s2, s3]


class Stream:
    """xoshiro256** generator addressed by a 64-bit key."""

    def __init__(self, key: int):
        if not 0 <= key <= _MASK:
            raise ValueError(f"key must be a 64-bit unsigned integer, got {key}")
        self.key = key
        self._s = _expand(key)

    def next_u64(self) -> int:
        result, self._s = _next(*self._s)
        return result

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choose(self, n: int, k: int) -> list[int]:
        """k distinct integers from range(n), in draw order.

        Partial Fisher-Yates over an index pool; O(n) memory, O(k) draws.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot choose {k} items from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def derive(self, label: str) -> "Stream":
        """Child stream addressed by this stream's key plus a label."""
        return Stream(derive_key(self.key, label))


class Lanes:
    """Independent streams, one per uint64 key, stepped together.

    Each call names the lanes it draws for (an index array, no repeats) and
    advances only those, so lane k sees the same sequence of calls a
    ``Stream(keys[k])`` would and draws the same values.
    """

    def __init__(self, keys: np.ndarray):
        self._s = np.array(_expand(np.asarray(keys, dtype=np.uint64)))

    def next_u64(self, rows: np.ndarray) -> np.ndarray:
        result, state = _next(*self._s[:, rows])
        self._s[:, rows] = state
        return result

    def below(self, n: int, rows: np.ndarray) -> np.ndarray:
        """Uniform integers in [0, n), one per listed lane, as Stream.below.

        A lane whose draw is rejected draws again; the others wait.
        """
        if not 0 < n <= _MASK:
            raise ValueError(f"n must be in [1, 2**64), got {n}")
        # Stream.below accepts u < 2**64 - 2**64 % n, i.e. u <= top
        top = _MASK - (1 << 64) % n
        out = np.empty(len(rows), dtype=np.uint64)
        pending = np.arange(len(rows))
        while pending.size:
            u = self.next_u64(rows[pending])
            ok = u <= top
            out[pending[ok]] = u[ok] % n
            pending = pending[~ok]
        return out


def derive_stream(seed: int, label: str) -> Stream:
    """Stream for a (seed, label) pair; the root of all experiment draws."""
    return Stream(derive_key(seed, label))
