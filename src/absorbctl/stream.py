"""The random bits of ``numpy.random.default_rng(seed)`` without importing
``numpy.random``: its ``SeedSequence`` seeding of PCG64 (O'Neill's 128-bit
LCG with the XSL-RR output, HMC-CS-2014-0905), and the two draws the package
makes from it, ``uniform`` and ``shuffle``, bit for bit.

numpy pins the bit generator's stream across releases (NEP 19) but not the
algorithms of ``Generator.uniform`` and ``Generator.shuffle``; they are
written out here, so the schedules, Halton scrambles and probes that seeds
become depend on this module alone:

* ``uniform(low, high, n)``: ``low + (high - low) * ((next64 >> 11) * 2**-53)``;
* ``shuffle(items)``: Fisher-Yates from the last index down, each index
  ``j <= i`` drawn by masked rejection (numpy's ``random_interval``) on
  32-bit halves of ``next64``, low half first, the high half kept for the
  next 32-bit draw.  A 64-bit draw leaves a kept half in place.
"""

from __future__ import annotations

import operator
from itertools import islice

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants; its pool holds four 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hashmix(hash_const: int, mult: int):
    """SeedSequence's 32-bit hash, each call on the next of its chained constants."""
    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    entropy = [seed & _MASK32]  # 32-bit words, least significant first
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (entropy + [0] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hashmix(_INIT_B, _MULT_B)
    halves = [output(pool[i % _POOL_SIZE]) for i in range(8)]
    return [lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])]


def _pcg64(seed: int):
    """The endless ``next64`` outputs of PCG64 seeded as ``default_rng(seed)`` seeds it."""
    s0, s1, i0, i1 = _seed_words(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        yield (word << 64 | word) >> (state >> 122) & _MASK64  # rotated right


class Stream:
    """One seeded stream, drawn as ``numpy.random.default_rng(seed)`` draws it."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self._next64 = _pcg64(seed)
        self._half: int | None = None  # high half of a word split for 32-bit draws

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """``n`` floats uniform on ``[low, high)``, as ``Generator.uniform(low, high, n)``."""
        words = np.fromiter(islice(self._next64, n), np.uint64, n)
        return low + (high - low) * ((words >> np.uint64(11)) * 2.0 ** -53)

    def shuffle(self, items: list) -> None:
        """Permute ``items`` (at most 2**32 of them) in place, as ``Generator.shuffle``
        permutes a 1-d array."""
        words, half = self._next64, self._half
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if half is None:
                    word = next(words)
                    j, half = word & mask, word >> 32
                else:
                    j, half = half & mask, None
                if j <= i:
                    break
            items[i], items[j] = items[j], items[i]
        self._half = half
