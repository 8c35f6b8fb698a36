"""Owen's scrambled Halton sequence (arXiv:1706.02808) in numpy, drawing the
same float64 bits as ``scipy.stats.qmc.Halton(d, seed=seed)``.

Coordinate ``c`` of point ``i`` uses the ``c``-th prime ``b`` and ``K =
ceil(54 / log2 b) - 1`` digit permutations, drawn from one
``stream.Stream(seed)`` by shuffling ``range(b)`` ``K`` times per base, in
base order: the permutations scipy draws from ``numpy.random.default_rng(seed)``.
Its value is a fold over the base-``b`` digits
``d_j`` of ``i``, least significant first::

    acc = 0.0
    for j in range(K):
        acc += float(perm[j, d_j]) * w_j     # w_0 = 1.0 / b, w_{j+1} = w_j / b

The first ``k`` steps of the fold depend only on ``i mod b**k``, and the
rest only on ``i // b**k``, which is constant over each run of ``b**k``
consecutive indices.  So each base keeps a table of the ``k``-step partial
sums for every low part (``b**k >= 4096``), built by the same fold in the
same order, and a run of points is a slice of that table to which the
remaining ``K - k`` terms are added one at a time.  Every element goes
through the same IEEE products and sums, in the same order, as in the fold
above, which is why the bits are those of the digit-by-digit sequence.
"""

from __future__ import annotations

import math

import numpy as np

from .stream import Stream

_MIN_TABLE = 4096  # fewest low-part sums kept per base


def _first_primes(d: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < d:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


class _Coordinate:
    """One coordinate: its scaled digit terms and the table of low-part sums."""

    def __init__(self, base: int, stream: Stream):
        count = math.ceil(54 / math.log2(base)) - 1
        perms = [list(range(base)) for _ in range(count)]
        for perm in perms:
            stream.shuffle(perm)
        weights = [1.0 / base]
        for _ in range(count - 1):
            weights.append(weights[-1] / base)
        self.base = base
        # terms[j, digit] is float(perm[j, digit]) * w_j, the fold's product
        self.terms = np.array(perms) * np.array(weights)[:, None]
        # table[low] is the fold's sum after its first low_digits steps;
        # digit j of low is low // base**j % base, so step j puts its term outermost
        self.table = np.zeros(1)
        self.low_digits = 0
        while self.table.size < _MIN_TABLE and self.low_digits < count:
            self.table = np.add.outer(self.terms[self.low_digits], self.table).ravel()
            self.low_digits += 1

    def fill(self, out: np.ndarray, start: int) -> None:
        """Write the coordinates of points ``start, start + 1, ...`` into ``out``."""
        block = self.table.size
        i, stop = start, start + out.size
        while i < stop:
            high, low = divmod(i, block)
            run = out[i - start:min(stop, i - low + block) - start]
            run[:] = self.table[low:low + run.size]
            for row in self.terms[self.low_digits:]:
                high, digit = divmod(high, self.base)
                run += row[digit]
            i += run.size


class Halton:
    """Scrambled Halton points in ``[0, 1)**d``, drawn in sequence by ``random``."""

    def __init__(self, d: int, seed: int):
        stream = Stream(seed)
        self._coordinates = [_Coordinate(b, stream) for b in _first_primes(d)]
        self._drawn = 0

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` points, as an ``(n, d)`` array."""
        out = np.empty((len(self._coordinates), n))
        for coordinate, values in zip(self._coordinates, out):
            coordinate.fill(values, self._drawn)
        self._drawn += n
        return out.T
