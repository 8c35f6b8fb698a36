"""The package's seeded stream against ``numpy.random.default_rng`` as oracle:
the same bits for every draw the package makes, alone and interleaved."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absorbctl.halton import _first_primes
from absorbctl.stream import Stream

# one to five 32-bit entropy words: SeedSequence pools the fifth on top of the first four
SEEDS = [*range(64), 12345, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 7, 2 ** 64 - 1, 2 ** 64,
         2 ** 70 + 3, 2 ** 128 + 1, 2 ** 160 - 1]
HALTON_BASES = _first_primes(10)  # every base of a Halton dimension up to 10


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_is_numpys(seed):
    ours, oracle = Stream(seed), np.random.default_rng(seed)
    for low, high, n in ((0.0, 1.0, 1), (0.005, 0.01, 700), (-0.5, 0.5, 2), (-3.0, 1e-3, 0)):
        assert ours.uniform(low, high, n).tobytes() == oracle.uniform(low, high, n).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffle_is_numpys(seed):
    # lengths 1000 and 1025 reject most masked draws near their top index
    ours, oracle = Stream(seed), np.random.default_rng(seed)
    for length in [0, 1, *HALTON_BASES, 1000, 1025]:
        mine, theirs = list(range(length)), np.arange(length)
        ours.shuffle(mine)
        oracle.shuffle(theirs)
        assert mine == theirs.tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_a_uniform_between_shuffles_keeps_the_spare_half(seed):
    # a shuffle of base 2 draws one 32-bit half and keeps the word's other
    # half; the 64-bit uniform draws after it must leave that half to the next shuffle
    ours, oracle = Stream(seed), np.random.default_rng(seed)
    for base in HALTON_BASES:
        mine, theirs = list(range(base)), np.arange(base)
        ours.shuffle(mine)
        oracle.shuffle(theirs)
        assert mine == theirs.tolist()
        assert ours.uniform(-1.0, 2.0, base % 4).tobytes() == \
            oracle.uniform(-1.0, 2.0, base % 4).tobytes()


@given(seed=st.integers(0, 2 ** 96),
       draws=st.lists(st.tuples(st.booleans(), st.integers(0, 40)), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_any_sequence_of_draws_is_numpys(seed, draws):
    ours, oracle = Stream(seed), np.random.default_rng(seed)
    for is_shuffle, size in draws:
        if is_shuffle:
            mine, theirs = list(range(size)), np.arange(size)
            ours.shuffle(mine)
            oracle.shuffle(theirs)
            assert mine == theirs.tolist()
        else:
            assert ours.uniform(0.25, 0.5, size).tobytes() == \
                oracle.uniform(0.25, 0.5, size).tobytes()


@pytest.mark.parametrize("seed", [-1, -2 ** 64])
def test_a_negative_seed_is_refused_as_numpy_refuses_it(seed):
    with pytest.raises(ValueError):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="nonnegative"):
        Stream(seed)
