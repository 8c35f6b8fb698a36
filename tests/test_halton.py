"""The numpy scrambled Halton generator against scipy's as oracle: the same
float64 bits for every seed, dimension and batch sequence."""

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from absorbctl.halton import Halton


def assert_same_draws(d, seed, batches, skip=0):
    """Draw ``batches`` after the first ``skip`` points from both generators."""
    ours, oracle = Halton(d, seed), qmc.Halton(d=d, seed=seed)
    # the index scipy's engine draws from next; its fast_forward would draw
    # and discard the skipped points, ~4 s for 5 million
    oracle.num_generated = skip
    while skip:
        skip -= ours.random(min(skip, 1 << 20)).shape[0]
    for n in batches:
        got, want = ours.random(n), oracle.random(n)
        assert got.shape == want.shape == (n, d)
        assert got.tobytes() == want.tobytes()


@given(d=st.integers(1, 6), seed=st.integers(0, 2 ** 64),
       batches=st.lists(st.integers(1, 9000), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_matches_scipy_bitwise(d, seed, batches):
    assert_same_draws(d, seed, batches)


def test_batch_crosses_every_table_block():
    # the table blocks of bases 2..13 hold 4096, 6561, 15625, 16807, 14641
    # and 28561 points; a batch from 4095 to 62001 crosses each boundary
    assert_same_draws(6, 7, [4095, 57906, 1])


def test_deep_start():
    assert_same_draws(5, 2 ** 63 + 5, [3000, 4096], skip=4_999_900)
