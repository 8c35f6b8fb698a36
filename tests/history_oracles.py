"""Brute-force reference versions of the history reads and the Euler
predictor, with Hypothesis strategies for records that exercise them and
the two builders (``input_record``, ``state_record``) through which tests
make every nonempty record, by ``append`` and ``advance`` alone.

Each oracle is the straightforward loop the library replaced: a scan of
one window at a time with one ``bisect`` per call, a norm recomputed for
every segment or sample, and one deletion at a time; ``step_pieces`` builds
each Euler step's piece list, which the generated predictor walks without
building.  The properties in ``test_model.py`` and ``test_predictor.py``
require the library to return the same bits.
"""

import bisect
import math

import numpy as np
from hypothesis import strategies as st

from absorbctl import InputHistory, StateHistory

GRID = 64  # segment starts and window ends on a dyadic grid meet Euler edges exactly


def segments_scan(hist: InputHistory, t0: float, t1: float) -> list:
    """``(value, length)`` pieces of ``[t0, t1)``, one bisect per call."""
    pieces = []
    if t0 == t1:
        return pieces
    idx = bisect.bisect_right(hist.starts, t0) - 1
    while idx < len(hist.starts):
        seg_lo = max(t0, hist.starts[idx])
        seg_hi = t1 if idx + 1 >= len(hist.starts) else min(t1, hist.starts[idx + 1])
        if seg_hi > seg_lo:
            pieces.append((hist.values[idx], seg_hi - seg_lo))
        if seg_hi >= t1:
            return pieces
        idx += 1
    return pieces


def step_pieces(hist: InputHistory, t0: float, t1: float, N: int) -> list:
    """For each of ``N >= 1`` equal steps of ``[t0, t1)``, the ``(value,
    length)`` pieces partitioning it exactly, in time order, as lists.

    Step ``i`` spans ``[t0 + i*h, t0 + (i+1)*h)`` with ``h = (t1 - t0)/N``,
    except that the last step ends exactly at ``t1``; a piece is the part
    of one segment inside a step, and empty parts are left out.  One
    index walks the record across all steps.
    """
    t0, t1 = hist.window(t0, t1)
    if t0 == t1:
        return [[] for _ in range(N)]
    starts, values = hist.starts, hist.values
    last = len(starts) - 1
    h_step = (t1 - t0) / N
    # nondecreasing, and t0 + (N-1)*h_step never rounds past t1
    edges = [t0 + i * h_step for i in range(N)]
    edges.append(t1)
    steps = []
    idx = bisect.bisect_right(starts, t0) - 1
    for i in range(N):
        lo, hi = edges[i], edges[i + 1]
        while idx < last and starts[idx + 1] <= lo:
            idx += 1
        # now starts[idx] <= lo < starts[idx + 1]: the pieces are [lo, s),
        # [s, s') ... up to hi for the starts s < hi, none of them empty
        pieces = []
        if hi > lo:
            while idx < last and starts[idx + 1] < hi:
                pieces.append((values[idx], starts[idx + 1] - lo))
                idx += 1
                lo = starts[idx]
            pieces.append((values[idx], hi - lo))
        steps.append(pieces)
    return steps


def sup_abs_scan(hist: InputHistory, t0: float, t1: float) -> float:
    best = 0.0
    for value, _length in segments_scan(hist, t0, t1):
        best = max(best, float(np.linalg.norm(value)))
    return best


def sup_norm_scan(hist: StateHistory, t0: float, t1: float) -> float:
    """Largest state norm over ``[t0, t1]``, one norm per sample: those of the
    states at both ends and of the samples between, each read by ``value``."""
    best = max(float(np.linalg.norm(hist.value(t0))), float(np.linalg.norm(hist.value(t1))))
    for t in hist.times:
        if t0 < t < t1 and float(np.linalg.norm(hist.value(t))) > best:
            best = float(np.linalg.norm(hist.value(t)))
    return best


def prune_one_at_a_time(hist: StateHistory, t: float) -> None:
    while len(hist.times) >= 2 and hist.times[1] <= t:
        del hist.times[0], hist.states[:hist.dim]


def euler_per_step(x0, hist: InputHistory, N: int, plant, t_pred: float) -> np.ndarray:
    """N Euler steps over ``[t_pred - (r + tau), t_pred)``, each summing
    ``f(x, u) * length`` over a fresh scan of its own input pieces."""
    x = np.asarray(x0, dtype=float)
    t_lo = t_pred - plant.delay_window
    h_step = (t_pred - t_lo) / N
    for i in range(N):
        b = t_pred if i == N - 1 else t_lo + (i + 1) * h_step
        increment = np.zeros_like(x)
        for value, length in segments_scan(hist, t_lo + i * h_step, b):
            increment = increment + np.asarray(plant.f(x, value)) * length
        x = x + increment
    return x


def input_record(segments, t_now: float = 0.0) -> InputHistory:
    """An input record built as a run builds its initial one: ``append``
    each ``(t_start, value)`` in order from the first start, then
    ``advance`` to ``t_now``."""
    hist = InputHistory(segments[0][0])
    for t_start, value in segments:
        hist.append(t_start, value)
    hist.advance(t_now)
    return hist


def state_record(times, states) -> StateHistory:
    """A state record of ``states`` sampled at ``times``, in one ``append``."""
    hist = StateHistory()
    hist.append(times, states)
    return hist


def grid_times(lo: float, hi: float):
    """Times in ``[lo, hi]``: grid points (where segment starts lie) or any float."""
    k_lo, k_hi = math.ceil(lo * GRID), math.floor(hi * GRID)
    floats = st.floats(lo, hi)
    if k_lo > k_hi:
        return floats
    return st.integers(k_lo, k_hi).map(lambda k: k / GRID) | floats


@st.composite
def input_records(draw, t_min: float = -2.0, t_now: float = 0.0, m: int = 1):
    """An input record covering ``[t_min, t_now)`` with up to 12 segments
    starting on the grid or between grid points."""
    inner = draw(st.sets(grid_times(t_min, t_now).filter(lambda t: t_min < t < t_now),
                         max_size=11))
    starts = [t_min, *sorted(inner)]
    values = draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m),
                           min_size=len(starts), max_size=len(starts)))
    return input_record(list(zip(starts, values)), t_now)


@st.composite
def state_records(draw):
    """A state record of 1-30 samples of a 2-vector on ``[0, 1]``."""
    times = sorted(draw(st.sets(grid_times(0.0, 1.0), min_size=1, max_size=30)))
    states = draw(st.lists(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
                           min_size=len(times), max_size=len(times)))
    return state_record(times, states)


@st.composite
def windows(draw, lo: float, hi: float):
    """``(t0, t1)`` with ``lo <= t0 <= t1 <= hi``, ends often on the grid."""
    a, b = draw(grid_times(lo, hi)), draw(grid_times(lo, hi))
    return min(a, b), max(a, b)
