"""Deterministic chunked execution for Monte-Carlo loops.

Work is cut into fixed-size chunks whose boundaries depend only on the item
count; each chunk draws from its own generator spawned (in chunk order) from
the caller's generator.  Threads only change who executes a chunk, never
what it computes, so any thread count yields byte-identical results.

Each chunk is reduced, in the thread that ran it, to one row of moments
``(count, mean, M2)`` with ``M2`` the sum of squared deviations from the
chunk mean.  ``mean_and_stderr`` merges the rows in chunk order by the
pairwise update of Chan, Golub and LeVeque (1979), so no sample outlives
its chunk.  Chunks are spawned and submitted in a window of a few per
thread, so memory is bounded by the chunk and the window, never by the
trial count.  A lone chunk's row passes through the merge untouched, so a
single-chunk estimate has the same bits as the mean and ``std(ddof=1)`` of
its samples; with two or more chunks the merge sums in another order than
one pass over all samples would, and the last digits of the mean and
stderr differ from it (the multi-chunk ``rademacher --mode mc`` values
moved in their last digit when the merge replaced that pass).

Squared deviations below 2**-1022 are subnormal and keep only some of their
bits, so a chunk whose samples all lie within about 2**-450 of zero has its
M2 taken at ``2**_SHIFT`` times their scale (an exact power-of-two scaling),
and the row holds that scaled M2 negated; ``mean_and_stderr`` merges in that
scale when every row is that small, so tiny samples lose no more than
rounding.  Rows of larger samples, and their merge, are untouched by this.
"""

from __future__ import annotations

import contextvars
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .config import MC_CHUNK

# Chunks spawned and in flight at once, per thread.  Two keep every thread
# busy while the caller collects the oldest result.
_WINDOW_PER_THREAD = 2

# Rows with |mean| below _TINY and M2 below _TINY_M2 are tiny; their M2 is
# taken, and all-tiny rows are merged, at 2**_SHIFT times the sample scale,
# where squared deviations of normal samples stay normal and no sum of them
# comes near overflow.
_TINY = 2.0**-450
_TINY_M2 = 2.0**-900
_SHIFT = 600


def chunk_ranges(n_items: int, chunk: int = MC_CHUNK) -> list[tuple[int, int]]:
    """Split [0, n_items) into consecutive half-open ranges of size <= chunk."""
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    return [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def _mean_and_m2(x: np.ndarray) -> tuple:
    mean = x.mean()
    d = x - mean
    d *= d
    return mean, d.sum()


def _chunk_moments(worker, lo: int, hi: int, crng: np.random.Generator) -> tuple:
    """Run one chunk and reduce its samples to (count, mean, M2); for tiny
    samples the last entry is -M2 * 2**(2 * _SHIFT) (or 0.0 if M2 is 0)."""
    x = np.asarray(worker(lo, hi, crng), dtype=np.float64)
    mean, m2 = _mean_and_m2(x)
    if abs(mean) < _TINY and m2 < _TINY_M2:
        m2 = _mean_and_m2(np.ldexp(x, _SHIFT))[1]
        return x.size, mean, -m2 if m2 else 0.0
    return x.size, mean, m2


def _spawned(ranges, rng: np.random.Generator, window: int):
    """Yield (i, lo, hi, chunk_rng) in chunk order, spawning ``window``
    generators at a time; the children equal those of one ``rng.spawn``."""
    for start in range(0, len(ranges), window):
        batch = ranges[start : start + window]
        for i, ((lo, hi), crng) in enumerate(zip(batch, rng.spawn(len(batch))), start):
            yield i, lo, hi, crng


def run_chunked(
    worker: Callable[[int, int, np.random.Generator], np.ndarray],
    n_items: int,
    rng: np.random.Generator,
    threads: int = 1,
    chunk: int = MC_CHUNK,
) -> np.ndarray:
    """Run ``worker(lo, hi, chunk_rng)`` over fixed chunks; per-chunk moments.

    Returns a float64 array of shape (chunks, 3) whose row i is
    ``(count, mean, M2)`` of the samples chunk i returned, in chunk order
    (with M2 scaled and negated for tiny samples, see the module notes);
    ``mean_and_stderr`` turns it into an estimate.  The per-chunk generators
    are spawned from ``rng`` in chunk order, a window at a time (consecutive
    spawns continue one sequence of children), so the streams are a pure
    function of the generator state and the item count.  At most
    ``min(threads, os.cpu_count(), chunks)`` worker threads run, since no
    result depends on their number.  Each worker thread runs in a copy of
    the caller's context, so settings such as ``np.errstate`` hold there too.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    ranges = chunk_ranges(n_items, chunk)
    rows = np.empty((len(ranges), 3))
    workers = max(min(threads, os.cpu_count() or 1, len(ranges)), 1)
    window = _WINDOW_PER_THREAD * workers
    chunks = _spawned(ranges, rng, window)
    if workers == 1:
        for i, lo, hi, crng in chunks:
            rows[i] = _chunk_moments(worker, lo, hi, crng)
        return rows
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for i, lo, hi, crng in chunks:
            if len(pending) == window:
                j, future = pending.popleft()
                rows[j] = future.result()
            run = contextvars.copy_context().run
            pending.append((i, pool.submit(run, _chunk_moments, worker, lo, hi, crng)))
        for j, future in pending:
            rows[j] = future.result()
    return rows


def _m2_at(m2: float, shift: int) -> float:
    """A row's M2 at 2**shift times the sample scale."""
    if m2 < 0:  # a tiny row's M2, at 2**_SHIFT times the sample scale
        return math.ldexp(-m2, 2 * (shift - _SHIFT))
    return math.ldexp(m2, 2 * shift)


def mean_and_stderr(moments: np.ndarray) -> tuple[float, float]:
    """Mean and standard error (ddof=1; zero for a single sample) of the
    samples behind ``run_chunked``'s moment rows, merged in row order."""
    rows = np.asarray(moments, dtype=np.float64).reshape(-1, 3).tolist()
    if not rows:
        raise ValueError("need at least one sample")
    shift = _SHIFT if all(abs(mean) < _TINY and m2 < _TINY_M2 for _, mean, m2 in rows) else 0
    rows = [(n, math.ldexp(mean, shift), _m2_at(m2, shift)) for n, mean, m2 in rows]
    count, mean, m2 = rows[0]
    for n_b, mean_b, m2_b in rows[1:]:
        total = count + n_b
        delta = mean_b - mean
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * count * n_b / total
        count = total
    mean = math.ldexp(mean, -shift)
    if count == 1:
        return mean, 0.0
    return mean, math.ldexp(math.sqrt(m2 / (count - 1)) / math.sqrt(count), -shift)
