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
"""

from __future__ import annotations

import contextvars
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .config import MC_CHUNK

# Chunks spawned and in flight at once, per thread.  Two keep every thread
# busy while the caller collects the oldest result.
_WINDOW_PER_THREAD = 2


def chunk_ranges(n_items: int, chunk: int = MC_CHUNK) -> list[tuple[int, int]]:
    """Split [0, n_items) into consecutive half-open ranges of size <= chunk."""
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    return [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def _chunk_moments(worker, lo: int, hi: int, crng: np.random.Generator) -> tuple:
    """Run one chunk and reduce its samples to (count, mean, M2)."""
    x = np.asarray(worker(lo, hi, crng), dtype=np.float64)
    mean = x.mean()
    d = x - mean
    d *= d
    return x.size, mean, d.sum()


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
    ``(count, mean, M2)`` of the samples chunk i returned, in chunk order;
    ``mean_and_stderr`` turns it into an estimate.  The per-chunk generators
    are spawned from ``rng`` in chunk order, a window at a time (consecutive
    spawns continue one sequence of children), so the streams are a pure
    function of the generator state and the item count.  Each worker thread
    runs in a copy of the caller's context, so settings such as
    ``np.errstate`` hold there too.
    """
    ranges = chunk_ranges(n_items, chunk)
    rows = np.empty((len(ranges), 3))
    window = _WINDOW_PER_THREAD * max(threads, 1)
    chunks = _spawned(ranges, rng, window)
    if threads <= 1 or len(ranges) == 1:
        for i, lo, hi, crng in chunks:
            rows[i] = _chunk_moments(worker, lo, hi, crng)
        return rows
    with ThreadPoolExecutor(max_workers=threads) as pool:
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


def mean_and_stderr(moments: np.ndarray) -> tuple[float, float]:
    """Mean and standard error (ddof=1; zero for a single sample) of the
    samples behind ``run_chunked``'s moment rows, merged in row order."""
    rows = np.asarray(moments, dtype=np.float64).reshape(-1, 3).tolist()
    if not rows:
        raise ValueError("need at least one sample")
    count, mean, m2 = rows[0]
    for n_b, mean_b, m2_b in rows[1:]:
        total = count + n_b
        delta = mean_b - mean
        mean += delta * n_b / total
        m2 += m2_b + delta * delta * count * n_b / total
        count = total
    if count == 1:
        return mean, 0.0
    return mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count)
