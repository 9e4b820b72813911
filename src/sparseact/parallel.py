"""Deterministic chunked execution for Monte-Carlo loops.

Work is cut into fixed-size chunks whose boundaries depend only on the item
count; each chunk draws from its own generator spawned (in chunk order) from
the caller's generator.  Threads only change who executes a chunk, never
what it computes, so any thread count yields byte-identical results.
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .config import MC_CHUNK


def chunk_ranges(n_items: int, chunk: int = MC_CHUNK) -> list[tuple[int, int]]:
    """Split [0, n_items) into consecutive half-open ranges of size <= chunk."""
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    return [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def run_chunked(
    worker: Callable[[int, int, np.random.Generator], np.ndarray],
    n_items: int,
    rng: np.random.Generator,
    threads: int = 1,
    chunk: int = MC_CHUNK,
) -> np.ndarray:
    """Run ``worker(lo, hi, chunk_rng)`` over fixed chunks and concatenate.

    The per-chunk generators are spawned from ``rng`` before any work runs,
    so the streams are a pure function of the generator state and the item
    count.  Results are concatenated in chunk order.  Each worker thread runs
    in a copy of the caller's context, so settings such as ``np.errstate``
    hold there too.
    """
    ranges = chunk_ranges(n_items, chunk)
    if not ranges:
        return np.empty(0)
    rngs = rng.spawn(len(ranges))
    if threads <= 1 or len(ranges) == 1:
        parts = [worker(lo, hi, r) for (lo, hi), r in zip(ranges, rngs)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, worker, lo, hi, r)
                for (lo, hi), r in zip(ranges, rngs)
            ]
            parts = [f.result() for f in futures]
    return np.concatenate(parts)


def mean_and_stderr(samples: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (ddof=1; zero for a single sample)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / np.sqrt(arr.size))
