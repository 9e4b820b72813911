"""Chunked Monte-Carlo execution: per-chunk moments merged in chunk order
against one pass over the concatenated samples, windowed generator spawns,
thread-count independence, and memory bounded by the chunk."""

import tracemalloc

import numpy as np
import pytest
from helpers import (
    reference_chunk_samples,
    reference_mean_and_stderr,
    run_chunks_inline,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparseact import CubeFunction, HypothesisPool, empirical_rademacher, noise_sensitivity_mc
from sparseact.config import MC_CHUNK
from sparseact.hypercube import flip_sampler
from sparseact.parallel import chunk_ranges, mean_and_stderr, run_chunked

MiB = 1 << 20

_SAMPLES = hnp.arrays(
    np.float64,
    st.integers(1, 200),
    elements=st.floats(-1e3, 1e3, allow_subnormal=False),
)


def _moments(x: np.ndarray) -> list:
    mean = x.mean()
    d = x - mean
    return [x.size, mean, (d * d).sum()]


def _random_chunk(lo, hi, crng):
    return crng.random(hi - lo)


class TestMergedMoments:
    @given(_SAMPLES, st.integers(1, 250), st.sampled_from([1, 2]))
    @example(np.arange(10.0), 3, 2)  # uneven last chunk
    @example(np.arange(10.0), 10, 2)  # one chunk of exactly N
    @example(np.arange(10.0), 64, 1)  # one chunk larger than N
    @example(np.array([0.5]), 1, 2)  # N = 1
    @example(np.full(40, 0.1), 7, 2)  # constant samples, six chunks
    @settings(deadline=None, max_examples=200)
    def test_matches_one_pass_over_samples(self, samples, chunk, threads):
        def worker(lo, hi, crng):
            return samples[lo:hi]

        rows = run_chunked(worker, samples.size, np.random.default_rng(0), threads, chunk)
        assert rows.shape == (len(chunk_ranges(samples.size, chunk)), 3)
        got = mean_and_stderr(rows)
        want = reference_mean_and_stderr(samples)
        if chunk >= samples.size:
            assert got == want
            return
        # rounding in either order is relative to the data, not to a mean or
        # a spread that cancels to (nearly) zero
        scale = float(np.abs(samples).max())
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(abs(w), scale)

    @pytest.mark.parametrize("chunk", [1, 2, 200])
    def test_tiny_samples_lose_only_rounding(self, chunk):
        # one sample x and N - 1 zeros: mean and stderr are both x / N, and
        # the squared deviations are subnormal
        samples = np.zeros(134)
        samples[0] = 2.70360307e-160
        exact = samples[0] / samples.size

        def worker(lo, hi, crng):
            return samples[lo:hi]

        rows = run_chunked(worker, samples.size, np.random.default_rng(0), 1, chunk)
        mean, stderr = mean_and_stderr(rows)
        assert mean == pytest.approx(exact, rel=1e-15, abs=0)
        assert stderr == pytest.approx(exact, rel=1e-15, abs=0)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_rows_and_streams_match_one_spawn(self, threads):
        # 11 chunks with an uneven last one: more than one spawn window at
        # every thread count here
        n_items, chunk = 11 * 7 - 3, 7
        ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
        rows = run_chunked(_random_chunk, n_items, ours, threads, chunk)
        parts = reference_chunk_samples(_random_chunk, n_items, theirs, chunk)
        assert np.array_equal(rows, [_moments(p) for p in parts])
        # no spare children spawned: the caller's next spawn is the same
        assert ours.spawn(1)[0].random() == theirs.spawn(1)[0].random()

    def test_consecutive_spawns_continue_one_sequence(self):
        split, whole = np.random.default_rng(9), np.random.default_rng(9)
        children = split.spawn(3) + split.spawn(5)
        assert [g.random(4).tolist() for g in children] == [
            g.random(4).tolist() for g in whole.spawn(8)
        ]

    def test_no_items(self):
        rows = run_chunked(_random_chunk, 0, np.random.default_rng(0))
        assert rows.shape == (0, 3)
        with pytest.raises(ValueError):
            mean_and_stderr(rows)

    def test_worker_error_reaches_caller(self):
        def worker(lo, hi, crng):
            if lo >= 20:
                raise ArithmeticError("chunk failed")
            return crng.random(hi - lo)

        with pytest.raises(ArithmeticError):
            run_chunked(worker, 100, np.random.default_rng(0), threads=2, chunk=10)


class TestThreadBound:
    """Worker threads are bounded by the CPUs and the chunks, whatever
    ``threads`` asks for; an executor that starts no thread records them."""

    @pytest.mark.parametrize(
        "threads, cpus, chunks, workers",
        [(10**9, 3, 5, 3), (10**9, 8, 2, 2), (4, 8, 11, 4), (10**9, None, 11, None),
         (10**9, 8, 1, None)],
    )
    def test_workers_clamped(self, monkeypatch, threads, cpus, chunks, workers):
        created = run_chunks_inline(monkeypatch, cpus)
        rows = run_chunked(_random_chunk, chunks * 7 - 3, np.random.default_rng(4), threads, 7)
        assert created == ([] if workers is None else [workers])
        alone = run_chunked(_random_chunk, chunks * 7 - 3, np.random.default_rng(4), 1, 7)
        assert np.array_equal(rows, alone)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_below_one_refused(self, threads):
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            run_chunked(_random_chunk, 10, np.random.default_rng(4), threads)


class TestNoiseSensitivityMcAgainstOldForm:
    """The estimate against the concatenating loop it replaced: the same
    draws, flips through ``flip_sampler``, and one pass over all samples."""

    @staticmethod
    def one_pass(f: CubeFunction, rho: float, trials: int, seed: int):
        draw_flips = flip_sampler(f.n, (1.0 - rho) / 2.0)

        def worker(lo, hi, crng):
            xs = crng.integers(0, 1 << f.n, size=hi - lo)
            masks = draw_flips(hi - lo, crng)
            return 0.25 * (f.values[xs] - f.values[xs ^ masks]) ** 2

        parts = reference_chunk_samples(worker, trials, np.random.default_rng(seed), MC_CHUNK)
        return reference_mean_and_stderr(np.concatenate(parts))

    @pytest.mark.parametrize("trials", [1, 4096, MC_CHUNK, MC_CHUNK + 1, 5 * MC_CHUNK - 7])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches(self, trials, threads):
        f = CubeFunction(7, np.random.default_rng(3).standard_normal(1 << 7))
        got = noise_sensitivity_mc(f, 0.4, trials, np.random.default_rng(8), threads=threads)
        want = self.one_pass(f, 0.4, trials, 8)
        if trials <= MC_CHUNK:
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def _peak(call) -> int:
    """Traced peak of ``call()``, after one untraced call has done the lazy
    imports and set-up a first call does."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBoundedByChunk:
    def test_noise_sensitivity_mc(self):
        f = CubeFunction(10, np.random.default_rng(1).standard_normal(1 << 10))
        rng = np.random.default_rng(2)
        peak = _peak(lambda: noise_sensitivity_mc(f, 0.5, 1 << 22, rng))
        # the 2^22 samples alone would take 32 MiB
        assert peak < 4 * MiB

    def test_mc_rademacher(self):
        tables = np.random.default_rng(3).standard_normal((8, 1 << 6))
        pool = HypothesisPool(
            members=tuple(CubeFunction(6, t) for t in tables), n=6, s=1, k=1, W=1.0, B=1.0
        )
        idx = np.random.default_rng(4).integers(0, 1 << 6, size=384)
        rng = np.random.default_rng(5)
        peak = _peak(lambda: empirical_rademacher(pool, idx, 2 * MC_CHUNK, rng, mode="mc"))
        # one (MC_CHUNK, 384) draw of int64 signs and its float64 copy: 96 MiB
        assert peak < 4 * MiB
