"""Empirical Rademacher complexity of finite hypothesis pools.

The class quantity maximizes over infinitely many networks; here we
maximize over an explicit finite pool, which lower-bounds the class value,
and compare against the theorem's closed-form upper envelope.  Samples are
packed point indices (the encoding of :mod:`sparseact.hypercube`).  Up to
m = MAX_EXHAUSTIVE_N the expectation over sign vectors is enumerated exactly
with the whole-cube kernel ``affine_blocks``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import bounds
from .config import MAX_EXHAUSTIVE_N, MC_CHUNK
from .constructions import junta_to_net, random_junta
from .errors import CapacityError
from .fourier import values_at
from .hypercube import affine_blocks, packed_indices
from .network import SparseNet, verify_sparsity
from .parallel import mean_and_stderr, run_chunked


# Entries per draw of Monte-Carlo sign rows: 512 KiB of int64 signs and as
# much of float64, in place of (MC_CHUNK, m) arrays of each.
_SIGN_DRAW_ENTRIES = 1 << 16


@dataclass(frozen=True)
class HypothesisPool:
    """Finite list of real-valued predictors plus its scale envelope."""

    members: tuple
    n: int
    s: int
    k: int
    W: float
    B: float

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("pool must be nonempty")

    def value_matrix(self, idx) -> np.ndarray:
        """(pool, m) matrix of member values at the m packed sample indices."""
        idx = packed_indices(idx, self.n)
        return np.array([values_at(h, self.n, idx) for h in self.members])


@dataclass(frozen=True)
class RademacherEstimate:
    """E_z max_h (1/m) sum_i z_i h(x_i), with Monte-Carlo error if sampled.

    Exact enumeration reports stderr 0 and trials = 2^m.
    """

    mean: float
    stderr: float
    trials: int
    m: int


def empirical_rademacher(
    pool: HypothesisPool,
    idx,
    trials: int,
    rng: np.random.Generator | None = None,
    mode: str = "auto",
    threads: int = 1,
) -> RademacherEstimate:
    """Estimate the empirical Rademacher complexity of the pool on the
    sample of packed indices ``idx``.

    mode "exact" enumerates all 2^m sign vectors (m <= MAX_EXHAUSTIVE_N);
    "mc" averages over ``trials`` uniform sign vectors drawn from ``rng``;
    "auto" picks exact exactly when m <= MAX_EXHAUSTIVE_N.
    """
    H = pool.value_matrix(idx)
    m = H.shape[1]
    if mode == "auto":
        mode = "exact" if m <= MAX_EXHAUSTIVE_N else "mc"
    if mode == "exact":
        if m > MAX_EXHAUSTIVE_N:
            raise CapacityError(f"exact enumeration needs m <= {MAX_EXHAUSTIVE_N}, got {m}")
        # column z of a block holds <z, h(S)> for every member h, z a sign vector
        total = sum(
            float(Z.max(axis=0).sum()) for _, Z in affine_blocks(H, np.zeros(len(H)))
        )
        return RademacherEstimate(mean=total / (m << m), stderr=0.0, trials=1 << m, m=m)
    if mode != "mc":
        raise ValueError(f"mode must be 'auto', 'exact', or 'mc', got {mode!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if rng is None:
        raise ValueError("mc mode needs a generator")

    def worker(lo: int, hi: int, crng: np.random.Generator) -> np.ndarray:
        return _sign_sups(H, hi - lo, crng)

    moments = run_chunked(worker, trials, rng, threads=threads, chunk=MC_CHUNK)
    mean, stderr = mean_and_stderr(moments)
    return RademacherEstimate(mean=mean, stderr=stderr, trials=trials, m=m)


def _sign_sups(H: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """max_h <z, h(S)> / m for ``count`` uniform sign rows z, H being (pool, m).

    The rows are drawn about _SIGN_DRAW_ENTRIES entries at a time; the
    generator's stream runs on across draws, so they are the rows of one
    ``rng.integers(0, 2, size=(count, m))`` draw.  BLAS may sum a product of
    slice size in another order than one of ``count`` rows, so with
    non-integer values a sup can differ from the one-draw form's last bit.
    """
    m = H.shape[1]
    rows = max(1, _SIGN_DRAW_ENTRIES // m)
    sups = np.empty(count)
    for a in range(0, count, rows):
        Z = 1.0 - 2.0 * rng.integers(0, 2, size=(min(rows, count - a), m))
        np.max(Z @ H.T, axis=1, out=sups[a : a + rows])
    sups /= m
    return sups


def random_sparse_pool(
    params: bounds.ClassParams, count: int, rng: np.random.Generator
) -> HypothesisPool:
    """A pool of ``count`` exactly k-sparse networks built from juntas.

    Each member stacks k junta networks on disjoint unit blocks (a junta
    net keeps exactly one unit strictly active, so the stack keeps exactly
    k).  Junta width: the largest p <= n with k * 2^p <= s.  Sparsity is
    re-verified per member: exhaustively for n <= 14, else on 20,000
    uniform points.
    """
    if count < 1:
        raise ValueError(f"need at least one member, got {count}")
    bounds.require_level(params)
    n, s, k = params.n, params.s, params.k
    p = min(n, (s // k).bit_length() - 1)

    members = []
    W_env = 0.0
    B_env = 0.0
    for _ in range(count):
        net = _stack([junta_to_net(random_junta(rng, n, p)) for _ in range(k)], k)
        report = (
            verify_sparsity(net, k, "exhaustive")
            if n <= 14
            else verify_sparsity(net, k, support=rng.integers(0, 1 << n, size=20_000))
        )
        if report.max_active > k:
            raise RuntimeError(
                f"construction produced a net with {report.max_active} active units"
            )
        scale = net.scale_params()
        W_env = max(W_env, scale.W)
        B_env = max(B_env, scale.B)
        members.append(net)
    return HypothesisPool(members=tuple(members), n=n, s=s, k=k, W=W_env, B=B_env)


def _stack(nets: Sequence[SparseNet], k: int) -> SparseNet:
    """Concatenate hidden units of same-dimension nets; declared level k."""
    n = nets[0].n
    return SparseNet(
        n=n,
        s=sum(net.s for net in nets),
        k=k,
        u=np.concatenate([net.u for net in nets]),
        w=np.vstack([net.w for net in nets]),
        b=np.concatenate([net.b for net in nets]),
    )


def compare_to_bound(
    pool: HypothesisPool,
    m_grid: Sequence[int],
    trials: int,
    rng: np.random.Generator,
    mode: str = "mc",
    threads: int = 1,
) -> list[dict]:
    """Estimate vs. theorem bound across a grid of sample sizes, each
    sample the packed indices of m uniform cube points drawn from ``rng``.

    Rows carry (m, estimate, stderr, bound, ratio) where the bound is the
    closed-form envelope at the pool's (n, s, k, W, B) and ratio the
    estimate over it.  Only the 1/sqrt(m) scaling is meaningful; nobody
    knows the theorem's hidden constant.
    """
    m_grid = list(m_grid)
    if not m_grid or any(b <= a for a, b in zip([1] + m_grid, m_grid)):  # from 2 upward
        raise ValueError(f"m grid must be strictly increasing sizes >= 2, got {m_grid}")
    rows = []
    for m in m_grid:
        idx = rng.integers(0, 1 << pool.n, size=m)
        est = empirical_rademacher(pool, idx, trials, rng, mode=mode, threads=threads)
        bound = bounds.rademacher_bound(
            bounds.ClassParams(
                n=pool.n, s=pool.s, k=pool.k, W=pool.W, B=pool.B, m=m
            )
        )
        rows.append(
            {
                "m": m,
                "estimate": est.mean,
                "stderr": est.stderr,
                "bound": bound,
                "ratio": est.mean / bound if bound else math.inf,
            }
        )
    return rows
