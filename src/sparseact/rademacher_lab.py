"""Empirical Rademacher complexity of finite hypothesis pools.

The class quantity maximizes over infinitely many networks; here we
maximize over an explicit finite pool, which lower-bounds the class value,
and compare against the theorem's closed-form upper envelope.  For small
sample sizes the expectation over sign vectors is enumerated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import bounds
from .config import MAX_EXACT_RADEMACHER_M, MC_CHUNK
from .constructions import JuntaSpec, junta_to_net
from .errors import CapacityError
from .fourier import values_at
from .hypercube import CubePoint, sign_table
from .network import SparseNet, verify_sparsity
from .parallel import mean_and_stderr, run_chunked


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

    def value_matrix(self, S: Sequence[CubePoint]) -> np.ndarray:
        """(pool, m) matrix of member values on the sample."""
        if not S:
            raise ValueError("sample must be nonempty")
        if any(x.n != self.n for x in S):
            raise ValueError("sample points do not match the pool dimension")
        idx = np.array([x.index for x in S])
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
    S: Sequence[CubePoint],
    trials: int,
    rng: np.random.Generator | None = None,
    mode: str = "auto",
    threads: int = 1,
) -> RademacherEstimate:
    """Estimate the empirical Rademacher complexity of the pool on S.

    mode "exact" enumerates all 2^m sign vectors (m <= 16); "mc" averages
    over ``trials`` uniform sign vectors drawn from ``rng``; "auto" picks
    exact when m is small enough.
    """
    H = pool.value_matrix(S)
    m = H.shape[1]
    if mode == "auto":
        mode = "exact" if m <= MAX_EXACT_RADEMACHER_M else "mc"
    if mode == "exact":
        if m > MAX_EXACT_RADEMACHER_M:
            raise CapacityError(
                f"exact enumeration needs m <= {MAX_EXACT_RADEMACHER_M}, got {m}"
            )
        Z = sign_table(m).astype(np.float64)  # (2^m, m)
        sups = (Z @ H.T).max(axis=1) / m
        return RademacherEstimate(
            mean=float(sups.mean()), stderr=0.0, trials=Z.shape[0], m=m
        )
    if mode != "mc":
        raise ValueError(f"mode must be 'auto', 'exact', or 'mc', got {mode!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if rng is None:
        raise ValueError("mc mode needs a generator")

    def worker(lo: int, hi: int, crng: np.random.Generator) -> np.ndarray:
        Z = 1.0 - 2.0 * crng.integers(0, 2, size=(hi - lo, m))
        return (Z @ H.T).max(axis=1) / m

    sups = run_chunked(worker, trials, rng, threads=threads, chunk=MC_CHUNK)
    mean, stderr = mean_and_stderr(sups)
    return RademacherEstimate(mean=mean, stderr=stderr, trials=trials, m=m)


def random_sparse_pool(
    params: bounds.ClassParams, count: int, rng: np.random.Generator
) -> HypothesisPool:
    """A pool of ``count`` exactly k-sparse networks built from juntas.

    Each member stacks k junta networks on disjoint unit blocks (a junta
    net keeps exactly one unit strictly active, so the stack keeps exactly
    k).  The junta width is the largest p with k * 2^p <= s.  Sparsity is
    re-verified per member: exhaustively for n <= 14, sampled otherwise.
    """
    if count < 1:
        raise ValueError(f"need at least one member, got {count}")
    n, s, k = params.n, params.s, params.k
    if s < k:
        raise ValueError(f"need s >= k, got s={s}, k={k}")
    p = 0
    while k * (1 << (p + 1)) <= s and p + 1 <= n:
        p += 1

    members = []
    W_env = 0.0
    B_env = 0.0
    for _ in range(count):
        blocks = []
        for _ in range(k):
            relevant = tuple(
                int(i) + 1 for i in rng.choice(n, size=p, replace=False)
            )
            table = rng.uniform(-1.0, 1.0, size=1 << p)
            blocks.append(junta_to_net(JuntaSpec(n=n, relevant=relevant, table=table)))
        net = _stack(blocks, k)
        report = (
            verify_sparsity(net, k, "exhaustive")
            if n <= 14
            else verify_sparsity(net, k, "sampled", count=20_000, rng=rng)
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
    sample_set: Callable[[int, np.random.Generator], Sequence[CubePoint]],
    m_grid: Sequence[int],
    trials: int,
    rng: np.random.Generator,
    mode: str = "mc",
    threads: int = 1,
) -> list[dict]:
    """Estimate vs. theorem bound across a grid of sample sizes.

    Rows carry (m, estimate, stderr, bound, ratio) where the bound is the
    closed-form envelope at the pool's (n, s, k, W, B) and ratio the
    estimate over it.  Only the 1/sqrt(m) scaling is meaningful; nobody
    knows the theorem's hidden constant.
    """
    m_grid = list(m_grid)
    if any(b <= a for a, b in zip(m_grid, m_grid[1:])):
        raise ValueError(f"m grid must be strictly increasing, got {m_grid}")
    rows = []
    for m in m_grid:
        S = sample_set(m, rng)
        est = empirical_rademacher(pool, S, trials, rng, mode=mode, threads=threads)
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
                "bound": bound.value,
                "ratio": est.mean / bound.value if bound.value else math.inf,
            }
        )
    return rows


def uniform_sample_set(
    n: int,
) -> Callable[[int, np.random.Generator], list[CubePoint]]:
    """Sample-set generator drawing m uniform cube points."""

    def gen(m: int, rng: np.random.Generator) -> list[CubePoint]:
        return [CubePoint(n, int(u)) for u in rng.integers(0, 1 << n, size=m)]

    return gen
