"""One-hidden-layer ReLU networks with a declared activation-sparsity level.

A net computes h(x) = sum_j u_j * relu(<w_j, x> - b_j).  A hidden unit is
*active* at x when its pre-activation is strictly positive; the declared
level k promises at most k active units on the inputs of interest.  The
promise is never assumed: ``verify_sparsity`` checks it, exhaustively or by
sampling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import MAX_EXHAUSTIVE_N, MAX_SPLIT_N
from .errors import CapacityError
from .hypercube import CubePoint, affine_blocks, index_signs


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SparseNet:
    """Immutable network (u, {w_j}, {b_j}) with declared sparsity level k."""

    n: int
    s: int
    k: int
    u: np.ndarray  # (s,)
    w: np.ndarray  # (s, n)
    b: np.ndarray  # (s,)

    def __post_init__(self) -> None:
        u = _frozen(self.u)
        w = _frozen(self.w)
        b = _frozen(self.b)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)
        if self.n < 1 or self.s < 1:
            raise ValueError(f"need n >= 1 and s >= 1, got n={self.n}, s={self.s}")
        if not 1 <= self.k <= self.s:
            raise ValueError(f"declared level k={self.k} must satisfy 1 <= k <= s={self.s}")
        if u.shape != (self.s,) or w.shape != (self.s, self.n) or b.shape != (self.s,):
            raise ValueError(
                f"shape mismatch: u{u.shape}, w{w.shape}, b{b.shape} "
                f"for (n={self.n}, s={self.s})"
            )
        for name, arr in (("u", u), ("w", w), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    # -- evaluation ----------------------------------------------------

    def preactivations(self, x: CubePoint) -> np.ndarray:
        if x.n != self.n:
            raise ValueError(f"dimension mismatch: net on {self.n}, point on {x.n}")
        return self.w @ x.signs().astype(np.float64) - self.b

    def eval(self, x: CubePoint) -> float:
        """h(x) = sum_j u_j * max(<w_j, x> - b_j, 0)."""
        return float(self.u @ np.maximum(self.preactivations(x), 0.0))

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate on an (N, n) array of +-1 rows; returns (N,) floats."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected (N, {self.n}) sign rows, got {X.shape}")
        z = X @ self.w.T - self.b
        np.maximum(z, 0.0, out=z)
        return z @ self.u

    def active_set(self, x: CubePoint) -> frozenset[int]:
        """Units with strictly positive pre-activation at x (1-indexed)."""
        z = self.preactivations(x)
        return frozenset(int(j) + 1 for j in np.flatnonzero(z > 0.0))

    def active_counts(self, X: np.ndarray) -> np.ndarray:
        """Number of strictly active units per row of an (N, n) sign array."""
        X = np.asarray(X, dtype=np.float64)
        return ((X @ self.w.T - self.b) > 0.0).sum(axis=1)

    # -- derived quantities --------------------------------------------

    def scale_params(self) -> "ScaleParams":
        """(W, B) = (||u||_inf * max_j ||w_j||_2, ||u||_inf * max_j |b_j|)."""
        u_inf = float(np.max(np.abs(self.u)))
        return ScaleParams(
            W=u_inf * float(np.max(np.linalg.norm(self.w, axis=1))),
            B=u_inf * float(np.max(np.abs(self.b))),
        )

    def linear_piece(self, R: Iterable[int]) -> tuple[np.ndarray, float]:
        """The affine piece (sum_{j in R} u_j w_j, sum_{j in R} u_j b_j).

        On the region where the active set equals R, h coincides with
        x -> <wR, x> - bR.  Unit indices are 1-indexed.
        """
        idx = sorted(set(int(j) for j in R))
        if any(not 1 <= j <= self.s for j in idx):
            raise ValueError(f"unit indices must lie in [1, {self.s}], got {idx}")
        if not idx:
            return np.zeros(self.n), 0.0
        rows = [j - 1 for j in idx]
        wR = self.u[rows] @ self.w[rows]
        bR = float(self.u[rows] @ self.b[rows])
        return wR, bR

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON with fixed field order and round-trip floats."""
        payload = {
            "n": self.n,
            "s": self.s,
            "k": self.k,
            "u": self.u.tolist(),
            "w": self.w.tolist(),
            "b": self.b.tolist(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "SparseNet":
        d = json.loads(text)
        if not isinstance(d, dict) or not {"n", "s", "k", "u", "w", "b"} <= d.keys():
            raise ValueError("net JSON must be an object with keys n, s, k, u, w, b")
        try:
            n, s, k = (int(d[key]) for key in ("n", "s", "k"))
            u, w, b = (np.array(d[key], dtype=np.float64) for key in ("u", "w", "b"))
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"net JSON has a malformed field: {exc}") from None
        return cls(n=n, s=s, k=k, u=u, w=w, b=b)


@dataclass(frozen=True)
class ScaleParams:
    """Computed weight-scale envelope of a net; never asserted, only measured."""

    W: float
    B: float


@dataclass(frozen=True)
class SparsityReport:
    """Outcome of a sparsity check at some level k.

    ``mode`` records the quantification: "exhaustive" covers every point of
    the cube (or of an explicitly supplied support), "sampled" estimates the
    violation fraction under the uniform distribution from ``samples`` draws.
    """

    max_active: int
    violating_input: Optional[CubePoint]
    violation_fraction: float
    mode: str
    samples: int


def verify_sparsity(
    net: SparseNet,
    k: int,
    mode: str = "exhaustive",
    *,
    support: Optional[Sequence[CubePoint]] = None,
    count: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> SparsityReport:
    """Check how many units activate simultaneously, against level k.

    Exhaustive mode scans all 2^n inputs (n <= 24), or exactly the points of
    ``support`` when one is given (lifted constructions are only promised to
    be sparse on their embedded image).  Sampled mode draws ``count`` uniform
    inputs from ``rng`` and reports the estimated violation fraction.
    """
    if k < 1:
        raise ValueError(f"sparsity level must be >= 1, got {k}")
    if mode == "exhaustive":
        if support is not None:
            points = list(support)
            if not points:
                raise ValueError("support must contain at least one point")
            if any(p.n != net.n for p in points):
                raise ValueError("support points do not match the net dimension")
            idx = np.array([p.index for p in points], dtype=np.int64)
            counts = net.active_counts(index_signs(idx, net.n))
            over = counts > k
            witness = points[int(np.argmax(over))] if over.any() else None
            return SparsityReport(
                max_active=int(counts.max()),
                violating_input=witness,
                violation_fraction=float(over.mean()),
                mode="exhaustive",
                samples=len(points),
            )
        if net.n > MAX_EXHAUSTIVE_N:
            raise CapacityError(
                f"exhaustive scan needs n <= {MAX_EXHAUSTIVE_N}, got {net.n}"
            )
        total = 1 << net.n
        max_active = 0
        witness: Optional[CubePoint] = None
        violations = 0
        for lo, z in affine_blocks(net.w, -net.b):
            counts = np.count_nonzero(z > 0.0, axis=0)
            max_active = max(max_active, int(counts.max()))
            over = counts > k
            found = int(np.count_nonzero(over))
            violations += found
            if witness is None and found:
                witness = CubePoint(net.n, lo + int(np.argmax(over)))
        return SparsityReport(
            max_active=max_active,
            violating_input=witness,
            violation_fraction=violations / total,
            mode="exhaustive",
            samples=total,
        )
    if mode == "sampled":
        if count is None or rng is None:
            raise ValueError("sampled mode needs count and rng")
        idx = rng.integers(0, 1 << net.n, size=count)
        counts = net.active_counts(index_signs(idx, net.n))
        over = counts > k
        witness = None
        if over.any():
            witness = CubePoint(net.n, int(idx[np.argmax(over)]))
        return SparsityReport(
            max_active=int(counts.max()),
            violating_input=witness,
            violation_fraction=float(over.mean()),
            mode="sampled",
            samples=count,
        )
    raise ValueError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")


@dataclass(frozen=True)
class SensitivitySplit:
    """Average sensitivity split by whether a flip preserves the active set.

    ``same_region`` collects squared jumps across edges whose endpoints share
    one activation pattern (where h is affine); ``changed_region`` the rest.
    Their sum is the exact average sensitivity.
    """

    same_region: float
    changed_region: float

    @property
    def total(self) -> float:
        return self.same_region + self.changed_region


def avg_sensitivity_split(net: SparseNet) -> SensitivitySplit:
    """Exact edge-wise decomposition of the average sensitivity of h.

    For every point x and coordinate i the term (h(x) - h(x^flip_i))^2 / 4
    is attributed to ``same_region`` when the active sets at the two
    endpoints coincide, else to ``changed_region``.  Exhaustive, n <= 16.
    """
    if net.n > MAX_SPLIT_N:
        raise CapacityError(f"decomposition needs n <= {MAX_SPLIT_N}, got {net.n}")
    size = 1 << net.n
    active = np.empty((net.s, size), dtype=bool)
    values = np.empty(size)
    for lo, z in affine_blocks(net.w, -net.b):
        hi = lo + z.shape[1]
        np.greater(z, 0.0, out=active[:, lo:hi])
        np.maximum(z, 0.0, out=z)
        values[lo:hi] = net.u @ z

    same = 0.0
    changed = 0.0
    for i in range(net.n):
        # the edges along coordinate i pair the two halves of each 2^(i+1)
        # run; each edge stands for both of its directed terms, hence 2/4
        h = 1 << i
        v = values.reshape(-1, 2, h)
        jump_sq = (v[:, 0, :] - v[:, 1, :]) ** 2
        a = active.reshape(net.s, -1, 2, h)
        same_mask = ~(a[:, :, 0] ^ a[:, :, 1]).any(axis=0)
        same += 0.5 * float(jump_sq[same_mask].sum())
        changed += 0.5 * float(jump_sq[~same_mask].sum())
    return SensitivitySplit(same_region=same / size, changed_region=changed / size)


def rebucket(
    net: SparseNet, z: CubePoint, partition: Sequence[Sequence[int]]
) -> SparseNet:
    """Collapse coordinates into buckets: the r-input net H_z.

    ``partition`` lists r disjoint buckets of 1-indexed coordinates covering
    [n] exactly once.  Bucket e becomes input coordinate e of the new net,
    with collapsed weights w'_{je} = sum_{l in bucket e} w_{jl} * z_l; the
    output weights and biases are unchanged.  If x is reconstructed by
    x_l = z_l * v_{bucket(l)} for bucket signs v, then h(x) = H_z(v).
    """
    if z.n != net.n:
        raise ValueError(f"dimension mismatch: net on {net.n}, z on {z.n}")
    seen: set[int] = set()
    buckets = [list(dict.fromkeys(int(l) for l in bucket)) for bucket in partition]
    for bucket in buckets:
        if not bucket:
            raise ValueError("empty bucket in partition")
        for l in bucket:
            if not 1 <= l <= net.n:
                raise ValueError(f"coordinate {l} out of range [1, {net.n}]")
            if l in seen:
                raise ValueError(f"coordinate {l} appears in two buckets")
            seen.add(l)
    if len(seen) != net.n:
        missing = sorted(set(range(1, net.n + 1)) - seen)
        raise ValueError(f"partition misses coordinates {missing}")

    zs = z.signs().astype(np.float64)
    r = len(buckets)
    w_new = np.zeros((net.s, r))
    for e, bucket in enumerate(buckets):
        cols = [l - 1 for l in bucket]
        w_new[:, e] = net.w[:, cols] @ zs[cols]
    return SparseNet(n=r, s=net.s, k=net.k, u=net.u, w=w_new, b=net.b)
