"""Points and samplers on the sign hypercube {-1,+1}^n.

Encoding
--------
Every point is identified with an integer index in [0, 2^n): coordinate
``i`` (1-indexed) equals +1 exactly when bit ``i-1`` of the index is 0.
Index 0 is therefore the all-ones point, and index 2^n - 1 the all-minus
point.  Dense arrays over the cube are always laid out in this index order,
which makes the fast Walsh-Hadamard transform and exhaustive scans line up
with plain array indexing.

Coordinates are 1-indexed throughout the public API; only storage is
0-indexed.  ``index_signs`` and ``pack_bits`` are the only converters
between packed indices and sign rows; everything else goes through them.
Whole-cube affine maps (a net's pre-activations at all 2^n points) come
from ``affine_blocks``, which never unpacks an index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .config import MAX_EXHAUSTIVE_N, MAX_PACKED_N


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_EXHAUSTIVE_N:
        raise ValueError(f"dimension must be in [1, {MAX_EXHAUSTIVE_N}], got {n}")


def index_signs(idx, n: int) -> np.ndarray:
    """Coordinates of packed indices: int8 +-1 rows of shape idx.shape + (n,)."""
    bits = np.asarray(idx, dtype=np.int64)[..., None] >> np.arange(n, dtype=np.int64)
    bits &= 1
    signs = bits.astype(np.int8)
    signs *= -2
    signs += 1
    return signs


# Place values 2^i of the 63 bits a non-negative int64 index holds; built
# once because the scalar samplers pack on every call.
_PLACE_VALUES = np.int64(1) << np.arange(63, dtype=np.int64)


def pack_bits(bits) -> np.ndarray:
    """Packed indices of bit rows along the last axis; bit 1 means coordinate -1."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ _PLACE_VALUES[: bits.shape[-1]]


def packed_indices(idx, n: int) -> np.ndarray:
    """``idx`` as a fresh nonempty 1-d int64 array of packed points of
    {-1,+1}^n (n <= MAX_PACKED_N); ValueError for other dtypes, shapes or values."""
    if not 1 <= n <= MAX_PACKED_N:
        raise ValueError(f"dimension must be in [1, {MAX_PACKED_N}], got {n}")
    raw = np.asarray(idx)
    if raw.size and raw.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got dtype {raw.dtype}")
    out = np.array(raw, dtype=np.int64)
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"need a nonempty 1-d index array, got shape {out.shape}")
    if out.min() < 0 or out.max() >= 1 << n:
        raise ValueError(f"indices out of range [0, 2^{n})")
    return out


@dataclass(frozen=True)
class CubePoint:
    """A point of {-1,+1}^n, stored as its packed integer index."""

    n: int
    index: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not 0 <= self.index < (1 << self.n):
            raise ValueError(
                f"index {self.index} out of range for dimension {self.n}"
            )

    @classmethod
    def from_signs(cls, signs: Iterable[int]) -> "CubePoint":
        """Build a point from an iterable of +-1 signs (coordinate order)."""
        signs = list(signs)
        bad = [pos for pos, s in enumerate(signs) if s != 1 and s != -1]
        if bad:
            raise ValueError(f"coordinate {bad[0] + 1} is {signs[bad[0]]}, expected +-1")
        return cls(len(signs), int(pack_bits([s == -1 for s in signs])))

    def sign(self, i: int) -> int:
        """Coordinate i in {-1,+1} (1-indexed)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate {i} out of range [1, {self.n}]")
        return -1 if (self.index >> (i - 1)) & 1 else 1

    def signs(self) -> np.ndarray:
        """All coordinates as an int8 array of +-1, length n."""
        return index_signs(self.index, self.n)

    def flip(self, i: int) -> "CubePoint":
        """The point with coordinate i negated (1-indexed)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate {i} out of range [1, {self.n}]")
        return CubePoint(self.n, self.index ^ (1 << (i - 1)))

    def __iter__(self) -> Iterator[int]:
        return iter(int(s) for s in self.signs())


def sign_table(n: int) -> np.ndarray:
    """The full (2^n, n) int8 table of coordinates in index order.

    Row u is CubePoint(n, u).signs().  Memory: 2^n * n bytes.  No code in
    the package calls it; the benchmark's tracer still wraps it by name.
    """
    _check_dim(n)
    return index_signs(np.arange(1 << n), n)


# Points in the base block of ``affine_blocks``: the low 13 coordinates.  At
# s = 64 units a block is 4 MiB, small enough to stay in cache while callers
# reduce it, large enough that the per-block Python overhead is negligible.
_BLOCK_BITS = 13


def _doubling(W: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Columns ``W @ x + start`` for every x in {-1,+1}^m in index order, where
    W is (s, m): T_i = [T_{i-1} + w_i, T_{i-1} - w_i], O(s 2^m) additions."""
    s, m = W.shape
    T = np.empty((s, 1 << m))
    T[:, 0] = start
    for i in range(m):
        h = 1 << i
        w = W[:, i : i + 1]
        np.subtract(T[:, :h], w, out=T[:, h : 2 * h])
        T[:, :h] += w
    return T


def affine_blocks(W, c) -> Iterator[tuple[int, np.ndarray]]:
    """The affine map x -> W x + c over the whole cube, in aligned blocks.

    W is (s, n) and c is (s,).  Yields ``(lo, Z)`` in index order, where
    column r of the fresh (s, cols) float64 array Z is ``W @ x + c`` at the
    point lo + r; the blocks tile [0, 2^n).  The low coordinates come from
    one base block built by the doubling recursion (starting from c), the
    high ones from a table of per-block offsets, so memory is bounded by the
    block and no sign table or n-wide matmul is built.  With small dyadic
    weights (the constructions) every entry is exact, including the zero
    ties the strict ``> 0`` rule reads.
    """
    W = np.asarray(W, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if W.ndim != 2 or c.shape != W.shape[:1]:
        raise ValueError(
            f"need W of shape (s, n) and c of shape (s,), got {W.shape} and {c.shape}"
        )
    _check_dim(W.shape[1])
    low = min(W.shape[1], _BLOCK_BITS)
    base = _doubling(W[:, :low], c)
    offsets = _doubling(W[:, low:], np.zeros_like(c))
    for high in range(offsets.shape[1]):
        yield high << low, base + offsets[:, high : high + 1]


def pack_signs(signs: np.ndarray) -> np.ndarray:
    """Packed indices for an (N, n) array of +-1 signs (vectorized)."""
    return pack_bits(np.asarray(signs) < 0)


def sample_uniform(n: int, rng: np.random.Generator) -> CubePoint:
    """A uniform point of {-1,+1}^n; deterministic given the generator state."""
    _check_dim(n)
    return CubePoint(n, int(rng.integers(0, 1 << n)))


def sample_noisy(x: CubePoint, rho: float, rng: np.random.Generator) -> CubePoint:
    """Flip each coordinate of x independently with probability (1-rho)/2.

    rho=1 returns x itself, rho=-1 its negation; rho=0 resamples uniformly.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    flips = rng.random(x.n) < (1.0 - rho) / 2.0
    return CubePoint(x.n, x.index ^ int(pack_bits(flips)))


def sample_bucket_pair(
    n: int, rho: float, rng: np.random.Generator
) -> tuple[CubePoint, CubePoint, int, int]:
    """Correlated pair (x, y) via the bucket procedure; returns (x, y, r, b).

    With r = floor(2 / (1 - rho)): draw z uniform on the cube, assign each
    coordinate to one of r buckets uniformly and independently, draw one
    uniform sign per bucket, and set x = z * bucket signs.  Flip the sign of
    one uniformly chosen bucket b (1-indexed) to obtain y.  Each coordinate
    of y then differs from x independently with probability exactly 1/r,
    which equals (1 - rho)/2 precisely when 2/(1 - rho) is an integer;
    callers should compare flip rates against 1/r.
    """
    _check_dim(n)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"correlation must lie in [0, 1), got {rho}")
    r = int(np.floor(2.0 / (1.0 - rho)))
    z = rng.integers(0, 2, size=n)  # bit 1 means coordinate -1
    buckets = rng.integers(0, r, size=n)
    v = rng.integers(0, 2, size=r)  # per-bucket sign bits
    b = int(rng.integers(0, r))

    x = int(pack_bits(z ^ v[buckets]))
    y = x ^ int(pack_bits(buckets == b))
    return CubePoint(n, x), CubePoint(n, y), r, b + 1

