"""Points and samplers on the sign hypercube {-1,+1}^n.

Encoding
--------
Every point is identified with an integer index in [0, 2^n): coordinate
``i`` (1-indexed) equals +1 exactly when bit ``i-1`` of the index is 0.
Index 0 is therefore the all-ones point, and index 2^n - 1 the all-minus
point.  Dense arrays over the cube are always laid out in this index order,
which makes the fast Walsh-Hadamard transform and exhaustive scans line up
with plain array indexing.

Public functions take points as packed indices: an ``int`` for one point,
an int64 array for many (every predictor's ``eval_indices`` takes one).
``CubePoint`` only wraps the index that ``sample_bucket_pair`` and a
sparsity report's witness return.

Coordinates are 1-indexed throughout the public API; only storage is
0-indexed.  ``index_signs`` and ``pack_bits`` are the only converters
between packed indices and sign rows (a net unpacks its points a slice
at a time); everything else goes through them.  ``flip_sampler`` draws
Monte-Carlo noise flips with no sign rows, a byte of 8 per 64-bit word.
Whole-cube affine maps (a net's pre-activations at all 2^n points) come
from ``affine_blocks``, which never unpacks an index; the exhaustive sparsity
scan counts their positive entries off the same tables, with no float block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .config import MAX_EXHAUSTIVE_N, MAX_PACKED_N


def _check_dim(n: int, cap: int = MAX_EXHAUSTIVE_N) -> None:
    if not 1 <= n <= cap:
        raise ValueError(f"dimension must be in [1, {cap}], got {n}")


def index_signs(idx, n: int) -> np.ndarray:
    """Coordinates of packed indices: int8 +-1 rows of shape idx.shape + (n,)."""
    bits = np.asarray(idx, dtype=np.int64)[..., None] >> np.arange(n, dtype=np.int64)
    bits &= 1
    signs = bits.astype(np.int8)
    signs *= -2
    signs += 1
    return signs


# Place values 2^i of the 63 bits a non-negative int64 index holds.
_PLACE_VALUES = np.int64(1) << np.arange(63, dtype=np.int64)


def pack_bits(bits) -> np.ndarray:
    """Packed indices of bit rows along the last axis; bit 1 means coordinate -1."""
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ _PLACE_VALUES[: bits.shape[-1]]


def packed_indices(idx, n: int) -> np.ndarray:
    """``idx`` as a fresh nonempty 1-d int64 array of packed points of
    {-1,+1}^n (n <= MAX_PACKED_N); ValueError for other dtypes, shapes or values."""
    _check_dim(n, MAX_PACKED_N)
    raw = np.asarray(idx)
    if raw.size and raw.dtype.kind not in "iu":
        raise ValueError(f"indices must be integers, got dtype {raw.dtype}")
    out = np.array(raw, dtype=np.int64)
    if out.ndim != 1 or out.size == 0:
        raise ValueError(f"need a nonempty 1-d index array, got shape {out.shape}")
    if out.min() < 0 or out.max() >= 1 << n:
        raise ValueError(f"indices out of range [0, 2^{n})")
    return out


def _hold_array(obj, name: str, a, dtype) -> np.ndarray:
    """Set field ``name`` of the frozen instance ``obj`` to a read-only copy of
    ``a`` in ``dtype`` and return it: the one way a value type holds an array,
    so it never freezes, shares or sees later writes to the caller's array."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


def point_index(u, n: int) -> int:
    """``u`` as the int index of one point of {-1,+1}^n; TypeError for a
    non-integer, ValueError for an index outside [0, 2^n)."""
    u = operator.index(u)
    if not 0 <= u < 1 << n:
        raise ValueError(f"index {u} out of range for dimension {n}")
    return u


@dataclass(frozen=True)
class CubePoint:
    """A point of {-1,+1}^n (n <= MAX_PACKED_N), stored as its packed index."""

    n: int
    index: int

    def __post_init__(self) -> None:
        _check_dim(self.n, MAX_PACKED_N)
        point_index(self.index, self.n)

    def signs(self) -> np.ndarray:
        """All coordinates as an int8 array of +-1, length n."""
        return index_signs(self.index, self.n)


def sign_table(n: int) -> np.ndarray:
    """The full (2^n, n) int8 table of coordinates in index order.

    Row u is index_signs(u, n).  Memory: 2^n * n bytes.  No code in
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


def _cube_tables(W, c) -> tuple[np.ndarray, np.ndarray]:
    """The doubling tables of ``affine_blocks``: (base block, offsets)."""
    W = np.asarray(W, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if W.ndim != 2 or c.shape != W.shape[:1]:
        raise ValueError(
            f"need W of shape (s, n) and c of shape (s,), got {W.shape} and {c.shape}"
        )
    _check_dim(W.shape[1])
    low = min(W.shape[1], _BLOCK_BITS)
    return _doubling(W[:, :low], c), _doubling(W[:, low:], np.zeros_like(c))


def affine_blocks(W, c) -> Iterator[tuple[int, np.ndarray]]:
    """The affine map x -> W x + c over the whole cube, in aligned blocks.

    W is (s, n) and c is (s,).  Yields ``(lo, Z)`` in index order, where
    column r of the fresh (s, cols) float64 array Z is ``W @ x + c`` at the
    point lo + r; the blocks tile [0, 2^n).  The low coordinates come from
    one base block built by the doubling recursion (starting from c), the
    high ones from a table of per-block offsets, so no sign table or n-wide
    matmul is built.  Memory still grows with s, not with the block alone:
    the base block is (s, 2^13) and the offsets (s, 2^(n-13)) (ROADMAP item
    3).  With small dyadic weights (the constructions) every entry is exact,
    including the zero ties the strict ``> 0`` rule reads.
    """
    base, offsets = _cube_tables(W, c)
    for high in range(offsets.shape[1]):
        yield high * base.shape[1], base + offsets[:, high : high + 1]


def _positive_counts(W, c) -> Iterator[tuple[range, np.ndarray]]:
    """``(points, counts)`` per block Z of ``affine_blocks``: counts[r] is the
    number of entries > 0 in column r of Z, found without building Z, since
    ``a > -b`` holds exactly when ``fl(a + b) > 0`` does (zero ties included)."""
    base, offsets = _cube_tables(W, c)
    s, cols = base.shape
    mask = np.empty((s, cols), dtype=bool)
    for high, offset in enumerate(offsets.T):
        np.greater(base, -offset[:, None], out=mask)
        counts = np.add.reduce(mask.view(np.uint8), axis=0, dtype=np.min_scalar_type(s))
        yield range(high * cols, (high + 1) * cols), counts


# Units per column of the byte alias table: 256 columns of 2^56 units share
# the 2^64 units of one byte's law, so a column's threshold is compared with
# the 56 bits of a raw word above the byte that picked the column.
_COLUMN = 1 << 56


def _byte_alias_table(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias table for one byte of 8 independent flips of probability p.

    Byte mask m gets floor(p^|m| (1-p)^(8-|m|) 2^64) units, computed exactly
    from p's integer ratio, and the likeliest mask gets the deficit (at most
    255 units), so every mask's probability is within 2^-56 of its law.
    Column c holds ``thresh[c]`` units of c and the rest of its alias; a full
    column is its own alias.  Returns the 256 thresholds and the 512 bytes
    ``pick``, both uint64, with pick[2c] the alias of c and pick[2c + 1] = c.
    """
    a, b = float(p).as_integer_ratio()
    by_count = [(a**k * (b - a) ** (8 - k) << 64) // b**8 for k in range(9)]
    units = [by_count[m.bit_count()] for m in range(256)]
    units[0 if p <= 0.5 else 255] += (1 << 64) - sum(units)
    thresh, alias = [_COLUMN] * 256, list(range(256))
    small = [m for m in range(256) if units[m] < _COLUMN]
    large = [m for m in range(256) if units[m] > _COLUMN]
    while small:  # exact integers: a column under 2^56 always has a large one left
        s, g = small.pop(), large.pop()
        thresh[s], alias[s] = units[s], g
        units[g] -= _COLUMN - units[s]
        if units[g] < _COLUMN:
            small.append(g)
        elif units[g] > _COLUMN:
            large.append(g)
    pick = np.empty(512, dtype=np.uint64)
    pick[0::2], pick[1::2] = alias, range(256)
    return np.array(thresh, dtype=np.uint64), pick


def flip_sampler(n: int, p: float) -> Callable[[int, np.random.Generator], np.ndarray]:
    """``draw(count, rng)``: int64 packed masks in [0, 2^n) of ``count`` rows of
    n independent flips of probability p, exact to 2^-56 per byte mask.

    A row takes ceil(n/8) raw words of ``rng.bit_generator``, one per byte of
    8 coordinates: its low byte picks a column of the alias table (built once,
    here), its high 56 bits keep that byte below the column's threshold and
    take the alias otherwise, and byte j lands on bits 8j..8j+7.  Dropping the
    bits from n up leaves the law of the rest unchanged.
    """
    _check_dim(n, MAX_PACKED_N)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    thresh, pick = _byte_alias_table(p)
    groups = -(-n // 8)
    keep = (1 << n) - 1

    def draw(count: int, rng: np.random.Generator) -> np.ndarray:
        raw = rng.bit_generator.random_raw((count, groups))
        col = (raw & np.uint64(0xFF)).view(np.int64)
        raw >>= np.uint64(8)
        below = raw < thresh.take(col)
        col <<= 1
        col += below
        picked = pick.take(col)
        masks = picked[:, 0].copy()
        for j in range(1, groups):
            masks |= picked[:, j] << 8 * j
        masks &= keep
        return masks.view(np.int64)

    return draw


def sample_bucket_pair(
    n: int, rho: float, rng: np.random.Generator
) -> tuple[CubePoint, CubePoint, int, int]:
    """Correlated pair (x, y) via the bucket procedure; returns (x, y, r, b).

    With r = floor(2 / (1 - rho)): assign each coordinate to one of r
    buckets uniformly and independently, draw x uniform on the cube, and
    flip the sign of one uniformly chosen bucket b (1-indexed) to obtain y.
    Each coordinate of y then differs from x independently with probability
    exactly 1/r, which equals (1 - rho)/2 precisely when 2/(1 - rho) is an
    integer; callers should compare flip rates against 1/r.

    The procedure as stated draws z uniform, one sign v_j per bucket, and
    sets x = z * v[buckets].  Since z is uniform and independent of the
    buckets, of v and of b, so is z * v[buckets]: x = z has the same joint
    law with (y, r, b).  Skipping the r bucket signs keeps memory bounded by
    n, not by r, which grows without bound as rho -> 1.

    A pair takes n + 2 raw words of ``rng.bit_generator``: x is the top n bits
    of word 0, word 1 picks b and word i + 1 the bucket of coordinate i.  With
    q = 2^64 // r a word w < q r is label w // q, so each label owns exactly q
    words; larger words (none when r is a power of two) are redrawn after the
    row, b's first.  Seeded draws differ from versions built on ``rng.integers``.
    """
    _check_dim(n, MAX_PACKED_N)
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"correlation must lie in [0, 1), got {rho}")
    r = math.floor(2.0 / (1.0 - rho))
    q = (1 << 64) // r
    x, *words = rng.bit_generator.random_raw(n + 2).tolist()
    if max(words) >= q * r:
        for i in range(n + 1):
            while words[i] >= q * r:
                words[i] = rng.bit_generator.random_raw()
    lo = words[0] - words[0] % q
    hi = lo + q
    flips = sum(1 << i for i, w in enumerate(words[1:]) if lo <= w < hi)  # label w // q is b
    x >>= 64 - operator.index(n)  # int >> np.int64 would overflow on x
    return CubePoint(n, x), CubePoint(n, x ^ flips), r, words[0] // q + 1
