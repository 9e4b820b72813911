"""One-hidden-layer ReLU networks with a declared activation-sparsity level.

A net computes h(x) = sum_j u_j * relu(<w_j, x> - b_j).  A hidden unit is
*active* at x when its pre-activation is strictly positive; the declared
level k promises at most k active units on the inputs of interest.  The
promise is never assumed: ``verify_sparsity`` checks it on the whole cube or
on a given set of points.
"""

from __future__ import annotations

import operator
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .config import MAX_EXHAUSTIVE_N, MAX_SPLIT_N
from .errors import CapacityError
from .hypercube import CubePoint, affine_blocks, index_signs, packed_indices, point_index
from .hypercube import _hold_array, _positive_counts
from .texts import float_chars


# Values per point slice (2^15 // s points of a net, 256 KiB of floats);
# slices of 2 MiB ran slower than one whole block, as each fresh temporary
# that size was paged in anew.
_SLICE_ENTRIES = 1 << 15


def _point_slices(idx: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """Row slices of ``idx`` of at most 2^15 // width points each (at least one)."""
    rows = max(1, _SLICE_ENTRIES // width)
    return (idx[lo : lo + rows] for lo in range(0, idx.size, rows))


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
        u = _hold_array(self, "u", self.u, np.float64)
        w = _hold_array(self, "w", self.w, np.float64)
        b = _hold_array(self, "b", self.b, np.float64)
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

    def preactivations(self, X: np.ndarray) -> np.ndarray:
        """<w_j, x> - b_j on an (N, n) array of +-1 rows; returns (N, s) floats."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"expected (N, {self.n}) sign rows, got {X.shape}")
        return X @ self.w.T - self.b

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        """h(x) = sum_j u_j * max(<w_j, x> - b_j, 0) on an (N, n) array of
        +-1 rows; returns (N,) floats."""
        z = self.preactivations(X)
        np.maximum(z, 0.0, out=z)
        return z @ self.u

    def active_counts(self, X: np.ndarray) -> np.ndarray:
        """Number of strictly active units per row of an (N, n) sign array."""
        return (self.preactivations(X) > 0.0).sum(axis=1)

    def eval_indices(self, idx) -> np.ndarray:
        """h at packed int64 indices; returns a float64 array of their length,
        from ``eval_batch`` on the sign rows of one point slice at a time."""
        slices = _point_slices(packed_indices(idx, self.n), self.s)
        return np.concatenate([self.eval_batch(index_signs(p, self.n)) for p in slices])

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
        idx = sorted(set(map(operator.index, R)))
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
        """Canonical JSON with fixed field order and round-trip floats: the
        bytes of ``json.dumps`` of the fields with u, w and b as lists.

        Only the weights whose bits are not all zero (-0.0 too) are formatted,
        and spliced over their "0.0"s in the text of an all-zero net, one run
        of consecutive weights in one list at a time."""
        s, n = self.w.shape
        head = f'{{"n": {self.n}, "s": {self.s}, "k": {self.k}, "u": ['
        weights = np.concatenate([self.u, self.w.ravel(), self.b])
        j = np.flatnonzero(weights.view(np.uint64))
        chars = float_chars(weights[j])
        del weights
        texts = chars.view(f"S{chars.shape[1]}").ravel().tolist()  # NULs stripped
        # "0.0, " a weight, 8 more bytes into w and into b, 2 more a row of w
        at = len(head) + 5 * j + 8 * (j >= s) + 8 * (j >= s + s * n)
        at += 2 * np.clip((j - s) // n, 0, s - 1)
        zeros, row = ", ".join(["0.0"] * s), "[" + ", ".join(["0.0"] * n) + "]"
        template = f'{head}{zeros}], "w": [{", ".join([row] * s)}], "b": [{zeros}]}}'.encode()
        # a run's "0.0"s are ", " apart, so its texts replace them as one piece
        gaps = np.diff(at) != 5
        first = np.flatnonzero(np.r_[j.size > 0, gaps])
        last = np.flatnonzero(np.r_[gaps, j.size > 0])
        runs = [b", ".join(texts[a : b + 1]) for a, b in zip(first.tolist(), last.tolist())]
        starts, stops = [0, *(at[last] + 3).tolist()], [*at[first].tolist(), len(template)]
        pieces = [template[a:b] + t for a, b, t in zip(starts, stops, [*runs, b""])]
        return b"".join(pieces).decode()

    @classmethod
    def from_json(cls, text: str) -> "SparseNet":
        d = json.loads(text)
        if not isinstance(d, dict) or not {"n", "s", "k", "u", "w", "b"} <= d.keys():
            raise ValueError("net JSON must be an object with keys n, s, k, u, w, b")
        try:
            counts = {key: json_field(d, key, int) for key in ("n", "s", "k")}
            arrays = {key: np.array(d[key]) for key in ("u", "w", "b")}
            # np.array reads a boolean among numbers as 0 or 1, so the lists
            # are walked for one, but only when the text holds such a literal
            literal = "true" in text or "false" in text
            for key, a in arrays.items():
                mixed = literal and bool in map(type, np.array(d[key], dtype=object).flat)
                if a.dtype.kind in "bU" or mixed:  # all booleans, a string, or mixed
                    raise TypeError(f"{key} must hold numbers only")
            return cls(**counts, **arrays)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"net JSON has a malformed field: {exc}") from None


def json_field(record: dict, key: str, kind: type):
    """record[key] as ``kind``: a JSON integer for int, any JSON number for
    float.  TypeError for a boolean, a string, or a float where int is asked."""
    value = record[key]
    if type(value) is not int and (kind is int or type(value) is not float):
        what = "an integer" if kind is int else "a number"
        raise TypeError(f"{key} must be {what}, got {json.dumps(value)}")
    return kind(value)


@dataclass(frozen=True)
class ScaleParams:
    """Computed weight-scale envelope of a net; never asserted, only measured."""

    W: float
    B: float


@dataclass(frozen=True)
class SparsityReport:
    """Outcome of a sparsity check at level k over ``samples`` points, the
    whole cube or a given support; ``violating_input`` is the first scanned
    point with more than k active."""

    max_active: int
    violating_input: Optional[CubePoint]
    violation_fraction: float
    samples: int


def verify_sparsity(
    net: SparseNet, k: int, mode: str = "exhaustive", *, support=None
) -> SparsityReport:
    """Check how many units activate simultaneously, against level k.

    Scans all 2^n inputs (n <= 24) block by block, counting from the doubling
    tables with no float block of pre-activations, or exactly the packed
    indices ``support`` when they are given (lifted constructions are only
    promised to be sparse on their embedded image), in row slices of at most
    2^15 pre-activations.  Both feed one report loop with (points, active
    counts) blocks in scan order.  ``mode`` must be "exhaustive".
    """
    if k < 1:
        raise ValueError(f"sparsity level must be >= 1, got {k}")
    if mode != "exhaustive":
        raise ValueError(f"mode must be 'exhaustive', got {mode!r}")
    if support is None:
        if net.n > MAX_EXHAUSTIVE_N:
            raise CapacityError(
                f"exhaustive scan needs n <= {MAX_EXHAUSTIVE_N}, got {net.n}"
            )
        blocks = _positive_counts(net.w, -net.b)
    else:
        slices = _point_slices(packed_indices(support, net.n), net.s)
        blocks = ((p, net.active_counts(index_signs(p, net.n))) for p in slices)
    max_active = violations = total = 0
    witness: Optional[CubePoint] = None
    for points, counts in blocks:
        over = counts > k
        found = int(np.count_nonzero(over))
        if witness is None and found:
            witness = CubePoint(net.n, int(points[np.argmax(over)]))
        max_active = max(max_active, int(counts.max()))
        violations += found
        total += len(points)
    return SparsityReport(
        max_active=max_active,
        violating_input=witness,
        violation_fraction=violations / total,
        samples=total,
    )


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


def rebucket(net: SparseNet, z: int, labels, r: int) -> SparseNet:
    """Collapse coordinates into r buckets: the r-input net H_{z,a}.

    ``z`` is the packed index of a point of {-1,+1}^n, and ``labels`` a
    length-n integer array a, drawn by the caller (``sample_bucket_pair``
    returns no labels), that puts coordinate l in bucket a_l in [0, r).
    Bucket e becomes input coordinate e + 1 of the new net, with collapsed
    weights w'_{je} = sum_{a_l = e} w_{jl} * z_l (zero for an empty bucket);
    the output weights and biases are unchanged.  So with x_l = z_l * v_{a_l}
    for bucket signs v, h(x) = H_{z,a}(v), and H_{z,a} keeps every activation
    pattern of h.
    """
    z = point_index(z, net.n)
    labels = np.asarray(labels)
    if labels.shape != (net.n,) or labels.dtype.kind not in "iu":
        raise ValueError(
            f"labels must be a length-{net.n} integer array, "
            f"got shape {labels.shape} and dtype {labels.dtype}"
        )
    if labels.min() < 0 or labels.max() >= r:
        raise ValueError(f"bucket labels must lie in [0, {r})")
    w_new = (net.w * index_signs(z, net.n)) @ (labels[:, None] == np.arange(r))
    return SparseNet(n=r, s=net.s, k=net.k, u=net.u, w=w_new, b=net.b)
