"""Explicit sparsely activated networks: juntas, indexing, parity lifting,
and the gate/payload network whose weight vectors are dense.

All constructors return plain :class:`~sparseact.network.SparseNet` values
whose sparsity can be re-checked with ``verify_sparsity``; nothing here is
taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import MAX_GATE_BITS, MAX_INDEX_BITS, MAX_JUNTA_P, MAX_LIFT_M, MAX_PAYLOAD_DIM
from .errors import CapacityError
from .hypercube import CubePoint, index_signs
from .network import SparseNet


@dataclass(frozen=True)
class JuntaSpec:
    """A function of n inputs that depends only on ``relevant`` coordinates.

    ``table`` holds the 2^p values, indexed by the sign pattern of the
    relevant coordinates in listed order (+1 on coordinate relevant[j] when
    bit j of the table index is 0).
    """

    n: int
    relevant: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        relevant = tuple(int(i) for i in self.relevant)
        table = np.asarray(self.table, dtype=np.float64)
        table.setflags(write=False)
        object.__setattr__(self, "relevant", relevant)
        object.__setattr__(self, "table", table)
        p = len(relevant)
        if len(set(relevant)) != p:
            raise ValueError(f"duplicate relevant indices in {relevant}")
        if any(not 1 <= i <= self.n for i in relevant):
            raise ValueError(f"relevant indices {relevant} out of range [1, {self.n}]")
        if table.shape != (1 << p,):
            raise ValueError(f"table must have 2^{p} entries, got shape {table.shape}")
        if not np.all(np.isfinite(table)):
            raise ValueError("table contains non-finite entries")

    @property
    def p(self) -> int:
        return len(self.relevant)

    def table_index(self, x: CubePoint) -> int:
        """Table slot selected by x's signs on the relevant coordinates."""
        t = 0
        for j, coord in enumerate(self.relevant):
            if x.sign(coord) == -1:
                t |= 1 << j
        return t

    def value(self, x: CubePoint) -> float:
        if x.n != self.n:
            raise ValueError(f"dimension mismatch: junta on {self.n}, point on {x.n}")
        return float(self.table[self.table_index(x)])


def junta_to_net(spec: JuntaSpec) -> SparseNet:
    """Simulate a p-junta with 2^p hidden units, one per sign pattern.

    Unit t carries pattern t on the relevant coordinates (zero elsewhere),
    bias p - 1, and output weight table[t].  At any input exactly one unit
    has pre-activation +1 (the matching pattern) while every other unit sits
    at -1 or below, so the net is exactly 1-sparse and reproduces the table.
    """
    p = spec.p
    if p > MAX_JUNTA_P:
        raise CapacityError(f"junta construction needs p <= {MAX_JUNTA_P}, got {p}")
    s = 1 << p
    w = np.zeros((s, spec.n))
    if p > 0:
        cols = [i - 1 for i in spec.relevant]
        w[:, cols] = index_signs(np.arange(s), p)
    b = np.full(s, float(p - 1))
    return SparseNet(n=spec.n, s=s, k=1, u=spec.table.copy(), w=w, b=b)


def address_value(signs: Sequence[int]) -> int:
    """Address encoded by +-1 bits: -1 -> 0, +1 -> 1, first bit most significant."""
    v = 0
    for s in signs:
        v = (v << 1) | (1 if s > 0 else 0)
    return v


def index_net(b: int) -> SparseNet:
    """The bit-indexing network on n = b + 2^b inputs.

    Input (x, y): the first b coordinates address one of the 2^b data
    coordinates (see :func:`address_value`), and the output is the addressed
    bit mapped {-1 -> 0, +1 -> 1}.  One unit per address pattern alpha:
    weight alpha on the address block, 1/2 on its own data coordinate, bias
    b - 1/2.  At most one unit is ever strictly active (none when the
    addressed bit is -1, where the matching unit's pre-activation is exactly
    zero and the output is 0).
    """
    if not 1 <= b <= MAX_INDEX_BITS:
        raise CapacityError(f"address bits must lie in [1, {MAX_INDEX_BITS}], got {b}")
    s = 1 << b
    n = b + s
    w = np.zeros((s, n))
    for v in range(s):
        # pattern alpha with address value v: most significant bit first
        for t in range(b):
            bit = (v >> (b - 1 - t)) & 1
            w[v, t] = 1.0 if bit else -1.0
        w[v, b + v] = 0.5
    bias = np.full(s, b - 0.5)
    return SparseNet(n=n, s=s, k=1, u=np.ones(s), w=w, b=bias)


def reference_index(x: CubePoint, b: int) -> float:
    """Independent specification of the indexing function, for cross-checks."""
    if x.n != b + (1 << b):
        raise ValueError(f"point dimension {x.n} does not match b={b}")
    v = address_value([x.sign(i) for i in range(1, b + 1)])
    return (x.sign(b + v + 1) + 1) / 2


@dataclass(frozen=True)
class LiftedPoint:
    """The m x m sign matrix x(y): diagonal y_i, off-diagonal y_i * y_j."""

    m: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=np.int8)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        if entries.shape != (self.m, self.m):
            raise ValueError(f"entries must be {self.m} x {self.m}, got {entries.shape}")
        if not np.all(np.abs(entries) == 1):
            raise ValueError("entries must be +-1")

    def is_consistent(self) -> bool:
        """entries[i][j] == entries[i][i] * entries[j][j] for all i != j."""
        d = np.diag(self.entries).astype(np.int64)
        expected = np.outer(d, d)
        np.fill_diagonal(expected, d)
        return bool(np.array_equal(self.entries, expected))

    def to_point(self) -> CubePoint:
        """Row-major flattening into a point of dimension m^2."""
        return CubePoint.from_signs(self.entries.reshape(-1))


def embed_lift(y: CubePoint) -> LiftedPoint:
    """Quadratic lifting of y into {-1,+1}^{m x m}."""
    if y.n > MAX_LIFT_M:
        raise CapacityError(f"lifting needs m <= {MAX_LIFT_M}, got {y.n}")
    ys = y.signs().astype(np.int64)
    entries = np.outer(ys, ys)
    np.fill_diagonal(entries, ys)
    return LiftedPoint(y.n, entries)


def parity_lift(m: int, S: Sequence[int]) -> SparseNet:
    """Even-sum detector over lifted inputs: one unit per even shift a.

    Acts on n = m^2 coordinates holding a lifted point x(y).  Unit a (even,
    -m <= a <= m) has weight 2a on diagonal slots (i, i) for i in S, weight
    -1 on off-diagonal slots (i, j) with i != j both in S, and bias
    |S| + a^2 - 1/2, making its pre-activation on x(y) exactly
    1/2 - (sum_{i in S} y_i - a)^2.  With output weights 2 everywhere the
    net returns 1 when sum_{i in S} y_i is even and 0 otherwise, and at most
    one unit is active on any lifted input.
    """
    S = sorted(set(int(i) for i in S))
    if not S:
        raise ValueError("S must be nonempty")
    if m > MAX_LIFT_M:
        raise CapacityError(f"parity lifting needs m <= {MAX_LIFT_M}, got {m}")
    if any(not 1 <= i <= m for i in S):
        raise ValueError(f"S {S} out of range [1, {m}]")
    shifts = [a for a in range(-m, m + 1) if a % 2 == 0]
    n = m * m
    w = np.zeros((len(shifts), n))
    b = np.zeros(len(shifts))
    for row, a in enumerate(shifts):
        mat = np.zeros((m, m))
        for i in S:
            mat[i - 1, i - 1] = 2.0 * a
            for j in S:
                if j != i:
                    mat[i - 1, j - 1] = -1.0
        w[row] = mat.reshape(-1)
        b[row] = len(S) + a * a - 0.5
    return SparseNet(n=n, s=len(shifts), k=1, u=np.full(len(shifts), 2.0), w=w, b=b)


def gamma_gated_net(
    b: int,
    q: int,
    gamma: float,
    w_table: Mapping[tuple[int, ...], Sequence[float]] | np.ndarray,
) -> SparseNet:
    """Gate/payload network with dense weights: unit alpha fires only when
    the gate block matches alpha (up to the margin set by gamma).

    Inputs are (gate, payload) in {-1,+1}^{b+q}.  Unit alpha has weights
    gamma * alpha on the gate block and its own payload vector w_alpha
    (norm at most 1), with bias gamma * b.  gamma = sqrt(q) forces
    1-sparsity on every input; smaller gamma only keeps it with high
    probability under the uniform distribution.

    ``w_table`` is either a (2^b, q) array indexed by address value or a
    mapping from sign patterns (tuples of +-1, most significant first) to
    payload vectors; every pattern must be present.
    """
    if not 1 <= b <= MAX_GATE_BITS:
        raise CapacityError(f"gate bits must lie in [1, {MAX_GATE_BITS}], got {b}")
    if not 1 <= q <= MAX_PAYLOAD_DIM:
        raise CapacityError(f"payload dim must lie in [1, {MAX_PAYLOAD_DIM}], got {q}")
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    s = 1 << b
    if isinstance(w_table, Mapping):
        rows = np.zeros((s, q))
        for v in range(s):
            pattern = tuple(1 if (v >> (b - 1 - t)) & 1 else -1 for t in range(b))
            if pattern not in w_table:
                raise ValueError(f"w_table is missing the entry for pattern {pattern}")
            rows[v] = np.asarray(w_table[pattern], dtype=np.float64)
    else:
        rows = np.asarray(w_table, dtype=np.float64)
        if rows.shape != (s, q):
            raise ValueError(f"w_table must have shape ({s}, {q}), got {rows.shape}")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms > 1.0 + 1e-9):
        raise ValueError(f"payload vectors must have norm <= 1, max is {norms.max():.6g}")

    n = b + q
    w = np.zeros((s, n))
    for v in range(s):
        for t in range(b):
            bit = (v >> (b - 1 - t)) & 1
            w[v, t] = gamma if bit else -gamma
        w[v, b:] = rows[v]
    bias = np.full(s, gamma * b)
    return SparseNet(n=n, s=s, k=1, u=np.ones(s), w=w, b=bias)
