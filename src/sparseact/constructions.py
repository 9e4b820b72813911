"""Explicit sparsely activated networks: juntas, indexing, parity lifting,
and the gate/payload network whose weight vectors are dense; plus the seeded
random net and random junta that the checks, tests and pools draw.

All constructors return plain :class:`~sparseact.network.SparseNet` values
whose sparsity can be re-checked with ``verify_sparsity``; nothing here is
taken on faith.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import (
    MAX_GATE_BITS, MAX_INDEX_BITS, MAX_JUNTA_P, MAX_LIFT_M, MAX_PACKED_N, MAX_PAYLOAD_DIM,
)
from .errors import CapacityError
from .hypercube import _hold_array, index_signs, packed_indices, point_index
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
        relevant = tuple(map(operator.index, self.relevant))
        object.__setattr__(self, "relevant", relevant)
        table = _hold_array(self, "table", self.table, np.float64)
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

    def value(self, u: int) -> float:
        """The table entry that the packed point u selects: bit j of the slot
        is bit relevant[j] - 1 of u."""
        u = point_index(u, self.n)
        slot = sum(((u >> (i - 1)) & 1) << j for j, i in enumerate(self.relevant))
        return float(self.table[slot])


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
    if spec.n > MAX_PACKED_N:
        raise CapacityError(f"junta construction needs n <= {MAX_PACKED_N}, got {spec.n}")
    s = 1 << p
    w = np.zeros((s, spec.n))
    if p > 0:
        cols = [i - 1 for i in spec.relevant]
        w[:, cols] = index_signs(np.arange(s), p)
    b = np.full(s, float(p - 1))
    return SparseNet(n=spec.n, s=s, k=1, u=spec.table, w=w, b=b)


def address_value(signs: Sequence[int]) -> int:
    """Address encoded by +-1 bits: -1 -> 0, +1 -> 1, first bit most significant."""
    v = 0
    for s in signs:
        v = (v << 1) | (1 if s > 0 else 0)
    return v


def _address_signs(b: int) -> np.ndarray:
    """Row v: the +-1 pattern of address value v (see :func:`address_value`),
    most significant bit first."""
    return -index_signs(np.arange(1 << b), b)[:, ::-1]


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
    if b < 1:
        raise ValueError(f"address bits must be >= 1, got {b}")
    if b > MAX_INDEX_BITS:
        raise CapacityError(f"address bits must lie in [1, {MAX_INDEX_BITS}], got {b}")
    s = 1 << b
    n = b + s
    w = np.zeros((s, n))
    w[:, :b] = _address_signs(b)
    w[:, b:] = np.eye(s) / 2
    bias = np.full(s, b - 0.5)
    return SparseNet(n=n, s=s, k=1, u=np.ones(s), w=w, b=bias)


def reference_index(u: int, b: int) -> float:
    """Independent specification of the indexing function at the packed
    point u of {-1,+1}^(b + 2^b), for cross-checks."""
    u = point_index(u, b + (1 << b))
    v = address_value([-1 if (u >> i) & 1 else 1 for i in range(b)])
    return 0.0 if (u >> (b + v)) & 1 else 1.0


def embed_lift(y_idx, m: int) -> np.ndarray:
    """Quadratic lifting of the packed points ``y_idx`` of {-1,+1}^m.

    Row t holds the m x m sign matrix x(y) of y = y_idx[t], flattened row
    major into a point of dimension m^2, as int8: y_i on the diagonal and
    y_i * y_j off it.
    """
    if m > MAX_LIFT_M:
        raise CapacityError(f"lifting needs m <= {MAX_LIFT_M}, got {m}")
    ys = index_signs(packed_indices(y_idx, m), m)
    lifted = ys[:, :, None] * ys[:, None, :]
    diag = np.arange(m)
    lifted[:, diag, diag] = ys
    return lifted.reshape(len(ys), m * m)


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
    S = tuple(map(operator.index, S))
    if not S:
        raise ValueError("S must be nonempty")
    if len(set(S)) != len(S):
        raise ValueError(f"duplicate subset indices in {S}")
    S = sorted(S)
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


def check_gate_sizes(b: int, q: int) -> None:
    """ValueError for gamma-net sizes below 1, CapacityError above the caps."""
    if b < 1 or q < 1:
        raise ValueError(f"gate bits and payload dim must be >= 1, got b={b}, q={q}")
    if b > MAX_GATE_BITS:
        raise CapacityError(f"gate bits must lie in [1, {MAX_GATE_BITS}], got {b}")
    if q > MAX_PAYLOAD_DIM:
        raise CapacityError(f"payload dim must lie in [1, {MAX_PAYLOAD_DIM}], got {q}")


def gamma_gated_net(
    b: int,
    q: int,
    gamma: float,
    w_table: np.ndarray,
) -> SparseNet:
    """Gate/payload network with dense weights: unit alpha fires only when
    the gate block matches alpha (up to the margin set by gamma).

    Inputs are (gate, payload) in {-1,+1}^{b+q}.  Unit alpha has weights
    gamma * alpha on the gate block and its own payload vector w_alpha
    (norm at most 1), with bias gamma * b.  gamma = sqrt(q) forces
    1-sparsity on every input; smaller gamma only keeps it with high
    probability under the uniform distribution.

    ``w_table`` is a (2^b, q) array of payload vectors indexed by address
    value (see :func:`address_value`).
    """
    check_gate_sizes(b, q)
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if not np.isfinite(gamma * b):
        raise ValueError(f"gamma * b must be finite, got gamma={gamma}, b={b}")
    s = 1 << b
    rows = np.asarray(w_table, dtype=np.float64)
    if rows.shape != (s, q):
        raise ValueError(f"w_table must have shape ({s}, {q}), got {rows.shape}")
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms > 1.0 + 1e-9):
        raise ValueError(f"payload vectors must have norm <= 1, max is {norms.max():.6g}")

    n = b + q
    w = np.zeros((s, n))
    w[:, :b] = gamma * _address_signs(b)
    w[:, b:] = rows
    bias = np.full(s, gamma * b)
    return SparseNet(n=n, s=s, k=1, u=np.ones(s), w=w, b=bias)


def random_net(rng: np.random.Generator, n: int, s: int) -> SparseNet:
    """A net drawn from ``rng`` in the order u ~ U(-1, 1)^s, then w and b
    standard normal, declared at level k = s (no promise)."""
    return SparseNet(
        n=n,
        s=s,
        k=s,
        u=rng.uniform(-1, 1, size=s),
        w=rng.normal(size=(s, n)),
        b=rng.normal(size=s),
    )


def random_junta(rng: np.random.Generator, n: int, p: int) -> JuntaSpec:
    """A p-junta on n inputs: p distinct relevant coordinates drawn from
    ``rng``, then a table uniform on [-1, 1]^(2^p)."""
    relevant = tuple(int(i) + 1 for i in rng.choice(n, size=p, replace=False))
    return JuntaSpec(n=n, relevant=relevant, table=rng.uniform(-1, 1, size=1 << p))
