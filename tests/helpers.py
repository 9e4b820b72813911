"""Independent oracles and small builders shared by the test modules.

The oracles deliberately avoid the library's fast paths: the reference
transform multiplies out characters term by term, and the sensitivity
oracles walk edges with single-point evaluations, so agreement with the
vectorized implementations is meaningful.  Subsets are bitmasks (bit i-1
set iff coordinate i is a member), as in the library.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np

from sparseact import (
    CubePoint,
    Dataset,
    GeneralizedDecisionList,
    InconsistentDataError,
    ListNode,
    NoConsistentListError,
    SparseNet,
    SparsityReport,
)
from sparseact.hypercube import index_signs


def chi(mask: int, u: int) -> int:
    """The character of subset bitmask ``mask`` at packed point ``u``, +-1."""
    return -1 if bin(mask & u).count("1") & 1 else 1


def naive_spectrum(values: np.ndarray, n: int) -> np.ndarray:
    """O(4^n) reference transform: coeff[mask] = mean_x f(x) chi_T(x)."""
    size = 1 << n
    out = np.zeros(size)
    for mask in range(size):
        total = 0.0
        for u in range(size):
            total += values[u] * chi(mask, u)
        out[mask] = total / size
    return out


def reference_fwht(a: np.ndarray) -> np.ndarray:
    """The butterfly with four half-size temporaries per stage: the oracle
    for ``fourier._fwht``, which updates in place with one."""
    h = 1
    while h < a.size:
        b = a.reshape(-1, 2, h)
        x = b[:, 0, :].copy()
        y = b[:, 1, :].copy()
        b[:, 0, :] = x + y
        b[:, 1, :] = x - y
        h *= 2
    return a


def reference_rademacher(H: np.ndarray) -> float:
    """Exact empirical Rademacher complexity of the (pool, m) value matrix H
    through the full (2^m, m) table of sign vectors."""
    m = H.shape[1]
    return float((index_signs(np.arange(1 << m), m) @ H.T).max(axis=1).mean() / m)


def brute_sensitivity_at(f, n: int, x: CubePoint) -> float:
    """Edge-walking oracle for the pointwise sensitivity of a callable."""
    fx = f(x)
    return 0.25 * sum((fx - f(x.flip(i))) ** 2 for i in range(1, n + 1))


def brute_avg_sensitivity(f, n: int) -> float:
    """Exhaustive mean of the pointwise sensitivity, single-point calls only."""
    total = 0.0
    for u in range(1 << n):
        total += brute_sensitivity_at(f, n, CubePoint(n, u))
    return total / (1 << n)


def brute_split(net: SparseNet) -> tuple[float, float]:
    """Edge-by-edge decomposition oracle using active_set on each endpoint."""
    n = net.n
    same = 0.0
    changed = 0.0
    for u in range(1 << n):
        x = CubePoint(n, u)
        hx = net.eval(x)
        rx = net.active_set(x)
        for i in range(1, n + 1):
            y = x.flip(i)
            term = 0.25 * (hx - net.eval(y)) ** 2
            if rx == net.active_set(y):
                same += term
            else:
                changed += term
    size = 1 << n
    return same / size, changed / size


def random_net(rng: np.random.Generator, n: int, s: int, k: int | None = None) -> SparseNet:
    return SparseNet(
        n=n,
        s=s,
        k=k if k is not None else s,
        u=rng.uniform(-1, 1, size=s),
        w=rng.normal(size=(s, n)),
        b=rng.normal(size=s),
    )


def parity_function(n: int, members: tuple[int, ...]):
    mask = sum(1 << (i - 1) for i in set(members))

    def f(x: CubePoint) -> float:
        return float(chi(mask, x.index))

    return f


def reference_decision_list(data: Dataset, s: int, M: int, tol: float = 1e-6):
    """Gate-by-gate oracle for ``fit_decision_list``: every gate whose coverage
    reaches the threshold is fitted by least squares, in the visiting order,
    until one fits within tol.  Same peel, same leaves, same errors."""
    n, y = data.n, data.y
    _, first, inverse = np.unique(data.idx, return_index=True, return_inverse=True)
    prev = y[first[inverse]]
    bad = np.flatnonzero(np.abs(prev - y) > tol)
    if bad.size:
        i = bad[0]
        raise InconsistentDataError(
            f"input index {int(data.idx[i])} carries labels {float(prev[i])} "
            f"and {float(y[i])}"
        )
    X = index_signs(data.idx, n).astype(np.float64)
    gates = np.array(
        list(itertools.product(range(-M, M + 1), repeat=n + 1)), dtype=np.float64
    )
    fires_all = (np.hstack([X, -np.ones((X.shape[0], 1))]) @ gates.T) > 0.0
    remaining = np.ones(len(data), dtype=bool)
    nodes = []
    while remaining.any():
        rem_idx = np.flatnonzero(remaining)
        coverage = fires_all[rem_idx].sum(axis=0)
        threshold = math.ceil(len(rem_idx) / (s + 1))
        order = np.lexsort((np.arange(len(gates)), -coverage))
        chosen = None
        for gi in order:
            if coverage[gi] < threshold:
                break
            covered = rem_idx[fires_all[rem_idx, gi]]
            A = np.hstack([X[covered], np.ones((covered.size, 1))])
            sol, *_ = np.linalg.lstsq(A, y[covered], rcond=None)
            v, c = sol[:-1], float(sol[-1])
            if float(np.max(np.abs(X[covered] @ v + c - y[covered]))) <= tol:
                chosen = (gi, covered, v, c)
                break
        if chosen is None:
            raise NoConsistentListError(
                f"no gate isolates an affine-fittable subset of size >= {threshold} "
                f"among the {len(rem_idx)} remaining samples"
            )
        gi, covered, v, c = chosen
        nodes.append(
            ListNode(
                gate_w=tuple(int(g) for g in gates[gi][:-1]),
                gate_b=int(gates[gi][-1]),
                leaf_v=tuple(float(t) for t in v),
                leaf_c=float(c),
            )
        )
        remaining[covered] = False
    result = GeneralizedDecisionList(n=n, nodes=tuple(nodes), default=0.0)
    achieved = float(np.max(np.abs(result.eval_batch(X) - y)))
    if achieved > tol:
        raise AssertionError(
            f"internal error: training residual {achieved:.3g} exceeds tol {tol}"
        )
    return result


def reference_scan(net: SparseNet, k: int, chunk: int = 1 << 16) -> SparsityReport:
    """Exhaustive sparsity scan by unpacking every index and multiplying out
    the pre-activations, chunk by chunk; the oracle for ``verify_sparsity``."""
    total = 1 << net.n
    max_active, violations, witness = 0, 0, None
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        counts = net.active_counts(index_signs(idx, net.n))
        max_active = max(max_active, int(counts.max()))
        over = counts > k
        violations += int(over.sum())
        if witness is None and over.any():
            witness = CubePoint(net.n, int(idx[np.argmax(over)]))
    return SparsityReport(max_active, witness, violations / total, "exhaustive", total)


def _reference_cell(value) -> str:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite result {value}")
        return repr(value)
    return str(value)


def reference_csv(header: list[str], rows: list[list]) -> str:
    """Row-by-row CSV writer: the oracle for the CLI's column-wise tables."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_reference_cell(v) for v in row])
    return buf.getvalue()


def reference_json(header: list[str], rows: list[list]) -> str:
    """Record-by-record JSON writer: the oracle for the CLI's JSON tables."""
    records = [dict(zip(header, row)) for row in rows]
    return json.dumps(records, indent=2, allow_nan=False) + "\n"
