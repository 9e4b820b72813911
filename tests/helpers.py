"""Independent oracles and small builders shared by the test modules.

The oracles deliberately avoid the library's fast paths: the reference
transform multiplies out characters term by term, and the sensitivity
oracles walk edges with single-point evaluations, so agreement with the
vectorized implementations is meaningful.  Subsets are bitmasks (bit i-1
set iff coordinate i is a member), as in the library.  The library takes
points as packed indices only; ``Point`` is the scalar view of one index
(coordinates, flips) that these oracles and the tests reason with.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from sparseact import (
    CubePoint,
    Dataset,
    GeneralizedDecisionList,
    InconsistentDataError,
    ListNode,
    MonomialModel,
    NoConsistentListError,
    SparseNet,
    SparsityReport,
    parallel,
)
from sparseact.config import MAX_PACKED_N
from sparseact.hypercube import _byte_alias_table, index_signs, pack_bits


@dataclass(frozen=True)
class Point:
    """A point of {-1,+1}^n as its packed index, with 1-indexed coordinate
    access decoded bit by bit (bit i-1 set means coordinate i is -1)."""

    n: int
    index: int

    def __post_init__(self) -> None:
        if self.n < 1 or not 0 <= self.index < (1 << self.n):
            raise ValueError(f"index {self.index} out of range for dimension {self.n}")

    @classmethod
    def from_signs(cls, signs) -> "Point":
        """The point with the given +-1 coordinates, in coordinate order."""
        signs = [int(s) for s in signs]
        if any(s not in (1, -1) for s in signs):
            raise ValueError(f"coordinates must be +-1, got {signs}")
        return cls(len(signs), sum(1 << i for i, s in enumerate(signs) if s == -1))

    def sign(self, i: int) -> int:
        """Coordinate i in {-1,+1} (1-indexed)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate {i} out of range [1, {self.n}]")
        return -1 if (self.index >> (i - 1)) & 1 else 1

    def signs(self) -> np.ndarray:
        """All coordinates as an int8 array of +-1, length n."""
        return np.array([self.sign(i) for i in range(1, self.n + 1)], dtype=np.int8)

    def flip(self, i: int) -> "Point":
        """The point with coordinate i negated (1-indexed)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate {i} out of range [1, {self.n}]")
        return Point(self.n, self.index ^ (1 << (i - 1)))

    def __iter__(self):
        return iter(int(s) for s in self.signs())


def preactivations_at(net: SparseNet, u: int) -> np.ndarray:
    """``w x - b`` at the packed point u, one matrix-vector product."""
    return net.w @ Point(net.n, u).signs().astype(np.float64) - net.b


def net_value(net: SparseNet, u: int) -> float:
    """h(x) = sum_j u_j max(<w_j, x> - b_j, 0) at the packed point u."""
    return float(net.u @ np.maximum(preactivations_at(net, u), 0.0))


def active_set(net: SparseNet, u: int) -> frozenset:
    """Units (1-indexed) with strictly positive pre-activation at u."""
    return frozenset(int(j) + 1 for j in np.flatnonzero(preactivations_at(net, u) > 0.0))


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
    """One butterfly stage a pass, in place with one half-size temporary:
    the oracle for ``fourier._fwht``, which runs the short strides on
    transposed slices."""
    h = 1
    while h < a.size:
        b = a.reshape(-1, 2, h)
        x = b[:, 0, :].copy()
        b[:, 0, :] += b[:, 1, :]
        np.subtract(x, b[:, 1, :], out=b[:, 1, :])
        h *= 2
    return a


def reference_rademacher(H: np.ndarray) -> float:
    """Exact empirical Rademacher complexity of the (pool, m) value matrix H
    through the full (2^m, m) table of sign vectors."""
    m = H.shape[1]
    return float((index_signs(np.arange(1 << m), m) @ H.T).max(axis=1).mean() / m)


def reference_chunk_samples(worker, n_items: int, rng: np.random.Generator, chunk: int):
    """Every chunk's samples, from generators spawned all at once: the
    concatenating form of ``parallel.run_chunked``, one array per chunk."""
    ranges = [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]
    return [worker(lo, hi, r) for (lo, hi), r in zip(ranges, rng.spawn(len(ranges)))]


class InlineExecutor:
    """Stands in for ``ThreadPoolExecutor`` without starting a thread: it
    appends its ``max_workers`` to ``created`` and runs each submission at
    once in the caller's thread."""

    def __init__(self, created: list, max_workers: int):
        created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def run_chunks_inline(monkeypatch, cpus) -> list:
    """Make ``parallel.run_chunked`` see ``cpus`` CPUs and pool its chunks in
    an ``InlineExecutor``; returns the list that collects each pool's
    ``max_workers``."""
    created: list = []
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(
        parallel, "ThreadPoolExecutor", lambda max_workers: InlineExecutor(created, max_workers)
    )
    return created


def reference_mean_and_stderr(samples) -> tuple[float, float]:
    """Mean and ``std(ddof=1) / sqrt(N)`` in one pass over all samples: the
    oracle for ``parallel.mean_and_stderr`` on merged chunk moments.

    Samples whose largest magnitude is below 1/2 are scaled up to [1/2, 1)
    by a power of two for the std, and the result scaled back, so squared
    deviations of tiny samples do not underflow to subnormals."""
    arr = np.asarray(samples, dtype=np.float64)
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    peak = float(np.abs(arr).max())
    shift = -math.frexp(peak)[1] if 0.0 < peak < 0.5 else 0
    std = np.ldexp(arr, shift).std(ddof=1)
    return mean, math.ldexp(float(std / np.sqrt(arr.size)), -shift)


def reference_flip_masks(n: int, p: float, count: int, rng: np.random.Generator):
    """Packed masks of n independent flips of probability p, one double per
    coordinate through ``pack_bits``: the Bernoulli oracle for
    ``hypercube.flip_sampler``, which draws a byte of flips per 64-bit word."""
    return pack_bits(rng.random((count, n)) < p)


def reference_alias_flip_masks(n: int, p: float, count: int, rng: np.random.Generator):
    """Packed masks from the raw words ``hypercube.flip_sampler`` draws, one
    word per byte of 8 coordinates, each resolved through ``_byte_alias_table``
    in Python ints and spread into a (count, n) flip matrix for ``pack_bits``:
    the oracle for the sampler's vectorised column pick and byte assembly."""
    thresh, pick = (t.tolist() for t in _byte_alias_table(p))
    groups = -(-n // 8)
    flips = np.zeros((count, 8 * groups), dtype=bool)
    for row, words in enumerate(rng.bit_generator.random_raw((count, groups)).tolist()):
        for j, word in enumerate(words):
            col = word % 256
            byte = col if word >> 8 < thresh[col] else pick[2 * col]
            flips[row, 8 * j : 8 * j + 8] = [(byte >> i) & 1 for i in range(8)]
    return pack_bits(flips[:, :n])


def reference_bucket_pair(n: int, rho: float, rng: np.random.Generator):
    """``(x, y, r, b)`` from the n + 2 raw words ``hypercube.sample_bucket_pair``
    draws, by the literal procedure: x the top n bits of word 0, a label w // q
    (q = 2^64 // r) per later word, each word from q r up redrawn in turn (b's
    first, then the coordinates' in order), and y = x with the coordinates
    labelled b flipped through ``pack_bits``: the oracle for the sampler's one
    comparison per coordinate."""
    r = int(np.floor(2.0 / (1.0 - rho)))
    q = (1 << 64) // r
    words = rng.bit_generator.random_raw(n + 2).tolist()

    def label(w: int) -> int:
        while w >= q * r:
            w = rng.bit_generator.random_raw()
        return w // q

    b = label(words[1])
    labels = np.array([label(w) for w in words[2:]], dtype=np.int64)
    x = words[0] >> (64 - n)
    y = x ^ int(pack_bits(labels == b))
    return CubePoint(n, x), CubePoint(n, y), r, b + 1


def reference_sign_sups(H: np.ndarray, count: int, rng: np.random.Generator):
    """Sups over the pool from one (count, m) draw of sign rows: the oracle
    for ``rademacher_lab._sign_sups``, which draws them in row slices."""
    m = H.shape[1]
    Z = 1.0 - 2.0 * rng.integers(0, 2, size=(count, m))
    return (Z @ H.T).max(axis=1) / m


def brute_sensitivity_at(f, n: int, u: int) -> float:
    """Edge-walking oracle for the pointwise sensitivity of a callable on
    packed indices."""
    x = Point(n, u)
    fx = f(u)
    return 0.25 * sum((fx - f(x.flip(i).index)) ** 2 for i in range(1, n + 1))


def brute_avg_sensitivity(f, n: int) -> float:
    """Exhaustive mean of the pointwise sensitivity, single-point calls only."""
    total = 0.0
    for u in range(1 << n):
        total += brute_sensitivity_at(f, n, u)
    return total / (1 << n)


def brute_split(net: SparseNet) -> tuple[float, float]:
    """Edge-by-edge decomposition oracle using active_set on each endpoint."""
    n = net.n
    same = 0.0
    changed = 0.0
    for u in range(1 << n):
        x = Point(n, u)
        hx = net_value(net, u)
        rx = active_set(net, u)
        for i in range(1, n + 1):
            y = x.flip(i).index
            term = 0.25 * (hx - net_value(net, y)) ** 2
            if rx == active_set(net, y):
                same += term
            else:
                changed += term
    size = 1 << n
    return same / size, changed / size


def parity_function(n: int, members: tuple[int, ...]):
    mask = sum(1 << (i - 1) for i in set(members))

    def f(u: int) -> float:
        return float(chi(mask, u))

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
    achieved = float(np.max(np.abs(reference_dlist_values(result, X) - y)))
    if achieved > tol:
        raise AssertionError(
            f"internal error: training residual {achieved:.3g} exceeds tol {tol}"
        )
    return result



def reference_dlist_values(dlist: GeneralizedDecisionList, X: np.ndarray) -> np.ndarray:
    """The list's values on an (N, n) array of +-1 rows, node by node on the
    sign rows: the oracle for ``GeneralizedDecisionList.eval_indices``."""
    X = np.asarray(X, dtype=np.float64)
    out = np.full(X.shape[0], dlist.default)
    undecided = np.ones(X.shape[0], dtype=bool)
    for node in dlist.nodes:
        fires = (X @ np.asarray(node.gate_w, dtype=np.float64) - node.gate_b) > 0.0
        take = fires & undecided
        if take.any():
            out[take] = X[take] @ np.asarray(node.leaf_v) + node.leaf_c
        undecided &= ~fires
    return out


def reference_within_spread(
    fires: np.ndarray, candidates: np.ndarray, live: np.ndarray, uniq: np.ndarray,
    y1: np.ndarray, n: int, slack: float,
) -> np.ndarray:
    """Edge-step screen of ``fit_decision_list`` on an (inputs, gates) bool
    fire matrix over the sorted distinct inputs ``uniq`` of {-1,+1}^n, with
    first labels ``y1`` and a live mask over the inputs: the candidates, in
    their given order, on whose live covered edges no coordinate's label
    steps spread wider than ``slack``; a non-finite spread rules nothing
    out.  Per coordinate, a gate's spread runs from its first covered edge
    to its last in stable step order."""
    ruled_out = np.zeros(fires.shape[1], dtype=bool)
    idx = np.sort(candidates)
    for i in range(n):
        lo = np.flatnonzero(uniq & (1 << i) == 0)
        partner = uniq[lo] | (1 << i)
        hi = np.minimum(np.searchsorted(uniq, partner), uniq.size - 1)
        hit = uniq[hi] == partner
        lo, hi = lo[hit], hi[hit]
        with np.errstate(over="ignore"):
            step = y1[lo] - y1[hi]
        order = np.argsort(step, kind="stable")
        lo, hi, step = lo[order], hi[order], step[order]
        keep = live[lo] & live[hi]
        lo, hi, step = lo[keep], hi[keep], step[keep]
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
            if lo.size < 2 or step[-1] - step[0] <= slack:
                continue
            both = fires[lo][:, idx] & fires[hi][:, idx]
            first = both.argmax(axis=0)
            last = lo.size - 1 - both[::-1].argmax(axis=0)
            spread = step[last] - step[first]
        out = both[first, np.arange(idx.size)] & np.isfinite(spread) & (spread > slack)
        ruled_out[idx[out]] = True
        idx = idx[~out]
    return candidates[~ruled_out[candidates]]

def reference_normal_equations(data: Dataset, masks: np.ndarray):
    """``(Phi.T @ Phi, Phi.T @ y)`` from the (m, count) design matrix
    Phi[i, j] = chi_{masks[j]}(x_i), built column by column: the oracle for
    ``learners._normal_equations``, which reads both off transformed
    histograms."""
    Phi = np.empty((len(data), masks.size))
    for col, mask in enumerate(masks):
        Phi[:, col] = 1.0 - 2.0 * (np.bitwise_count(data.idx & mask) & 1)
    return Phi.T @ Phi, Phi.T @ data.y


def reference_fit_low_degree(data: Dataset, d: int, ridge: float = 1e-10) -> MonomialModel:
    """``fit_low_degree`` solving the normal equations of the design matrix,
    with the same ridge, solve and least-squares fallback."""
    masks = np.array(
        [sum(1 << i for i in T) for size in range(d + 1)
         for T in itertools.combinations(range(data.n), size)],
        dtype=np.int64,
    )
    G, rhs = reference_normal_equations(data, masks)
    if ridge > 0:
        G = G + ridge * np.eye(masks.size)
    try:
        c = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        c, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    return MonomialModel(n=data.n, d=d, masks=masks, coeffs=c)


def reference_monomial_values(model: MonomialModel, idx: np.ndarray) -> np.ndarray:
    """The model's character sum at packed indices, term by term in mask
    order: the oracle for ``MonomialModel.eval_indices``."""
    out = np.zeros(len(idx))
    for mask, c in zip(model.masks, model.coeffs):
        out += c * (1.0 - 2.0 * (np.bitwise_count(idx & mask) & 1))
    return out


def reference_read_dataset_csv(path) -> Dataset:
    """The row-by-row dataset reader, checking each line's signs as it is
    read: the oracle for ``cli._read_dataset_csv``.  A csv.Error, in the
    header as on any later line, is a ValueError naming its line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = []
        try:
            header = next(reader, None)
            if not header or header[-1] != "y" or not header[0].startswith("x"):
                raise ValueError("dataset CSV needs header x1,...,xn,y")
            n = len(header) - 1
            if n > MAX_PACKED_N:
                raise ValueError(f"dataset CSV has {n} sign columns, at most {MAX_PACKED_N}")
            for row in reader:
                if len(row) != n + 1:
                    raise ValueError(
                        f"dataset CSV line {reader.line_num} has {len(row)} fields, "
                        f"expected {n + 1}"
                    )
                cells = [float(v) for v in row]
                if any(v != 1.0 and v != -1.0 for v in cells[:n]):
                    raise ValueError(
                        f"dataset CSV line {reader.line_num}: a sign is not +-1"
                    )
                rows.append(cells)
        except csv.Error as exc:
            raise ValueError(f"dataset CSV line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("dataset CSV contains no rows")
    table = np.array(rows)
    return Dataset(n, pack_bits(table[:, :n] < 0), table[:, n])


def reference_model_json(model: MonomialModel, losses: dict) -> str:
    """The learned model and its losses as ``json.dumps`` lays them out, one
    record dict per kept coefficient: the oracle for ``cli._model_json``."""
    records = [
        {"T": [i + 1 for i in range(model.n) if mask >> i & 1], "c": c}
        for mask, c in zip(model.masks.tolist(), model.coeffs.tolist())
        if c != 0.0 or not mask
    ]
    payload = {"model": {"n": model.n, "d": model.d, "coeffs": records}, **losses}
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def reference_scan(
    net: SparseNet, k: int, chunk: int = 1 << 16, points=None
) -> SparsityReport:
    """Sparsity scan of the packed ``points`` (default: the whole cube) by
    unpacking every index and multiplying out the pre-activations
    ``signs @ w.T - b``, chunk by chunk, and counting the positive ones; the
    oracle for ``verify_sparsity``."""
    if points is None:
        points = range(1 << net.n)
    total = len(points)
    max_active, violations, witness = 0, 0, None
    for lo in range(0, total, chunk):
        idx = np.asarray(points[lo : lo + chunk], dtype=np.int64)
        signs = index_signs(idx, net.n).astype(np.float64)
        counts = np.count_nonzero(signs @ net.w.T - net.b > 0.0, axis=1)
        max_active = max(max_active, int(counts.max()))
        over = counts > k
        violations += int(over.sum())
        if witness is None and over.any():
            witness = CubePoint(net.n, int(idx[np.argmax(over)]))
    return SparsityReport(max_active, witness, violations / total, total)


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
